"""Training: event batching, feature preparation, the optimization loop,
and the finite-difference gradient checker.

Events are grouped into t-batches: each event lands one batch after the
latest batch touching its student or its thread, so no batch repeats an
entity and replaying batches in order preserves every per-entity timeline.
model.batch_grads adds a batch's gradients in one pass, with the dynamic
states entering the batch treated as constants, into the one gradient set
of the fit. A batch reaches only the predictor rows model.predictor_rows
names, so its predictor gradient is compact: those rows and a block of
their values (model.RowGrad), in a buffer fit sizes for its largest batch.
A step is clip_gradients, then Adam.step, which applies the gradients in
place and leaves the set zero for the next batch. Clipping sums the
squares in numpy's pairwise order over the dense layout, rebuilding only
the leaves that hold a batch row. Adam.step adds the batch's rows to the
rows reached so far (the live rows); while those are under half the
predictor's, it gathers just them, block by block, and afterwards it
walks whole tensors. Both are bit for bit the whole-tensor expressions on
the dense gradient, and both build a block of the compact gradient in
the RowGrad's own scratch, which it clears itself. Training holds three
predictor-sized arrays (parameters, two moments) and allocates none per
step. The features come from one replay of the window through a state
store's trackers, which training keeps; only the embeddings restart from
zero at every epoch.
"""
from __future__ import annotations

import copy
import csv
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import Dataset, EmptyDatasetError, ThreadEventIndex
from .model import (
    AblationFlags,
    DynamicStateStore,
    EventFeatures,
    ModelParams,
    RowGrad,
    TENSOR_NAMES,
    _STEP_BLOCK,
    _student_context,
    batch_grads,
    dense_grads,
    excitation,
    predictor_rows,
)
from .text import LdaModel, Vocabulary, lda_infer_batch, term_frequency


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite; the message names
    the epoch, batch, and post where it happened."""


@dataclass
class TrainConfig:
    embed_dim: int = 10
    epochs: int = 80
    learning_rate: float = 0.001
    lambda_student: float = 1.0
    lambda_thread: float = 1.0
    post_decay: float = 0.5
    reply_decay: float = 0.001
    seed: int = 0
    clip_norm: float = 5.0          # 0 disables clipping
    init_std: float = 0.1
    activation: str = "sigmoid"
    topic_infer_iters: int = 50
    no_dynamic_student: bool = False
    no_dynamic_thread: bool = False
    no_student_projection: bool = False
    no_thread_projection: bool = False
    no_text_features: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("%s must be finite" % f.name)
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.clip_norm < 0:
            raise ValueError("clip_norm must be >= 0 (0 disables clipping)")
        if self.init_std <= 0:
            raise ValueError("init_std must be positive")
        if self.post_decay < 0 or self.reply_decay < 0:
            raise ValueError("decay rates must be nonnegative")
        if self.lambda_student < 0 or self.lambda_thread < 0:
            raise ValueError("smoothness weights must be nonnegative")
        if self.activation not in ("sigmoid", "tanh"):
            raise ValueError("activation must be 'sigmoid' or 'tanh'")
        if self.topic_infer_iters < 2:
            raise ValueError("topic_infer_iters must be >= 2")

    @property
    def flags(self) -> AblationFlags:
        return AblationFlags(**{name: getattr(self, name) for name in AblationFlags.NAMES})


def ablation_variant(config: TrainConfig, names) -> TrainConfig:
    """Copy of config with the named ablation flags switched on. 'full'
    means no flags. Unknown names are an error."""
    if isinstance(names, str):
        names = [names]
    names = [n for n in names if n != "full"]
    flags = AblationFlags.from_names(names)  # validates
    return replace(config, **{n: True for n in flags.active()})


ABLATION_VARIANTS = ("full",) + AblationFlags.NAMES


# ---------------------------------------------------------------------------
# t-batching


def t_batch(students, threads) -> list[list[int]]:
    """Partition time-ordered events, given as their students and threads,
    into batches of indices. An event goes one batch after the latest
    previous batch containing its student or its thread, so within a batch
    every student and thread appears at most once."""
    last_student: dict[int, int] = {}
    last_thread: dict[int, int] = {}
    batches: list[list[int]] = []
    for i, (s, c) in enumerate(zip(students, threads)):
        b = 1 + max(last_student.get(s, -1), last_thread.get(c, -1))
        if b == len(batches):
            batches.append([])
        batches[b].append(i)
        last_student[s] = b
        last_thread[c] = b
    return batches


# ---------------------------------------------------------------------------
# feature preparation


def mean_event_gap(events) -> float:
    """Mean gap between consecutive event timestamps; 1.0 when undefined
    or zero so normalization is always well posed."""
    if len(events) < 2:
        return 1.0
    gaps = np.diff([ev.timestamp for ev in events])
    mean = float(gaps.mean())
    return mean if mean > 0 else 1.0


FEATURE_SETTINGS = ("post_decay", "reply_decay", "topic_infer_iters")


@dataclass
class PreparedFeatures:
    """A training window as fit reads it: one record per event, the trackers
    after the last post without embeddings, the (weeks, topics) course week
    topics and the FEATURE_SETTINGS of the TrainConfig they were built with."""
    events: EventFeatures
    trackers: DynamicStateStore
    week_topics: np.ndarray
    post_decay: float
    reply_decay: float
    topic_infer_iters: int


def prepare_event_features(train: Dataset, lda: LdaModel, vocab: Vocabulary,
                           week_topics: np.ndarray, config: TrainConfig) -> PreparedFeatures:
    """Topic-infer every post in one lda_infer_batch call and replay the
    window once through the trackers of a state store whose time scale is
    the training mean event gap. Before a post advances them, its record
    reads from them the student's context, as ranking does, and the thread's
    elapsed time. week_topics holds a row of the model's topics per week."""
    if not train.events:
        raise EmptyDatasetError("cannot fit on an empty training window")
    shape = (train.course.num_weeks, lda.num_topics)
    if np.shape(week_topics) != shape:
        raise ValueError("course topics have shape %s, not (weeks, topics) = %s"
                         % (np.shape(week_topics), shape))
    trackers = DynamicStateStore(train.num_students, train.num_threads, 0, lda.num_topics,
                                 mean_event_gap(train.events))
    index = ThreadEventIndex(train)
    thetas = lda_infer_batch(lda, [term_frequency(ev.tokens, vocab) for ev in train.events],
                             iters=config.topic_infer_iters)
    rows = []
    for ev, theta in zip(train.events, thetas):
        s, c, t = ev.student_id, ev.thread_id, ev.timestamp
        delta, week, last_thread = _student_context(trackers, s, t, train.course, week_topics)
        exc = excitation(index.history(s, c, t), t, config.post_decay, config.reply_decay,
                         trackers.time_scale)
        rows.append((s, c, last_thread, theta, delta,
                     (t - trackers.thread_last_t[c]) / trackers.time_scale,
                     week, exc, t, ev.post_id))
        trackers.advance(s, c, t, theta)
    # one array per field, in EventFeatures field order
    return PreparedFeatures(EventFeatures(*map(np.array, zip(*rows))), trackers, week_topics,
                            **{name: getattr(config, name) for name in FEATURE_SETTINGS})


# ---------------------------------------------------------------------------
# optimizer


# While the live predictor rows are fewer than this share of all its rows,
# a step gathers them block by block; from it on it walks whole tensors.
# Measured at paper shape (3,176 rows of 1,333) with every page in memory,
# and with clipping then gathered too, a gathered step cost about 0.2 of a
# whole-tensor one at a tenth of the rows, 0.8 at half and as much from
# about 0.65 on; half keeps a margin below that crossover.
_SPARSE_SHARE = 0.5

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _gather(arr: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The rows idx of the 2-D arr, copied into the front of the flat
    buffer buf and returned as a (len(idx), width) view of it."""
    block = buf[:len(idx) * arr.shape[1]].reshape(len(idx), arr.shape[1])
    return np.take(arr, idx, axis=0, out=block, mode="clip")


class Adam:
    """Adam over every tensor of a ModelParams. step consumes the gradient
    set: it applies it and leaves every gradient zero, the predictor's
    RowGrad without rows.

    A predictor row no step has reached holds g, m and v of +0.0, where
    every operation of the step yields +0.0 and p -= 0.0 keeps p's bits,
    so skipping it changes nothing. Each step adds the rows of its
    predictor gradient to the live rows, kept as the mask _reached and,
    sorted, as live. While they are fewer than _SPARSE_SHARE of the
    predictor's, step gathers p, m and v of them block by block, runs the
    elementwise sequence on the block and scatters the three back. Once
    they reach that share, both become None for good, since the live rows
    only grow: every step then walks the predictor in blocks of whole rows.
    The other tensors are walked in slices of _STEP_BLOCK elements. A
    predictor block's gradient is RowGrad.take's block. Each gradient
    block is multiplied by the clip scale before use. Intermediates go
    into block-sized buffers, so no step allocates a tensor-sized array,
    and since elementwise operations round the same in any block or row
    order, the result is bit for bit that of the whole-tensor expressions
    on the dense gradient. Training thus holds three predictor-sized
    arrays: the parameters and the two moments."""

    def __init__(self, params: ModelParams, learning_rate):
        self.lr = learning_rate
        self.t = 0
        # np.zeros leaves zeroing to the first touch of each page; zeros_like
        # writes every entry up front
        shapes = {name: params.tensor(name).shape for name in TENSOR_NAMES}
        self.m = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.v = {name: np.zeros(shape) for name, shape in shapes.items()}
        rows, width = shapes["predictor"]
        # one block each for gathering p, m and v, and one for denominators
        self._block = np.empty((4, max(_STEP_BLOCK, width)))
        self._tmp = np.empty(_STEP_BLOCK)  # intermediates
        self._reached = np.zeros(rows, dtype=bool)  # None once steps walk every row
        self.live = None

    def step(self, params: ModelParams, grads: dict, scale: float = 1.0) -> None:
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for name in TENSOR_NAMES:
            p, g, m, v = params.tensor(name), grads[name], self.m[name], self.v[name]
            if name != "predictor":
                self._update(*map(_flat, (p, g, m, v)), scale, bc1, bc2)
                g.fill(0.0)
                continue
            if self._reached is not None:
                self._reached[g.rows] = True
                self.live = np.flatnonzero(self._reached)
                if len(self.live) >= _SPARSE_SHARE * len(self._reached):
                    self._reached = self.live = None
            live = range(len(p)) if self.live is None else self.live
            per_block = max(1, _STEP_BLOCK // p.shape[1])  # rows, one if wider
            for lo in range(0, len(live), per_block):
                idx = live[lo:lo + per_block]
                if self.live is None:  # consecutive rows: views
                    pmv = [arr[idx[0]:idx[-1] + 1] for arr in (p, m, v)]
                else:
                    pmv = [_gather(arr, idx, buf) for arr, buf in zip((p, m, v), self._block)]
                gs = g.take(idx)[0]
                self._update(*(b.reshape(-1) for b in (pmv[0], gs, pmv[1], pmv[2])),
                             scale, bc1, bc2)
                if self.live is not None:
                    for arr, block in zip((p, m, v), pmv):
                        arr[idx] = block
            g.start(g.rows[:0])

    def _update(self, p, g, m, v, scale, bc1, bc2) -> None:
        """The elementwise Adam sequence on 1-D p, g, m and v, in place,
        slice by slice; g is only read."""
        for lo in range(0, g.size, _STEP_BLOCK):
            block = slice(lo, lo + _STEP_BLOCK)
            ps, gs, ms, vs = p[block], g[block], m[block], v[block]
            tmp, den = self._tmp[:gs.size], self._block[3, :gs.size]
            if scale != 1.0:
                gs = np.multiply(gs, scale, out=den)
            # v = b2 * v + ((1 - b2) * g) * g
            vs *= _BETA2
            np.multiply(1.0 - _BETA2, gs, out=tmp)
            tmp *= gs
            vs += tmp
            # m = b1 * m + (1 - b1) * g
            ms *= _BETA1
            np.multiply(1.0 - _BETA1, gs, out=tmp)
            ms += tmp
            # g is spent: den holds the denominator sqrt(v / bc2) + eps
            np.divide(vs, bc2, out=den)
            np.sqrt(den, out=den)
            den += _EPS
            # p -= (lr * (m / bc1)) / denominator
            np.divide(ms, bc1, out=tmp)
            tmp *= self.lr
            tmp /= den
            ps -= tmp


def _flat(arr: np.ndarray) -> np.ndarray:
    """A 1-D view of a C-contiguous array; writes through it land in arr."""
    if not arr.flags.c_contiguous:
        raise ValueError("optimizer tensors must be C-contiguous")
    return arr.reshape(-1)


def clip_gradients(grads: dict, max_norm: float) -> tuple[float, float]:
    """The joint Euclidean norm of all gradients, arrays or a RowGrad, and
    the factor that brings it to at most max_norm: max_norm / norm when
    0 < max_norm < norm, else 1. The gradients are left as they are;
    Adam.step applies the factor. Each gradient's squares are summed by
    _square_sum; the sums add in dict order."""
    total = np.sqrt(sum(_square_sum(g) for g in grads.values()))
    scale = max_norm / total if 0 < max_norm < total else 1.0
    return total, scale


def _square_sum(g) -> float:
    """float(np.sum(d * d)) bit for bit, where d is the array g or the
    dense form of the RowGrad g. numpy sums pairwise, splitting a node of
    n > 128 elements after n // 2 rounded down to a multiple of 8; so does
    this recursion, down to leaves of _STEP_BLOCK or fewer, squared into a
    block buffer and summed by np.add.reduce. A RowGrad leaf is the
    gradient's rows it spans, which RowGrad.take writes into its +0.0
    scratch, squared in place: 0.0 * 0.0 leaves the zeros as they are. A
    leaf that spans none of the rows holds only +0.0 entries and adds +0.0
    unread, which changes no sum of non-negative squares."""
    if isinstance(g, RowGrad):
        size, width = g.shape[0] * g.shape[1], g.shape[1]

        def leaf(lo, n):
            first = lo // width
            block, held = g.take(range(first, (lo + n - 1) // width + 1))
            if not held:
                return 0.0
            part = block.reshape(-1)[lo - first * width:][:n]
            return float(np.add.reduce(np.multiply(part, part, out=part)))
    else:
        flat = _flat(g)
        size = flat.size
        buf = np.empty(min(size, _STEP_BLOCK))

        def leaf(lo, n):
            part = flat[lo:lo + n]
            return float(np.add.reduce(np.multiply(part, part, out=buf[:n])))

    return _tree_sum(leaf, 0, size)


def _tree_sum(leaf, lo: int, n: int) -> float:
    """The sum of leaf(lo, n) over numpy's pairwise split of n elements
    from lo, down to leaves of _STEP_BLOCK or fewer."""
    if n > _STEP_BLOCK:
        half = n // 2 - n // 2 % 8
        return _tree_sum(leaf, lo, half) + _tree_sum(leaf, lo + half, n - half)
    return leaf(lo, n)


# ---------------------------------------------------------------------------
# fitting


def mean_state_norm(vecs: np.ndarray, seen: np.ndarray) -> float:
    """The mean Euclidean norm of the state rows whose entity the window has
    seen."""
    return float(np.linalg.norm(vecs[seen], axis=1).mean())


def fit(features: PreparedFeatures, config: TrainConfig, log_path=None,
        trajectory_sink: list | None = None):
    """Train the model on the prepared features of a training window.

    Returns (params, store) where store holds the dynamic states after the
    final epoch, ready for ranking at later times. If log_path is given, a
    CSV with one row per epoch (epoch, mean_loss, seconds, grad_norm_max,
    clipped_batches, optimizer_seconds, stepped_rows, student_state_norm,
    thread_state_norm, events_per_s) is written: the largest pre-clip
    gradient norm of the epoch's batches, how many of them were clipped,
    the part of the epoch's seconds spent clipping and in Adam steps, the
    mean number of predictor rows those steps walked, the mean norm at
    epoch end of the states of the students and of the threads the window
    has seen, and the epoch's events per second.
    If trajectory_sink is a list, rows (kind, entity, timestamp, *embedding)
    are appended for every state write of the final epoch. Sweeps over
    seeds, flags, embedding sizes or optimizer settings can share one
    features object; a config whose FEATURE_SETTINGS differ from theirs
    raises a ValueError naming the field. The returned store starts from a
    copy of their trackers, and fit never writes into the features.
    """
    for name in FEATURE_SETTINGS:
        if getattr(config, name) != getattr(features, name):
            raise ValueError("the features were prepared with %s=%r, the config has %r"
                             % (name, getattr(features, name), getattr(config, name)))
    feats, trackers = features.events, features.trackers
    num_students, num_threads = len(trackers.student_last_t), len(trackers.thread_last_t)
    num_weeks, num_topics = features.week_topics.shape
    rng = np.random.default_rng(config.seed)
    params = ModelParams.init(
        rng, config.embed_dim, num_topics, num_weeks, num_students, num_threads,
        init_std=config.init_std, post_decay=config.post_decay,
        reply_decay=config.reply_decay, lambda_student=config.lambda_student,
        lambda_thread=config.lambda_thread, activation=config.activation,
    )
    batches = [feats.take(batch)
               for batch in t_batch(feats.student.tolist(), feats.thread.tolist())]
    flags = config.flags
    opt = Adam(params, config.learning_rate)
    # every batch starts its predictor rows afresh; every step consumes the set
    grads = params.zero_grads(max(len(predictor_rows(batch, params)) for batch in batches))

    log_rows = []
    # the trackers already hold the whole window and training never reads
    # them; only the embeddings restart from zero every epoch
    store = copy.deepcopy(trackers)
    for epoch in range(config.epochs):
        start = time.perf_counter()
        store.student_vecs = np.zeros((num_students, config.embed_dim))
        store.thread_vecs = np.zeros((num_threads, config.embed_dim))
        collect = trajectory_sink is not None and epoch == config.epochs - 1
        epoch_loss, grad_norm_max, clipped, optimizer_seconds = 0.0, 0.0, 0, 0.0
        stepped_rows = 0
        for b, batch in enumerate(batches):
            losses, u_new, p_new = batch_grads(batch, store, params, grads, flags)
            finite = np.isfinite(losses)
            if not finite.all():
                raise TrainingDiverged("non-finite loss at epoch %d batch %d post %d"
                                       % (epoch, b, batch.post_id[np.argmin(finite)]))
            for loss in losses.tolist():  # a running sum in event order, not pairwise
                epoch_loss += loss

            # state writes land after the whole batch so every event read
            # the values from the previous batch
            store.student_vecs[batch.student] = u_new
            store.thread_vecs[batch.thread] = p_new
            if collect:
                for s, c, t, u, p in zip(batch.student.tolist(), batch.thread.tolist(),
                                         batch.timestamp.tolist(), u_new, p_new):
                    trajectory_sink += [("student", s, t, *u), ("thread", c, t, *p)]

            step_start = time.perf_counter()
            total, scale = clip_gradients(grads, config.clip_norm)
            if not np.isfinite(total):
                raise TrainingDiverged("non-finite gradient at epoch %d batch %d" % (epoch, b))
            grad_norm_max = max(grad_norm_max, total)
            clipped += 0 < config.clip_norm < total
            opt.step(params, grads, scale)
            optimizer_seconds += time.perf_counter() - step_start
            stepped_rows += len(params.predictor) if opt.live is None else len(opt.live)
        seconds = time.perf_counter() - start
        log_rows.append([epoch, repr(epoch_loss / len(feats)), "%.6f" % seconds,
                         repr(float(grad_norm_max)), clipped, "%.6f" % optimizer_seconds,
                         repr(stepped_rows / len(batches)),
                         repr(mean_state_norm(store.student_vecs, store.student_seen)),
                         repr(mean_state_norm(store.thread_vecs, store.thread_seen)),
                         "%.1f" % (len(feats) / seconds)])

    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss", "seconds", "grad_norm_max", "clipped_batches",
                             "optimizer_seconds", "stepped_rows", "student_state_norm",
                             "thread_state_norm", "events_per_s"])
            writer.writerows(log_rows)
    return params, store


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(params: ModelParams, batch: EventFeatures, store: DynamicStateStore,
                   flags: AblationFlags = AblationFlags(),
                   eps: float = 1e-5, analytic: dict | None = None) -> float:
    """Compare the analytic gradients of a t-batch's summed loss against
    central finite differences of that sum over every entry of every
    tensor. Returns the maximum relative error. Pass analytic, a dict of
    dense gradients (model.dense_grads), to check an externally supplied
    gradient set instead of the model's own."""
    if analytic is None:
        grads = params.zero_grads()
        batch_grads(batch, store, params, grads, flags)
        analytic = dense_grads(grads)
    worst = 0.0
    for name in TENSOR_NAMES:
        tensor = params.tensor(name)
        grad = analytic[name]
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = batch_grads(batch, store, params, None, flags)[0].sum()
            flat[i] = orig - eps
            down = batch_grads(batch, store, params, None, flags)[0].sum()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst
