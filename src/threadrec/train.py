"""Training: event batching, feature preparation, the optimization loop,
and the finite-difference gradient checker.

Events are grouped into t-batches: each event lands one batch after the
latest batch touching its student or its thread, so no batch repeats an
entity and replaying batches in order preserves every per-entity timeline.
model.batch_grads writes a batch's gradients in one pass, with the dynamic
states entering the batch treated as constants, into the one gradient set
of the fit, starting every gradient afresh. A batch reaches only the
predictor rows model.predictor_rows names, which fit computes once per
batch, so its predictor gradient is compact: those rows and a block of
their values (model.RowGrad), in a buffer that grows to the largest
batch's rows. A step is clip_gradients, then Adam.step, which applies the
gradients to the parameters; both only read the set. Clipping sums the
squares of the predictor gradient's rows only. Adam.step is lazy: it
moves the predictor only at the batch's rows, a block of rows at a time,
and the other tensors whole. Training holds three predictor-sized arrays
(parameters, two moments); the moments sit on mappings of their own
(_lazy_zeros), resident only in the 4 KB pages of the rows a step has
written. The features come from one replay of the window through a state
store's trackers, which training keeps; only the embeddings restart from
zero at every epoch.
"""
from __future__ import annotations

import copy
import csv
import math
import mmap
import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Dataset, EmptyDatasetError, ThreadEventIndex, check_finite_fields
from .model import (
    AblationFlags,
    DynamicStateStore,
    EventFeatures,
    ModelParams,
    RowGrad,
    TENSOR_NAMES,
    _student_context,
    batch_grads,
    check_hyperparameters,
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
        check_finite_fields(self)
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
        check_hyperparameters(self)
        if self.topic_infer_iters < 2:
            raise ValueError("topic_infer_iters must be >= 2")

    @property
    def flags(self) -> AblationFlags:
        return AblationFlags(**{name: getattr(self, name) for name in AblationFlags.NAMES})


def ablation_variant(config: TrainConfig, name: str) -> TrainConfig:
    """Copy of config with the named ablation flag switched on. 'full'
    means no flag. An unknown name is an error."""
    flags = AblationFlags.from_names([] if name == "full" else [name])  # validates
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
    elapsed time. week_topics holds a row of the model's topics per week,
    and vocab a word per column of the topic model."""
    if not train.events:
        raise EmptyDatasetError("cannot fit on an empty training window")
    if len(vocab) != lda.vocab_size:
        raise ValueError("the vocabulary has %d words, the topic model %d"
                         % (len(vocab), lda.vocab_size))
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


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# Elements per row block of an Adam step on the predictor. A paper-size
# t-batch reaches up to 936 rows of 1,333 entries, so the block bounds each
# of the step's temporaries at 256 KiB instead of about 10 MB.
_STEP_BLOCK = 1 << 15


def _lazy_zeros(shape) -> np.ndarray:
    """A C-contiguous, writable float64 array of zeros on an anonymous
    mapping, whose pages the kernel zeroes and makes resident on their
    first write, 4 KB at a time. np.zeros asks for 2 MB huge pages on
    arrays of 4 MB or more, so that one written entry makes a whole 2 MB
    resident; a mapping of its own is never so marked, and MADV_NOHUGEPAGE
    keeps it off huge pages where the host uses them everywhere. The
    array holds the mapping, which is unmapped when the array is freed."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count) * 8)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


class Adam:
    """Lazy Adam over every tensor of a ModelParams, as TensorFlow Addons'
    LazyAdam and torch.optim.SparseAdam: a step moves p, m and v of the
    predictor only at the rows of its compact gradient, the rows its
    t-batch reaches, and every entry of the other tensors. The step count,
    and so the bias correction, is global. A predictor row the batch does
    not reach keeps p, m and v as they are: its moments do not decay until
    a batch reaches it again. step reads the gradient set and writes into
    none of it.

    Each tensor runs the whole-tensor Adam expressions in place, on the
    gradient times the clip scale. The predictor runs them on blocks of the
    batch's rows: p, m and v of a block are taken by fancy index, updated
    and assigned back. Elementwise operations round the same in any block
    or row order, so the result is bit for bit that of the expressions
    applied to the batch's rows at once. The moments come from _lazy_zeros,
    so only the rows some batch has reached are resident in m and v."""

    def __init__(self, params: ModelParams, learning_rate):
        self.lr = learning_rate
        self.t = 0
        # zero pages the kernel makes resident as steps first write them
        shapes = {name: params.tensor(name).shape for name in TENSOR_NAMES}
        self.m = {name: _lazy_zeros(shape) for name, shape in shapes.items()}
        self.v = {name: _lazy_zeros(shape) for name, shape in shapes.items()}

    def step(self, params: ModelParams, grads: dict, scale: float = 1.0) -> None:
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for name in TENSOR_NAMES:
            p, g, m, v = params.tensor(name), grads[name], self.m[name], self.v[name]
            if name != "predictor":
                self._update(p, g, m, v, scale, bc1, bc2)
                continue
            per_block = max(1, _STEP_BLOCK // p.shape[1])  # rows, one if wider
            for lo in range(0, len(g.rows), per_block):
                idx = g.rows[lo:lo + per_block]
                pr, mr, vr = p[idx], m[idx], v[idx]
                self._update(pr, g.values[lo:lo + per_block], mr, vr, scale, bc1, bc2)
                p[idx], m[idx], v[idx] = pr, mr, vr

    def _update(self, p, g, m, v, scale, bc1, bc2) -> None:
        """The Adam expressions on p, m and v in place; g is only read."""
        g = g * scale
        v *= _BETA2
        v += ((1.0 - _BETA2) * g) * g
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        p -= (self.lr * (m / bc1)) / (np.sqrt(v / bc2) + _EPS)


def clip_gradients(grads: dict, max_norm: float) -> tuple[float, float]:
    """The joint Euclidean norm of all gradients, arrays or a RowGrad, and
    the factor that brings it to at most max_norm: max_norm / norm when
    0 < max_norm < norm, else 1. The gradients are left as they are;
    Adam.step applies the factor. Each gradient adds np.sum of the squares
    of the values it holds, a RowGrad those of its rows: every other entry
    of its dense form is +0.0. The sums add left to right in dict order,
    as sum() no longer does from Python 3.12 on."""
    total = 0.0
    for g in grads.values():
        held = g.values if isinstance(g, RowGrad) else g
        total += float(np.sum(held * held))
    total = np.sqrt(total)
    scale = max_norm / total if 0 < max_norm < total else 1.0
    return total, scale


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
    reached = [predictor_rows(batch, params) for batch in batches]  # the same every epoch
    flags = config.flags
    opt = Adam(params, config.learning_rate)
    grads = params.zero_grads()  # every batch writes the whole set afresh

    log_rows = []
    # the trackers already hold the whole window and training never reads
    # them; only the embeddings restart from zero every epoch
    store = copy.deepcopy(trackers)
    # a diverging fit overflows before its loss or gradient norm turns
    # non-finite, which raises TrainingDiverged below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            start = time.perf_counter()
            store.student_vecs = np.zeros((num_students, config.embed_dim))
            store.thread_vecs = np.zeros((num_threads, config.embed_dim))
            collect = trajectory_sink is not None and epoch == config.epochs - 1
            epoch_loss, grad_norm_max, clipped, optimizer_seconds = 0.0, 0.0, 0, 0.0
            stepped_rows = 0
            for b, (batch, rows) in enumerate(zip(batches, reached)):
                losses, u_new, p_new = batch_grads(batch, store, params, grads, flags, rows)
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
                stepped_rows += len(rows)
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
