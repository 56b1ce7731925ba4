"""Training: event batching, feature preparation, the optimization loop,
and the finite-difference gradient checker.

Events are grouped into t-batches: each event lands one batch after the
latest batch touching its student or its thread, so no batch repeats an
entity and replaying batches in order preserves every per-entity timeline.
model.batch_grads computes a batch's gradients in one pass with the dynamic
states entering the batch treated as constants, and Adam applies them. The
features come from one replay of the window through a state store's
trackers, which training keeps; only the embeddings restart from zero at
every epoch.
"""
from __future__ import annotations

import copy
import csv
import dataclasses
import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Dataset, EmptyDatasetError, ThreadEventIndex
from .model import (
    AblationFlags,
    DynamicStateStore,
    EventFeatures,
    ModelParams,
    TENSOR_NAMES,
    _student_context,
    batch_grads,
    excitation,
)
from .text import LdaModel, Vocabulary, lda_infer, term_frequency


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

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        """Build a config from string-valued keys, as read from a config
        file. Unknown keys are an error."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            f = fields.get(key)
            if f is None:
                raise ValueError("unknown config key %r" % key)
            if f.type in ("bool", bool):
                kwargs[key] = _parse_bool(key, value)
            elif f.type in ("int", int):
                kwargs[key] = int(value)
            elif f.type in ("float", float):
                kwargs[key] = float(value)
            else:
                kwargs[key] = str(value)
        return cls(**kwargs)


def _parse_bool(key, value):
    if isinstance(value, bool):
        return value
    v = str(value).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError("config key %r expects a boolean, got %r" % (key, value))


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


def t_batch(events) -> list[list[int]]:
    """Partition time-ordered events into batches of indices. An event goes
    one batch after the latest previous batch containing its student or its
    thread, so within a batch every student and thread appears at most
    once."""
    last_student: dict[int, int] = {}
    last_thread: dict[int, int] = {}
    batches: list[list[int]] = []
    for i, ev in enumerate(events):
        b = 1 + max(last_student.get(ev.student_id, -1), last_thread.get(ev.thread_id, -1))
        if b == len(batches):
            batches.append([])
        batches[b].append(i)
        last_student[ev.student_id] = b
        last_thread[ev.thread_id] = b
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


def prepare_event_features(train: Dataset, lda: LdaModel, vocab: Vocabulary, week_topics,
                           config: TrainConfig) -> tuple[EventFeatures, DynamicStateStore]:
    """Topic-infer every post and replay the window once through the
    trackers of a state store whose time scale is the training mean event
    gap. Before a post advances them, its record reads from them the
    student's context, as ranking does, and the thread's elapsed time.
    Returns (features, trackers), the trackers after the last post without
    embeddings; neither depends on the embedding size, seed or flags."""
    if not train.events:
        raise EmptyDatasetError("cannot fit on an empty training window")
    trackers = DynamicStateStore(train.num_students, train.num_threads, 0, lda.num_topics,
                                 mean_event_gap(train.events))
    index = ThreadEventIndex(train)
    iters = config.topic_infer_iters
    rows = []
    for ev in train.events:
        s, c, t = ev.student_id, ev.thread_id, ev.timestamp
        theta = lda_infer(lda, term_frequency(ev.tokens, vocab), iters=iters,
                          burn_in=iters // 2).probs
        delta, week, last_thread = _student_context(trackers, s, t, train.course, week_topics)
        exc = excitation(index.history(s, c, t), t, config.post_decay, config.reply_decay,
                         trackers.time_scale)
        rows.append((s, c, last_thread, theta, delta,
                     (t - trackers.thread_last_t[c]) / trackers.time_scale,
                     week, exc, t, ev.post_id))
        trackers.advance(s, c, t, theta)
    # one array per field, in EventFeatures field order
    return EventFeatures(*map(np.array, zip(*rows))), trackers


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    def __init__(self, params: ModelParams, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(params.tensor(name)) for name in TENSOR_NAMES}
        self.v = {name: np.zeros_like(params.tensor(name)) for name in TENSOR_NAMES}

    def step(self, params: ModelParams, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in TENSOR_NAMES:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params.tensor(name)[...] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their joint Euclidean norm is at most
    max_norm. Returns the pre-clip norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# fitting


def fit(train: Dataset, lda: LdaModel, vocab: Vocabulary, week_topics,
        config: TrainConfig, log_path=None, trajectory_sink: list | None = None,
        features: tuple[EventFeatures, DynamicStateStore] | None = None):
    """Train the model on a time-ordered event list.

    Returns (params, store) where store holds the dynamic states after the
    final epoch, ready for ranking at later times. If log_path is given, a
    CSV with one row per epoch (epoch, mean_loss, seconds, grad_norm_max,
    clipped_batches) is written: the largest pre-clip gradient norm of the
    epoch's batches and how many of them were clipped. If trajectory_sink
    is a list, rows (kind, entity, timestamp, *embedding) are appended for
    every state write of the final epoch. `features` lets sweeps over seeds,
    ablations, embedding sizes or optimizer settings reuse one
    prepare_event_features result, which is valid as long as the decay and
    topic-inference settings match. The returned store starts from a copy
    of its trackers, and fit never writes into the features.
    """
    if len(week_topics) != train.course.num_weeks:
        raise ValueError("week topic count does not match the schedule")

    rng = np.random.default_rng(config.seed)
    params = ModelParams.init(
        rng, config.embed_dim, lda.num_topics, train.course.num_weeks,
        train.num_students, train.num_threads,
        init_std=config.init_std, post_decay=config.post_decay,
        reply_decay=config.reply_decay, lambda_student=config.lambda_student,
        lambda_thread=config.lambda_thread, activation=config.activation,
    )
    if features is None:
        features = prepare_event_features(train, lda, vocab, week_topics, config)
    feats, trackers = features
    batches = [feats.take(batch) for batch in t_batch(train.events)]
    flags = config.flags
    opt = Adam(params, config.learning_rate)

    log_rows = []
    # the trackers already hold the whole window and training never reads
    # them; only the embeddings restart from zero every epoch
    store = copy.deepcopy(trackers)
    for epoch in range(config.epochs):
        start = time.perf_counter()
        store.student_vecs = np.zeros((train.num_students, config.embed_dim))
        store.thread_vecs = np.zeros((train.num_threads, config.embed_dim))
        collect = trajectory_sink is not None and epoch == config.epochs - 1
        epoch_loss, grad_norm_max, clipped = 0.0, 0.0, 0
        for b, batch in enumerate(batches):
            grads = params.zero_grads()
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

            total = clip_gradients(grads, config.clip_norm)
            if not np.isfinite(total):
                raise TrainingDiverged("non-finite gradient at epoch %d batch %d" % (epoch, b))
            grad_norm_max = max(grad_norm_max, total)
            clipped += 0 < config.clip_norm < total
            opt.step(params, grads)
        log_rows.append([epoch, repr(epoch_loss / len(feats)),
                         "%.6f" % (time.perf_counter() - start), repr(float(grad_norm_max)),
                         clipped])

    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss", "seconds", "grad_norm_max", "clipped_batches"])
            writer.writerows(log_rows)
    return params, store


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(params: ModelParams, batch: EventFeatures, store: DynamicStateStore,
                   flags: AblationFlags = AblationFlags(),
                   eps: float = 1e-5, analytic: dict | None = None) -> float:
    """Compare the analytic gradients of a t-batch's summed loss against
    central finite differences of that sum over every entry of every
    tensor. Returns the maximum relative error. Pass analytic to check an
    externally supplied gradient set instead of the model's own."""
    if analytic is None:
        analytic = params.zero_grads()
        batch_grads(batch, store, params, analytic, flags)
    spare = params.zero_grads()  # the loss is all the checker reads
    worst = 0.0
    for name in TENSOR_NAMES:
        tensor = params.tensor(name)
        grad = analytic[name]
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = batch_grads(batch, store, params, spare, flags)[0].sum()
            flat[i] = orig - eps
            down = batch_grads(batch, store, params, spare, flags)[0].sum()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            if err > worst:
                worst = err
    return worst
