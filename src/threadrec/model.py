"""Embedding model core.

Students and threads carry dynamic embeddings that evolve together: each
post updates both through a recurrent cell driven by the post's topic
distribution and the elapsed times. Between posts a student's embedding is
projected forward by a multiplicative time-and-week context, and a thread's
embedding is projected toward a student by an excitation weight built from
recent activity on the thread. The prediction head maps the projected
student, the pair of one-hot identities, and the dynamic embedding of the
student's previous thread to a target that concatenates the next thread's
one-hot with its projected embedding.

Training minimizes, per event, the unsquared Euclidean distance between
prediction and target plus two smoothness penalties on the embedding jumps.
batch_grads runs the forward pass and the hand-derived backward pass over a
whole t-batch at once; train.gradient_check validates it against central
finite differences.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .corpus import ReplyHistory, number_fault
from .text import _check_simplex

# Elements per block of the training step's walks over a gradient: the
# blocks of the Adam step and the leaves of clipping's pairwise sum, 256
# KiB each, stay in cache across the passes over them.
_STEP_BLOCK = 1 << 15

TENSOR_NAMES = (
    "student_update",
    "thread_update",
    "time_context",
    "week_context",
    "predictor",
    "predictor_bias",
)


@dataclass(frozen=True)
class AblationFlags:
    no_dynamic_student: bool = False
    no_dynamic_thread: bool = False
    no_student_projection: bool = False
    no_thread_projection: bool = False
    no_text_features: bool = False

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "AblationFlags":
        unknown = [n for n in names if n not in cls.NAMES]
        if unknown:
            raise ValueError("unknown ablation flag(s): %s" % ", ".join(unknown))
        return cls(**{n: True for n in names})

    def active(self) -> list[str]:
        return [n for n in self.NAMES if getattr(self, n)]


# the flag names in field order, the one list every reader of the flags takes
AblationFlags.NAMES = tuple(f.name for f in fields(AblationFlags))


def check_hyperparameters(h) -> None:
    """Refuse the settings of a TrainConfig or ModelParams h that no model takes."""
    if h.post_decay < 0 or h.reply_decay < 0:
        raise ValueError("decay rates must be nonnegative")
    if h.lambda_student < 0 or h.lambda_thread < 0:
        raise ValueError("smoothness weights must be nonnegative")
    if h.activation not in ("sigmoid", "tanh"):
        raise ValueError("activation must be 'sigmoid' or 'tanh'")


_DIMS = ("embed_dim", "num_topics", "num_weeks", "num_students", "num_threads")
# what a checkpoint header records of ModelParams besides the tensors
_SCALARS = _DIMS + ("post_decay", "reply_decay", "lambda_student", "lambda_thread",
                    "activation")


def _tensor_shapes(d, k, s, m, n) -> dict[str, tuple[int, ...]]:
    return {
        "student_update": (2 * d + k + 1, d),
        "thread_update": (2 * d + k + 1, d),
        "time_context": (d, 1),
        "week_context": (d, s),
        "predictor": (m + n + 2 * d, n + d),
        "predictor_bias": (n + d,),
    }


@dataclass
class ModelParams:
    """All trainable tensors plus the fixed hyperparameters they were
    trained with.

    Shapes, with D = embed_dim, K = num_topics, S = num_weeks,
    M = num_students, N = num_threads:

      student_update, thread_update : (2D + K + 1, D)
      time_context                  : (D, 1)
      week_context                  : (D, S)
      predictor                     : (M + N + 2D, N + D)
      predictor_bias                : (N + D,)
    """
    student_update: np.ndarray
    thread_update: np.ndarray
    time_context: np.ndarray
    week_context: np.ndarray
    predictor: np.ndarray
    predictor_bias: np.ndarray
    post_decay: float
    reply_decay: float
    lambda_student: float
    lambda_thread: float
    embed_dim: int
    num_topics: int
    num_weeks: int
    num_students: int
    num_threads: int
    activation: str = "sigmoid"

    def __post_init__(self):
        expected = _tensor_shapes(self.embed_dim, self.num_topics, self.num_weeks,
                                  self.num_students, self.num_threads)
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError("%s has shape %s, expected %s" % (name, arr.shape, shape))
            setattr(self, name, arr)
        check_hyperparameters(self)

    @classmethod
    def init(cls, rng: np.random.Generator, embed_dim, num_topics, num_weeks,
             num_students, num_threads, init_std=0.1, post_decay=0.5,
             reply_decay=0.001, lambda_student=1.0, lambda_thread=1.0,
             activation="sigmoid") -> "ModelParams":
        """Gaussian-initialized weights, drawn in TENSOR_NAMES order, with
        zero bias."""
        dims = dict(zip(_DIMS, (embed_dim, num_topics, num_weeks, num_students, num_threads)))
        if min(dims.values()) < 1:
            raise ValueError("all dimensions must be >= 1")
        shapes = _tensor_shapes(*dims.values())
        weights = {name: rng.normal(0.0, init_std, size=shape)
                   for name, shape in shapes.items() if name != "predictor_bias"}
        return cls(**weights, predictor_bias=np.zeros(shapes["predictor_bias"]),
                   post_decay=post_decay, reply_decay=reply_decay,
                   lambda_student=lambda_student, lambda_thread=lambda_thread,
                   activation=activation, **dims)

    def tensor(self, name: str) -> np.ndarray:
        if name not in TENSOR_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def copy(self) -> "ModelParams":
        return replace(self, **{name: self.tensor(name).copy() for name in TENSOR_NAMES})

    def zero_grads(self) -> dict:
        """A gradient set, which batch_grads writes afresh for every batch:
        a zero array per tensor but the predictor, whose gradient is a
        RowGrad."""
        return {name: RowGrad(self.predictor.shape) if name == "predictor"
                else np.zeros(self.tensor(name).shape) for name in TENSOR_NAMES}


class RowGrad:
    """The predictor gradient of one t-batch: the sorted distinct rows it
    reaches and a (len(rows), width) block of their values, in a buffer
    that grows to the most rows a batch has reached. Every other row of
    the dense gradient, of the given shape, is +0.0."""

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self._buf = np.empty((0, shape[1]))
        # take's blocks: _STEP_BLOCK elements span that many entries and
        # parts of two more rows
        self._scratch = np.zeros(_STEP_BLOCK + 2 * shape[1])
        self._written = self._scratch, []
        self.start(np.empty(0, dtype=np.intp))

    def start(self, rows: np.ndarray) -> None:
        """Make rows, sorted and distinct, the gradient's rows, all +0.0."""
        if len(rows) > len(self._buf):
            # np.empty: the fill below touches only the rows a batch reaches
            self._buf = np.empty((len(rows), self.shape[1]))
        self.rows = rows
        self.values = self._buf[:len(rows)]
        self.values.fill(0.0)

    def take(self, idx: range) -> tuple[np.ndarray, int]:
        """The dense gradient's rows idx, a range, as a (len(idx), width)
        view of the scratch buffer, +0.0 but in the gradient's rows; and
        how many of those it holds. The caller may overwrite those rows:
        the next take first writes +0.0 over them."""
        block, at = self._written
        block[at] = 0.0
        width = self.shape[1]
        block = self._scratch[:len(idx) * width].reshape(len(idx), width)
        lo, hi = self.rows.searchsorted((idx.start, idx.stop))
        at = self.rows[lo:hi] - idx.start
        block[at] = self.values[lo:hi]
        self._written = block, at
        return block, len(at)


def dense_grads(grads: dict) -> dict[str, np.ndarray]:
    """A gradient set with every tensor's gradient as an array: a copy of
    the predictor's RowGrad in its dense form, the others as they are."""
    g = grads["predictor"]
    predictor = np.zeros(g.shape)
    predictor[g.rows] = g.values
    return {**grads, "predictor": predictor}


def _sigmoid_checked(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # C's exp gives inf there, and the sigmoid 0
        return 0.0


def _act(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        # 1/(1+exp(-x)) with the C library's exp, which is scipy's expit bit
        # for bit; numpy's vectorized exp rounds some values differently.
        # Below about -709.78, where exp(-v) overflows and math.exp raises,
        # every value takes the checked path.
        try:
            e = np.fromiter(map(math.exp, (-x).ravel().tolist()), np.float64, x.size)
        except OverflowError:
            return np.array([_sigmoid_checked(v) for v in x.ravel().tolist()]).reshape(x.shape)
        return (1.0 / (1.0 + e)).reshape(x.shape)
    return np.tanh(x)


def _act_deriv(out: np.ndarray, kind: str) -> np.ndarray:
    # derivative expressed through the activation's own output
    if kind == "sigmoid":
        return out * (1.0 - out)
    return 1.0 - out * out


# Every kernel below takes one event or a stack of rows, one per event. Row
# products and norms run as one BLAS call per row, so each row rounds as the
# same event would alone; a 2-D gemm would sum in another order.


def _rows_dot(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x @ W for one vector or every row of a stack."""
    return np.matmul(x[..., None, :], W)[..., 0, :]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, rounded as np.linalg.norm of that row."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _has_last(last_thread):
    """Zeroing mask of the previous-thread terms where last_thread is -1:
    a bool for one event (cheaper than an array) or a column for rows."""
    has = last_thread >= 0
    return has[:, None] if isinstance(has, np.ndarray) else has


# ---------------------------------------------------------------------------
# forward operations


def _update_kernel(u_rows, p_rows, theta_rows, delta_student, delta_thread, params):
    """Joint recurrent update at a t-batch of posts, one row per post: both
    new embeddings are computed from the pre-update pair, the post's topic
    vector, and the two normalized elapsed times. Returns
    (student_embeddings, thread_embeddings) and the two cell inputs."""
    d, k = params.embed_dim, params.num_topics
    if u_rows.shape[1:] != (d,) or p_rows.shape[1:] != (d,):
        raise ValueError("embedding dimension mismatch")
    if theta_rows.shape[1:] != (k,):
        raise ValueError("topic vectors have length %d, expected %d" % (theta_rows.shape[-1], k))
    if np.any(delta_student < 0) or np.any(delta_thread < 0):
        raise ValueError("elapsed times must be nonnegative")
    xu = np.concatenate([u_rows, p_rows, theta_rows, delta_student[:, None]], axis=1)
    xp = np.concatenate([p_rows, u_rows, theta_rows, delta_thread[:, None]], axis=1)
    u_new = _act(_rows_dot(xu, params.student_update), params.activation)
    p_new = _act(_rows_dot(xp, params.thread_update), params.activation)
    return u_new, p_new, xu, xp


def assign_course_topic(probs: np.ndarray, week_matrix: np.ndarray) -> int:
    """Index of the course week whose topic profile, a row of the (weeks,
    topics) week_matrix, is closest to the topic vector probs in Euclidean
    distance; ties resolve to the smallest index."""
    if len(week_matrix) == 0:
        raise ValueError("no course week topics given")
    return int(np.argmin(_row_norms(week_matrix - probs)))


def _project_student_kernel(u_vec, delta, week, params):
    """Drift the student's embedding forward by elapsed time delta within
    course week `week`: an elementwise gain of one plus a time term plus a
    week term multiplies the stored embedding. For rows, delta is a column
    and week an index array. Returns (projection, gain)."""
    gain = 1.0 + params.time_context[:, 0] * delta + params.week_context.T[week]
    return gain * u_vec, gain


def excitation(history: ReplyHistory, t_query: float, post_decay: float,
               reply_decay: float, time_scale: float = 1.0) -> float:
    """Excitation weight of a thread toward a student at t_query.

    Zero when the student never posted on the thread. Otherwise each later
    post by another student contributes exp(-post_decay * gap) and each
    explicit reply to the student contributes exp(-reply_decay * gap), where
    the gap is measured from the student's own last post and divided by
    time_scale."""
    if history.last_own_post is None:
        return 0.0
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    t_up = history.last_own_post
    total = 0.0
    for times, rate in ((history.post_times, post_decay), (history.reply_times, reply_decay)):
        for t in times:
            gap = t - t_up
            if gap < 0:
                raise ValueError("history event at %r precedes the student's last post at %r" % (t, t_up))
            if t >= t_query:
                raise ValueError("history event at %r is not before the query time %r" % (t, t_query))
            total += float(np.exp(-rate * gap / time_scale))
    return total


def project_thread(student_vec: np.ndarray, thread_vec: np.ndarray, excitation_value):
    """Convex combination pulling the thread embedding toward the student:
    weight excitation/(1+excitation) on the student, the rest on the thread.
    With zero excitation the thread embedding comes back unchanged. For
    rows, the excitation is a column."""
    negative = excitation_value < 0  # np.any costs more than one projection
    if negative.any() if isinstance(negative, np.ndarray) else negative:
        raise ValueError("excitation must be nonnegative")
    w = excitation_value / (1.0 + excitation_value)
    return w * np.asarray(student_vec) + (1.0 - w) * np.asarray(thread_vec)


def _predict_kernel(u_hat, student, p_dyn, last_thread, params):
    """Prediction head: first num_threads entries score the thread
    identities, the last embed_dim entries estimate the projected embedding
    of the next thread. p_dyn and last_thread describe the thread of the
    student's previous post; pass zeros and -1 for a student with no
    history, which contributes nothing from those blocks. One-hot blocks are
    applied by row selection, never as dense vectors. Indices are not
    range-checked here: load_checkpoint checks those a file brings in."""
    d, m = params.embed_dim, params.num_students
    W = params.predictor
    q = _rows_dot(u_hat, W[:d])  # a new array, so the sums below go in place
    q += W[d + student]
    q += _rows_dot(p_dyn, W[d + m : 2 * d + m])
    q += W[2 * d + m + last_thread] * _has_last(last_thread)
    q += params.predictor_bias
    return q


# ---------------------------------------------------------------------------
# t-batch training graph


@dataclass
class EventFeatures:
    """Per-event quantities that depend only on the data, computed once
    before the epoch loop: one array per field, one entry per event.
    Elapsed times are already normalized; the student's elapsed time is also
    the projection horizon."""
    student: np.ndarray
    thread: np.ndarray
    last_thread: np.ndarray          # thread of the student's previous post, -1 for none
    theta: np.ndarray                # (events, topics): topic distribution of each post
    delta_student: np.ndarray
    delta_thread: np.ndarray
    week: np.ndarray                 # course week context for the projection
    excitation_value: np.ndarray
    timestamp: np.ndarray
    post_id: np.ndarray

    def __len__(self) -> int:
        return len(self.student)

    def take(self, idx) -> "EventFeatures":
        """The events at positions idx, in that order, such as one t-batch."""
        return EventFeatures(*(getattr(self, f.name)[idx] for f in fields(self)))


def _student_context(store: DynamicStateStore, student: int, t: float, course,
                     week_topics: np.ndarray):
    """(normalized time since the student's last post, clamped at zero; the
    course week that post's topics point to, else the week of t; that
    post's thread, else -1), read from the store's trackers. week_topics
    is the (weeks, topics) array of course week topics."""
    delta = max(t - store.student_last_t[student], 0.0) / store.time_scale
    if store.student_seen[student]:
        week = assign_course_topic(store.student_last_theta[student], week_topics)
    else:
        week = course.week_of(t)
    return delta, week, int(store.student_last_thread[student])


def _predict_from_store(store: DynamicStateStore, student, delta, week, last_thread,
                        params: ModelParams, flags: AblationFlags):
    """Project the stored student state by (delta, week) and predict from
    it and the previous thread's state (zeros for none): (q, u, u_hat, last).
    Takes one student or index arrays, with delta as a column."""
    u_vec = store.student_vecs[student]
    if flags.no_student_projection:
        u_hat = u_vec
    else:
        u_hat = _project_student_kernel(u_vec, delta, week, params)[0]
    last_vec = store.thread_vecs[last_thread] * _has_last(last_thread)
    return _predict_kernel(u_hat, student, last_vec, last_thread, params), u_vec, u_hat, last_vec


def _unit_rows(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Every row divided by its norm: the norm's subgradient, zero at the
    origin."""
    return np.divide(x, norms[:, None], out=np.zeros_like(x), where=norms[:, None] > 0.0)


def predictor_rows(batch: EventFeatures, params: ModelParams) -> np.ndarray:
    """The predictor rows a t-batch's gradient reaches, sorted and
    distinct, as batch_grads writes them: the projected-student block 0:d,
    the rows d + student of the batch's students, the previous-thread-state
    block d+m : 2d+m and the rows 2d + m + last_thread of its previous
    threads. Every other row of the batch's predictor gradient is zero."""
    d, m = params.embed_dim, params.num_students
    rows = np.sort(np.concatenate([np.arange(d), d + batch.student, np.arange(d + m, 2 * d + m),
                                   2 * d + m + batch.last_thread[batch.last_thread >= 0]]))
    # np.unique would hash: slower on a few hundred rows, and its table
    # stays resident
    return rows[np.concatenate(([True], rows[1:] != rows[:-1]))]


def batch_grads(batch: EventFeatures, store: DynamicStateStore, params: ModelParams,
                grads: dict | None, flags: AblationFlags = AblationFlags(),
                rows: np.ndarray | None = None):
    """Write the gradients of a t-batch's summed loss into grads, a gradient
    set the caller owns (ModelParams.zero_grads), and return (losses,
    student_rows, thread_rows): every event's loss and the new state pair
    it writes back. Every gradient, the predictor's RowGrad at the rows
    predictor_rows names, starts afresh at +0.0 and sums the batch's terms
    as the dense gradient would, whatever grads held before. A caller that
    steps the same batch again may pass those rows once computed. With
    grads None the backward pass is skipped.

    No student or thread appears twice in a t-batch, so its events run as
    the rows of one pass. The backward pass is hand derived. States
    entering the batch are constants, so the prediction term reaches only
    the projection context and the prediction head, while the smoothness
    terms reach the two update matrices. Every row rounds as its event
    would alone, and each gradient entry sums the events in batch order,
    so the result is what adding the events one at a time gives."""
    d, m, n = params.embed_dim, params.num_students, params.num_threads
    delta = batch.delta_student[:, None]
    q, u_vec, u_hat, last_vec = _predict_from_store(
        store, batch.student, delta, batch.week, batch.last_thread, params, flags)
    p_vec = store.thread_vecs[batch.thread]
    if flags.no_thread_projection:
        p_hat = p_vec
    else:
        p_hat = project_thread(u_vec, p_vec, batch.excitation_value[:, None])

    theta = np.zeros_like(batch.theta) if flags.no_text_features else batch.theta
    u_new, p_new, xu, xp = _update_kernel(
        u_vec, p_vec, theta, batch.delta_student, batch.delta_thread, params)
    if flags.no_dynamic_student:
        u_new = u_vec
    if flags.no_dynamic_thread:
        p_new = p_vec

    # the target is the thread's one-hot next to its projected state
    residual = q
    residual[np.arange(len(batch)), batch.thread] -= 1.0
    residual[:, n:] -= p_hat
    du = u_new - u_vec
    dp = p_new - p_vec
    norm_q, norm_u, norm_p = _row_norms(residual), _row_norms(du), _row_norms(dp)
    losses = norm_q + params.lambda_student * norm_u + params.lambda_thread * norm_p
    if grads is None:
        return losses, u_new, p_new

    for g in (grads[name] for name in TENSOR_NAMES if name != "predictor"):
        g.fill(0.0)
    g_q = _unit_rows(residual, norm_q)
    grads["predictor_bias"] += g_q.sum(axis=0)
    Wg = grads["predictor"]
    Wg.start(predictor_rows(batch, params) if rows is None else rows)
    rows, Wv = Wg.rows, Wg.values
    # one (events, n + d) product at a time: the summed outer products of
    # the two embedding blocks, without an (events, d, n + d) array; rows
    # 0:d come first, rows d+m : 2d+m follow one another from prev and the
    # previous threads' rows, distinct, fill the rest
    prev = np.searchsorted(rows, d + m)
    for j in range(d):
        Wv[j] += (u_hat[:, j, None] * g_q).sum(axis=0)
        Wv[prev + j] += (last_vec[:, j, None] * g_q).sum(axis=0)
    Wv[np.searchsorted(rows, d + batch.student)] += g_q
    # previous threads and weeks may repeat within a batch; np.add.at sums
    # each one's rows in batch order, not pairwise as sum(axis=0) would
    has_last = batch.last_thread >= 0
    at = rows[prev + d:].searchsorted(2 * d + m + batch.last_thread[has_last])
    np.add.at(Wv[prev + d:], at, g_q[has_last])

    if not flags.no_student_projection:
        g_uhat = np.matmul(params.predictor[:d], g_q[:, :, None])[:, :, 0]
        g_gain = g_uhat * u_vec
        np.add.at(grads["time_context"].T, np.zeros(len(batch), dtype=np.intp), g_gain * delta)
        np.add.at(grads["week_context"].T, batch.week, g_gain)

    # each smoothness term lam * |new - old| reaches its update cell through
    # the rows that moved; a frozen side moves no row
    for name, lam, jump, norms, new, x in (
            ("student_update", params.lambda_student, du, norm_u, u_new, xu),
            ("thread_update", params.lambda_thread, dp, norm_p, p_new, xp)):
        moved = norms > 0.0
        g_jump = _unit_rows(jump[moved], norms[moved])
        g_pre = lam * g_jump * _act_deriv(new[moved], params.activation)
        grads[name] += (x[moved, :, None] * g_pre[:, None, :]).sum(axis=0)
    return losses, u_new, p_new


# ---------------------------------------------------------------------------
# replay state


class DynamicStateStore:
    """Dense dynamic state for every student and thread during replay, plus
    six trackers that hold the context needed to project a student: the
    last post time and seen flag of every student and thread, and the topic
    and thread of every student's last post."""

    def __init__(self, num_students, num_threads, embed_dim, num_topics, time_scale=1.0):
        self.student_vecs = np.zeros((num_students, embed_dim))
        self.thread_vecs = np.zeros((num_threads, embed_dim))
        self.student_last_t = np.zeros(num_students)
        self.thread_last_t = np.zeros(num_threads)
        self.student_seen = np.zeros(num_students, dtype=bool)
        self.thread_seen = np.zeros(num_threads, dtype=bool)
        self.student_last_theta = np.zeros((num_students, num_topics))
        self.student_last_thread = np.full(num_students, -1, dtype=np.int64)
        self.time_scale = float(time_scale)

    def advance(self, student: int, thread: int, t: float, theta: np.ndarray) -> None:
        """Move the trackers, not the embeddings, past one post."""
        self.student_last_t[student] = t
        self.student_seen[student] = True
        self.thread_last_t[thread] = t
        self.thread_seen[thread] = True
        self.student_last_theta[student] = theta
        self.student_last_thread[student] = thread


# ---------------------------------------------------------------------------
# checkpoint container

_CKPT_MAGIC = "threadrec checkpoint v1"

# every store array with its dtype and its shape in header scalars
_STORE_ARRAYS = (
    ("student_vecs", np.float64, ("num_students", "embed_dim")),
    ("thread_vecs", np.float64, ("num_threads", "embed_dim")),
    ("student_last_t", np.float64, ("num_students",)),
    ("thread_last_t", np.float64, ("num_threads",)),
    ("student_seen", np.bool_, ("num_students",)),
    ("thread_seen", np.bool_, ("num_threads",)),
    ("student_last_theta", np.float64, ("num_students", "num_topics")),
    ("student_last_thread", np.int64, ("num_students",)),
)


def _checkpoint_layout(scalars: dict) -> list[tuple[str, str, list[int]]]:
    """(name, dtype, shape) of every array save_checkpoint writes for these
    header scalars, in file order."""
    if not all(isinstance(scalars.get(k), int) and scalars[k] >= 1 for k in _DIMS):
        raise ValueError("checkpoint dimensions %s must be positive integers" % ", ".join(_DIMS))
    f8 = np.dtype(np.float64).str
    layout = [("params." + name, f8, list(shape))
              for name, shape in _tensor_shapes(*(scalars[k] for k in _DIMS)).items()]
    layout += [("store." + name, np.dtype(dtype).str, [scalars[k] for k in dims])
               for name, dtype, dims in _STORE_ARRAYS]
    layout.append(("week_topics", f8, [scalars["num_weeks"], scalars["num_topics"]]))
    return layout


def save_checkpoint(path, params: ModelParams, store: DynamicStateStore,
                    week_topics: np.ndarray, meta: dict) -> None:
    """Write a self-contained checkpoint: parameters, final replay state,
    the (weeks, topics) course week topics, and a JSON metadata block. The
    layout is a magic line, a JSON header describing the arrays, then raw
    little-endian array bytes in header order. Writing is byte-deterministic."""
    arrays = [("params." + name, params.tensor(name)) for name in TENSOR_NAMES]
    arrays += [("store." + name, np.asarray(getattr(store, name), dtype=dtype))
               for name, dtype, _ in _STORE_ARRAYS]
    arrays.append(("week_topics", np.asarray(week_topics, dtype=np.float64)))

    header = {
        "arrays": [{"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
                   for name, arr in arrays],
        "scalars": {**{key: getattr(params, key) for key in _SCALARS},
                    "time_scale": store.time_scale},
        "meta": meta,
    }
    with open(path, "wb") as fh:
        fh.write((_CKPT_MAGIC + "\n").encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for _, arr in arrays:
            # the array's own little-endian contiguous buffer, with no bytes copy
            fh.write(memoryview(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))))


def _check_header(header) -> None:
    """Refuse a header that is not an object holding an object of scalars
    with every key save_checkpoint writes, its rates and time scale finite
    numbers, a list of array objects and an object of meta."""
    if not isinstance(header, dict):
        raise ValueError("checkpoint header must be an object")
    for key in ("scalars", "meta"):
        if not isinstance(header.get(key), dict):
            raise ValueError("checkpoint header %s must be an object" % key)
    missing = [key for key in _SCALARS + ("time_scale",) if key not in header["scalars"]]
    if missing:
        raise ValueError("checkpoint header scalars lack %s" % ", ".join(missing))
    for key in ("post_decay", "reply_decay", "lambda_student", "lambda_thread", "time_scale"):
        value = header["scalars"][key]
        if number_fault(value):
            raise ValueError("checkpoint %s must be a finite number, not %r" % (key, value))
    arrays = header.get("arrays")
    if not (isinstance(arrays, list) and all(isinstance(a, dict) for a in arrays)):
        raise ValueError("checkpoint header arrays must be a list of objects")


def load_checkpoint(path):
    """Inverse of save_checkpoint. Returns (params, store, week_topics, meta).
    The file is outside input: its header must have the shape save_checkpoint
    writes, its array layout must be the one save_checkpoint writes for its
    header scalars, its previous threads must name threads or -1, its week
    topics lie on the simplex and its time scale must be positive; a
    ValueError names the first that is not."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != _CKPT_MAGIC.encode():
            raise ValueError("%s is not a checkpoint file" % path)
        try:
            header = json.loads(fh.readline().decode())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ValueError("checkpoint %s: the header is not JSON: %s" % (path, exc)) from None
        _check_header(header)
        sc = header["scalars"]
        layout = _checkpoint_layout(sc)
        given = [(a.get("name"), a.get("dtype"), a.get("shape")) for a in header["arrays"]]
        for want, got in zip_longest(layout, given, fillvalue=(None,)):
            if want != got:
                raise ValueError("checkpoint array %s does not match its header scalars: "
                                 "expected %s, found %s" % (want[0] or got[0], want, got))
        data = {}
        for name, dtype, shape in layout:
            # read straight into the array's own buffer, with no bytes copy
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ValueError("checkpoint truncated at array %s" % name)
            data[name] = arr
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")

    last = data["store.student_last_thread"]
    if np.any((last < -1) | (last >= sc["num_threads"])):
        raise ValueError("checkpoint array store.student_last_thread names a thread "
                         "outside [-1, %d)" % sc["num_threads"])
    _check_simplex(data["week_topics"], "checkpoint array week_topics")
    if not sc["time_scale"] > 0:
        raise ValueError("checkpoint time_scale must be positive, got %r" % sc["time_scale"])
    params = ModelParams(*(data["params." + name] for name in TENSOR_NAMES),
                         **{key: sc[key] for key in _SCALARS})
    store = DynamicStateStore(sc["num_students"], sc["num_threads"],
                              sc["embed_dim"], sc["num_topics"], sc["time_scale"])
    for name, _, _ in _STORE_ARRAYS:
        setattr(store, name, data["store." + name])
    return params, store, data["week_topics"], header["meta"]
