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
Gradients are derived by hand in event_grads and validated against central
finite differences; see train.gradient_check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import expit

from .corpus import ReplyHistory
from .text import TopicDistribution

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

    NAMES = (
        "no_dynamic_student",
        "no_dynamic_thread",
        "no_student_projection",
        "no_thread_projection",
        "no_text_features",
    )

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "AblationFlags":
        unknown = [n for n in names if n not in cls.NAMES]
        if unknown:
            raise ValueError("unknown ablation flag(s): %s" % ", ".join(unknown))
        return cls(**{n: True for n in names})

    def active(self) -> list[str]:
        return [n for n in self.NAMES if getattr(self, n)]


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
        d, k = self.embed_dim, self.num_topics
        s, m, n = self.num_weeks, self.num_students, self.num_threads
        expected = {
            "student_update": (2 * d + k + 1, d),
            "thread_update": (2 * d + k + 1, d),
            "time_context": (d, 1),
            "week_context": (d, s),
            "predictor": (m + n + 2 * d, n + d),
            "predictor_bias": (n + d,),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError("%s has shape %s, expected %s" % (name, arr.shape, shape))
            setattr(self, name, arr)
        if self.post_decay < 0 or self.reply_decay < 0:
            raise ValueError("decay rates must be nonnegative")
        if self.lambda_student < 0 or self.lambda_thread < 0:
            raise ValueError("smoothness weights must be nonnegative")
        if self.activation not in ("sigmoid", "tanh"):
            raise ValueError("activation must be 'sigmoid' or 'tanh'")

    @classmethod
    def init(cls, rng: np.random.Generator, embed_dim, num_topics, num_weeks,
             num_students, num_threads, init_std=0.1, post_decay=0.5,
             reply_decay=0.001, lambda_student=1.0, lambda_thread=1.0,
             activation="sigmoid") -> "ModelParams":
        """Gaussian-initialized weights with zero bias."""
        d, k, s = embed_dim, num_topics, num_weeks
        m, n = num_students, num_threads
        if min(d, k, s, m, n) < 1:
            raise ValueError("all dimensions must be >= 1")
        def g(*shape):
            return rng.normal(0.0, init_std, size=shape)
        return cls(
            student_update=g(2 * d + k + 1, d),
            thread_update=g(2 * d + k + 1, d),
            time_context=g(d, 1),
            week_context=g(d, s),
            predictor=g(m + n + 2 * d, n + d),
            predictor_bias=np.zeros(n + d),
            post_decay=post_decay,
            reply_decay=reply_decay,
            lambda_student=lambda_student,
            lambda_thread=lambda_thread,
            embed_dim=d, num_topics=k, num_weeks=s,
            num_students=m, num_threads=n,
            activation=activation,
        )

    def tensor(self, name: str) -> np.ndarray:
        if name not in TENSOR_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def copy(self) -> "ModelParams":
        return replace(self, **{name: self.tensor(name).copy() for name in TENSOR_NAMES})

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(self.tensor(name)) for name in TENSOR_NAMES}


def _act(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        return expit(x)
    return np.tanh(x)


def _act_deriv(out: np.ndarray, kind: str) -> np.ndarray:
    # derivative expressed through the activation's own output
    if kind == "sigmoid":
        return out * (1.0 - out)
    return 1.0 - out * out


def _norm_grad(vec: np.ndarray) -> tuple[float, np.ndarray]:
    """Euclidean norm and its subgradient, zero at the origin."""
    n = float(np.linalg.norm(vec))
    if n == 0.0:
        return 0.0, np.zeros_like(vec)
    return n, vec / n


# ---------------------------------------------------------------------------
# forward operations


def _update_kernel(u_vec, p_vec, theta_vec, delta_student, delta_thread, params):
    """Joint recurrent update at a post: both new embeddings are computed
    from the pre-update pair, the post's topic vector, and the two
    normalized elapsed times. Returns (student_embedding, thread_embedding)
    and the two cell inputs."""
    d, k = params.embed_dim, params.num_topics
    if u_vec.shape != (d,) or p_vec.shape != (d,):
        raise ValueError("embedding dimension mismatch")
    if theta_vec.shape != (k,):
        raise ValueError("topic vector has length %d, expected %d" % (len(theta_vec), k))
    if delta_student < 0 or delta_thread < 0:
        raise ValueError("elapsed times must be nonnegative")
    xu = np.concatenate([u_vec, p_vec, theta_vec, [delta_student]])
    xp = np.concatenate([p_vec, u_vec, theta_vec, [delta_thread]])
    u_new = _act(xu @ params.student_update, params.activation)
    p_new = _act(xp @ params.thread_update, params.activation)
    return u_new, p_new, xu, xp


def assign_course_topic(theta: TopicDistribution, week_topics: Sequence[TopicDistribution]) -> int:
    """Index of the course week whose topic profile is closest to theta in
    Euclidean distance; ties resolve to the smallest index."""
    if not week_topics:
        raise ValueError("no course week topics given")
    probs = np.asarray(theta.probs)
    best = 0
    best_dist = None
    for i, wk in enumerate(week_topics):
        dist = float(np.linalg.norm(probs - wk.probs))
        if best_dist is None or dist < best_dist:
            best, best_dist = i, dist
    return best


def _project_student_kernel(u_vec, delta, week, params):
    """Drift the student's embedding forward by elapsed time delta within
    course week `week`: an elementwise gain of one plus a time term plus a
    week term multiplies the stored embedding. Returns (projection, gain)."""
    if delta < 0:
        raise ValueError("elapsed time must be nonnegative")
    if not (0 <= week < params.num_weeks):
        raise ValueError("week %d outside schedule of %d weeks" % (week, params.num_weeks))
    gain = 1.0 + params.time_context[:, 0] * delta + params.week_context[:, week]
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


def project_thread(student_vec: np.ndarray, thread_vec: np.ndarray,
                   excitation_value: float) -> np.ndarray:
    """Convex combination pulling the thread embedding toward the student:
    weight excitation/(1+excitation) on the student, the rest on the thread.
    With zero excitation the thread embedding is returned unchanged."""
    if excitation_value < 0:
        raise ValueError("excitation must be nonnegative")
    student_vec = np.asarray(student_vec, dtype=np.float64)
    thread_vec = np.asarray(thread_vec, dtype=np.float64)
    if student_vec.shape != thread_vec.shape:
        raise ValueError("embedding dimension mismatch")
    if excitation_value == 0.0:
        return thread_vec.copy()
    w = excitation_value / (1.0 + excitation_value)
    return w * student_vec + (1.0 - w) * thread_vec


def _predict_kernel(u_hat, student, p_dyn, last_thread, params):
    """Prediction head: first num_threads entries score the thread
    identities, the last embed_dim entries estimate the projected embedding
    of the next thread. p_dyn and last_thread describe the thread of the
    student's previous post; pass zeros and None for a student with no
    history, which contributes nothing from those blocks. One-hot blocks are
    applied by row selection, never as dense vectors."""
    d, m = params.embed_dim, params.num_students
    if not (0 <= student < m):
        raise ValueError("student %d outside %d students" % (student, m))
    if last_thread is not None and not (0 <= last_thread < params.num_threads):
        raise ValueError("thread %d outside %d threads" % (last_thread, params.num_threads))
    W = params.predictor
    q = u_hat @ W[:d]
    q = q + W[d + student]
    q = q + p_dyn @ W[d + m : 2 * d + m]
    if last_thread is not None:
        q = q + W[2 * d + m + last_thread]
    return q + params.predictor_bias


# ---------------------------------------------------------------------------
# per-event training graph


@dataclass
class EventFeatures:
    """Per-event quantities that depend only on the data, computed once
    before the epoch loop. Elapsed times are already normalized; the
    student's elapsed time is also the projection horizon."""
    student: int
    thread: int
    last_thread: int | None          # thread of the student's previous post
    theta: np.ndarray                # topic distribution of the current post
    delta_student: float
    delta_thread: float
    week: int                        # course week context for the projection
    excitation_value: float
    timestamp: float
    post_id: int


def _student_context(store: DynamicStateStore, student: int, t: float, course,
                     week_topics: Sequence[TopicDistribution]):
    """(normalized time since the student's last post, clamped at zero; the
    course week that post's topics point to, else the week of t; that
    post's thread, else None), read from the store's trackers."""
    delta = max(t - store.student_last_t[student], 0.0) / store.time_scale
    if store.student_seen[student]:
        week = assign_course_topic(TopicDistribution(store.student_last_theta[student]),
                                   week_topics)
    else:
        week = course.week_of(t)
    last_thread = int(store.student_last_thread[student])
    return delta, week, None if last_thread < 0 else last_thread


def _predict_from_store(store: DynamicStateStore, student: int, delta: float, week: int,
                        last_thread: int | None, params: ModelParams, flags: AblationFlags):
    """Project the student's stored state by (delta, week) and predict from
    it and the previous thread's state (zeros for none): (q, u, u_hat, last)."""
    u_vec = store.student_vecs[student]
    if flags.no_student_projection:
        u_hat = u_vec
    else:
        u_hat = _project_student_kernel(u_vec, delta, week, params)[0]
    if last_thread is None:
        last_vec = np.zeros(params.embed_dim)
    else:
        last_vec = store.thread_vecs[last_thread]
    return _predict_kernel(u_hat, student, last_vec, last_thread, params), u_vec, u_hat, last_vec


def _event_forward(ev: EventFeatures, store: DynamicStateStore,
                   params: ModelParams, flags: AblationFlags):
    # states entering the batch are read in place: the backward pass treats
    # them as constants and fit writes the new ones after the whole batch
    q, u_vec, u_hat, last_vec = _predict_from_store(
        store, ev.student, ev.delta_student, ev.week, ev.last_thread, params, flags)
    p_vec = store.thread_vecs[ev.thread]

    if flags.no_thread_projection:
        p_hat = p_vec
    else:
        p_hat = project_thread(u_vec, p_vec, ev.excitation_value)

    n = params.num_threads
    target = np.zeros(n + params.embed_dim)
    target[ev.thread] = 1.0
    target[n:] = p_hat

    theta_eff = np.zeros(params.num_topics) if flags.no_text_features else ev.theta
    u_new, p_new, xu, xp = _update_kernel(
        u_vec, p_vec, theta_eff, ev.delta_student, ev.delta_thread, params,
    )
    if flags.no_dynamic_student:
        u_new = u_vec
    if flags.no_dynamic_thread:
        p_new = p_vec

    residual = q - target
    pred_term, _ = _norm_grad(residual)
    du = u_new - u_vec
    dp = p_new - p_vec
    reg_u = params.lambda_student * float(np.linalg.norm(du))
    reg_p = params.lambda_thread * float(np.linalg.norm(dp))
    total = pred_term + reg_u + reg_p
    return total, (u_vec, last_vec, u_hat, residual, u_new, p_new, xu, xp, du, dp)


def event_loss(ev: EventFeatures, store: DynamicStateStore, params: ModelParams,
               flags: AblationFlags = AblationFlags()) -> float:
    return _event_forward(ev, store, params, flags)[0]


def event_grads(ev: EventFeatures, store: DynamicStateStore, params: ModelParams,
                grads: dict[str, np.ndarray], flags: AblationFlags = AblationFlags()):
    """Add one event's parameter gradients into grads, a dict the caller
    owns, and return (loss, (student_embedding, thread_embedding)) with the
    new state pair the event writes back.

    The backward pass is hand derived. State vectors entering the event are
    constants, so the prediction term reaches only the projection context
    and the prediction head, while the smoothness terms reach the two
    update matrices."""
    total, inter = _event_forward(ev, store, params, flags)
    u_vec, last_vec, u_hat, residual, u_new, p_new, xu, xp, du, dp = inter
    d, m = params.embed_dim, params.num_students

    _, g_q = _norm_grad(residual)
    grads["predictor_bias"] += g_q
    Wg = grads["predictor"]
    Wg[:d] += np.outer(u_hat, g_q)
    Wg[d + ev.student] += g_q
    Wg[d + m : 2 * d + m] += np.outer(last_vec, g_q)
    if ev.last_thread is not None:
        Wg[2 * d + m + ev.last_thread] += g_q

    if not flags.no_student_projection:
        g_uhat = params.predictor[:d] @ g_q
        g_gain = g_uhat * u_vec
        grads["time_context"][:, 0] += g_gain * ev.delta_student
        grads["week_context"][:, ev.week] += g_gain

    if not flags.no_dynamic_student:
        norm_du, g_du = _norm_grad(du)
        if norm_du > 0.0:
            g_pre = params.lambda_student * g_du * _act_deriv(u_new, params.activation)
            grads["student_update"] += np.outer(xu, g_pre)

    if not flags.no_dynamic_thread:
        norm_dp, g_dp = _norm_grad(dp)
        if norm_dp > 0.0:
            g_pre = params.lambda_thread * g_dp * _act_deriv(p_new, params.activation)
            grads["thread_update"] += np.outer(xp, g_pre)

    return total, (u_new, p_new)


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

_STORE_ARRAYS = (
    ("student_vecs", np.float64),
    ("thread_vecs", np.float64),
    ("student_last_t", np.float64),
    ("thread_last_t", np.float64),
    ("student_seen", np.bool_),
    ("thread_seen", np.bool_),
    ("student_last_theta", np.float64),
    ("student_last_thread", np.int64),
)


def save_checkpoint(path, params: ModelParams, store: DynamicStateStore,
                    week_topics: Sequence[TopicDistribution], meta: dict) -> None:
    """Write a self-contained checkpoint: parameters, final replay state,
    course week topics, and a JSON metadata block. The layout is a magic
    line, a JSON header describing the arrays, then raw little-endian array
    bytes in header order. Writing is byte-deterministic."""
    arrays: list[tuple[str, np.ndarray]] = []
    for name in TENSOR_NAMES:
        arrays.append(("params." + name, params.tensor(name)))
    for name, dtype in _STORE_ARRAYS:
        arrays.append(("store." + name, np.asarray(getattr(store, name), dtype=dtype)))
    arrays.append(("week_topics", np.stack([t.probs for t in week_topics])))

    header = {
        "arrays": [
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
            for name, arr in arrays
        ],
        "scalars": {
            "embed_dim": params.embed_dim,
            "num_topics": params.num_topics,
            "num_weeks": params.num_weeks,
            "num_students": params.num_students,
            "num_threads": params.num_threads,
            "post_decay": params.post_decay,
            "reply_decay": params.reply_decay,
            "lambda_student": params.lambda_student,
            "lambda_thread": params.lambda_thread,
            "activation": params.activation,
            "time_scale": store.time_scale,
        },
        "meta": meta,
    }
    with open(path, "wb") as fh:
        fh.write((_CKPT_MAGIC + "\n").encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint. Returns (params, store, week_topics, meta)."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode().strip()
        if magic != _CKPT_MAGIC:
            raise ValueError("%s is not a checkpoint file" % path)
        header = json.loads(fh.readline().decode())
        data = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            buf = fh.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise ValueError("checkpoint truncated at array %s" % spec["name"])
            data[spec["name"]] = np.frombuffer(buf, dtype=dtype).reshape(spec["shape"]).copy()
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")

    sc = header["scalars"]
    params = ModelParams(
        *(data["params." + name] for name in TENSOR_NAMES),
        post_decay=sc["post_decay"], reply_decay=sc["reply_decay"],
        lambda_student=sc["lambda_student"], lambda_thread=sc["lambda_thread"],
        embed_dim=sc["embed_dim"], num_topics=sc["num_topics"],
        num_weeks=sc["num_weeks"], num_students=sc["num_students"],
        num_threads=sc["num_threads"], activation=sc["activation"],
    )
    store = DynamicStateStore(sc["num_students"], sc["num_threads"],
                              sc["embed_dim"], sc["num_topics"], sc["time_scale"])
    for name, dtype in _STORE_ARRAYS:
        setattr(store, name, data["store." + name].astype(dtype))
    week_topics = [TopicDistribution(row) for row in data["week_topics"]]
    return params, store, week_topics, header["meta"]
