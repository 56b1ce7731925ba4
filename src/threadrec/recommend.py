"""Ranking, evaluation protocols, and reference baselines.

A protocol is a list of queries, each a student, a time and the threads
they post on next: once per test-window student at the split, for every
thread they post on in the window, or before every held-out post, for its
thread. One evaluate scores either list by mean average precision at a
cutoff. The model ranker projects the student's trained state to the query
time; candidates are the threads with a post before the ranker's time, and
excitation weights come from the posts before the query time.

A candidate's target is its one-hot identity next to its projected state,
so the distance from the prediction q has the closed form
sqrt(|q[:N]|^2 - 2 q[c] + 1 + |q[N:] - p_c|^2) and no target vector is
built. Only threads the student has posted on can have non-zero
excitation; every other candidate keeps its stored state.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Collection, Sequence

import numpy as np

from .corpus import Dataset, ThreadEventIndex, write_json
from .model import (
    AblationFlags,
    DynamicStateStore,
    ModelParams,
    _predict_from_store,
    _student_context,
    excitation,
    project_thread,
)


class EvaluationError(ValueError):
    pass


@dataclass
class RankedRecommendation:
    """Candidate threads in increasing distance order, ties broken by the
    smaller thread id."""
    thread_ids: list[int]
    distances: list[float]


def _rank_by_distance(q: np.ndarray, ids: np.ndarray, p_hat: np.ndarray) -> RankedRecommendation:
    """Order the candidate threads ids by the Euclidean distance from the
    prediction q to their targets [one-hot(c), p_hat[i]], where row i of
    p_hat is the projected state of thread ids[i]."""
    n = q.shape[0] - p_hat.shape[1]
    head = q[:n] @ q[:n]
    diff = q[n:] - p_hat
    sq = head - 2.0 * q[ids] + 1.0 + np.einsum("ij,ij->i", diff, diff)
    # the sum of squares is nonnegative; rounding must not make it negative
    dists = np.sqrt(np.maximum(sq, 0.0))
    order = np.lexsort((ids, dists))
    return RankedRecommendation(ids[order].tolist(), dists[order].tolist())


def average_precision(ranked: Sequence[int], relevant: set, n_cutoff: int) -> float:
    """Average precision at a cutoff: precision at each hit position within
    the top n_cutoff, summed and divided by min(|relevant|, n_cutoff).
    Returns 0 for an empty relevant set."""
    if n_cutoff < 1:
        raise ValueError("n_cutoff must be >= 1")
    top = list(ranked[:n_cutoff])
    if len(set(top)) != len(top):
        raise ValueError("ranking contains duplicate thread ids")
    if not relevant:
        return 0.0
    hits = 0
    score = 0.0
    for pos, tid in enumerate(top, start=1):
        if tid in relevant:
            hits += 1
            score += hits / pos
    return score / min(len(relevant), n_cutoff)


@dataclass
class EvalReport:
    """A protocol's score: MAP@n_cutoff over the evaluated students, its
    bootstrap 95% interval over them (bootstrap_interval), the share of them
    with non-zero AP and every student's AP."""
    method: str
    n_cutoff: int
    users_evaluated: int
    map_at_n: float
    map_ci95: list[float]
    nonzero_ap_share: float
    per_user_ap: dict[int, float] = field(default_factory=dict)


def evaluate(rank_fn: Callable[[int, float], object],
             queries: Sequence[tuple[int, float, set[int]]], n_cutoff: int = 5,
             method: str = "model") -> EvalReport:
    """Score a ranking function on a protocol's queries.

    Each query is (student, time, relevant thread ids), and rank_fn(student,
    time) returns a RankedRecommendation or a plain ordered list of thread
    ids. A student's AP is the mean of their query APs in query order, and
    MAP the mean over students in id order. No query at all is an error."""
    if not queries:
        raise EvaluationError("test window contains no students to evaluate")
    scores: dict[int, list[float]] = {}
    for student, t, relevant in queries:
        ranking = rank_fn(student, t)
        if isinstance(ranking, RankedRecommendation):
            ranking = ranking.thread_ids
        scores.setdefault(student, []).append(average_precision(ranking, relevant, n_cutoff))
    per_user = {u: mean(v) for u, v in sorted(scores.items())}
    aps = list(per_user.values())
    return EvalReport(method, n_cutoff, len(aps), mean(aps), bootstrap_interval(aps),
                      sum(ap > 0.0 for ap in aps) / len(aps), per_user)


def mean(values: Collection[float]) -> float:
    """The mean of values summed left to right. sum() compensates rounding
    from Python 3.12 on, so its last bits would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def percentiles(values: np.ndarray, percents) -> list[float]:
    """np.percentile(values, percents).tolist(), by its default linear rule
    and numpy's _lerp, from a sorted copy: percent p lies at position
    (n - 1) * (p / 100) and is interpolated up from the value below it when
    its weight is under 0.5, and down from the value above otherwise.
    np.percentile would import numpy.ma, about 11 ms of a command."""
    ordered = np.sort(values).tolist()
    last = len(ordered) - 1
    out = []
    for p in percents:
        x = last * (p / 100)
        if x < last:
            lo = int(x)  # x >= 0, so this is its floor
            hi, t = lo + 1, x - lo
        else:  # numpy takes both values from index -1 and the weight from there
            lo = hi = last
            t = x + 1
        a, b = ordered[lo], ordered[hi]
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


# resamples of a bootstrap interval, drawn from one fixed stream so that
# the same values always give the same interval; with 2,001 of them the
# 2.5th and 97.5th percentiles are the 51st smallest and largest means
BOOTSTRAP_DRAWS = 2001


def splitmix64(count: int) -> np.ndarray:
    """The first count outputs of SplitMix64 (Steele, Lea and Flood, 2014)
    from seed 0, as uint64. It is vectorized numpy arithmetic, which wraps
    modulo 2**64, so drawing needs no numpy.random, whose import alone costs
    a command about 16 ms."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bootstrap_interval(values: Sequence[float]) -> list[float]:
    """The percentile bootstrap 95% interval of the mean of values: the 2.5th
    and 97.5th percentiles of the means of BOOTSTRAP_DRAWS resamples with
    replacement, whose positions are the splitmix64 stream modulo
    len(values), in one (draws, len(values)) array. Two equally long value
    lists resample the same positions, so the interval of their
    per-position differences is a paired one."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    draws = (splitmix64(BOOTSTRAP_DRAWS * n) % np.uint64(n)).astype(np.intp)
    return percentiles(values[draws.reshape(BOOTSTRAP_DRAWS, n)].mean(axis=1), (2.5, 97.5))


def split_queries(test: Dataset, t: float) -> list[tuple[int, float, set[int]]]:
    """The split protocol: one query per test-window student at time t,
    holding every thread they post on in the window, in student id order."""
    relevant: dict[int, set[int]] = {}
    for ev in test.events:
        relevant.setdefault(ev.student_id, set()).add(ev.thread_id)
    return [(student, t, relevant[student]) for student in sorted(relevant)]


def event_queries(test: Dataset) -> list[tuple[int, float, set[int]]]:
    """The per-event protocol: one query per test-window post at its own
    time, holding its thread."""
    return [(ev.student_id, ev.timestamp, {ev.thread_id}) for ev in test.events]


# ---------------------------------------------------------------------------
# model ranker


def build_model_ranker(params: ModelParams, store: DynamicStateStore, week_topics: np.ndarray,
                       posts: Dataset, t_query: float, flags: AblationFlags = AblationFlags()
                       ) -> Callable[..., RankedRecommendation]:
    """Ranking function rank(student, t=t_query) over the threads with a
    post before t_query. It projects the trained states, read from the store
    at call time, to t, and reads the interaction histories from the posts
    before t. week_topics is the (weeks, topics) array of course week
    topics. A time before t_query is refused: the trained states already
    hold the posts up to t_query."""
    ids = np.array(sorted({ev.thread_id for ev in posts.events if ev.timestamp < t_query}),
                   dtype=np.int64)
    if len(ids) == 0:
        raise EvaluationError("no thread has a post before the query time %r" % t_query)
    row = {int(c): i for i, c in enumerate(ids)}
    index = ThreadEventIndex(posts)

    def rank(student: int, t: float = t_query) -> RankedRecommendation:
        if not (0 <= student < params.num_students):
            raise EvaluationError("unknown student %d" % student)
        if not t >= t_query:
            raise EvaluationError("query time %r is before the ranker's time %r" % (t, t_query))
        context = _student_context(store, student, t, posts.course, week_topics)
        q, u_vec = _predict_from_store(store, student, *context, params, flags)[:2]
        p_hat = store.thread_vecs[ids]
        if not flags.no_thread_projection:
            for c in index.student_threads.get(student, ()):
                i = row.get(c)
                if i is None:
                    continue
                z = excitation(index.history(student, c, t), t,
                               params.post_decay, params.reply_decay, store.time_scale)
                p_hat[i] = project_thread(u_vec, p_hat[i], z)
        return _rank_by_distance(q, ids, p_hat)

    return rank


# ---------------------------------------------------------------------------
# baselines


def baseline_pop(train: Dataset) -> list[int]:
    """All threads by descending training post count; ties and never-posted
    threads fall back to ascending thread id."""
    counts = np.zeros(train.num_threads, dtype=np.int64)
    for ev in train.events:
        counts[ev.thread_id] += 1
    return sorted(range(train.num_threads), key=lambda t: (-counts[t], t))


def baseline_rec(train: Dataset) -> list[int]:
    """Threads by recency of their latest training post, most recent first.
    Threads never posted on come last, in id order."""
    last: dict[int, float] = {}
    for ev in train.events:
        last[ev.thread_id] = ev.timestamp
    active = sorted(last, key=lambda t: (-last[t], t))
    inactive = [t for t in range(train.num_threads) if t not in last]
    return active + inactive


def baseline_user_rec(train: Dataset, student: int) -> list[int]:
    """The student's own threads ordered by the recency of their own last
    post on each, followed by the remaining threads in baseline_rec order."""
    own: dict[int, float] = {}
    for ev in train.events:
        if ev.student_id == student:
            own[ev.thread_id] = ev.timestamp
    head = sorted(own, key=lambda t: (-own[t], t))
    tail = [t for t in baseline_rec(train) if t not in own]
    return head + tail


# ---------------------------------------------------------------------------
# report files


def write_report_json(report: EvalReport, path) -> None:
    """The report's fields as a JSON artifact (corpus.write_json), students
    keyed by their dense index."""
    write_json({**asdict(report),
                "per_user_ap": {str(u): ap for u, ap in report.per_user_ap.items()}}, path)
