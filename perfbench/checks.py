"""Output checks of the benchmark, computed apart from threadrec.

Nothing here imports the package. Counts come from `posts.jsonl` under the
format's rule that student and thread ids are made dense in order of sorted
external id; the checkpoint is read by its own small parser; distances and
average precision are recomputed from the method's formulas. Every check
returns a list of problems, empty when the output is right.
"""
from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CKPT_MAGIC = b"threadrec checkpoint v1\n"
DISTANCE_RTOL = 1e-9
AP_ATOL = 1e-12


@dataclass
class Course:
    """What the benchmark knows about a course and its split, from the
    input files alone. Ids are dense."""
    num_students: int
    num_threads: int
    week_starts: list[float]
    train_students: set = field(default_factory=set)
    train_threads: set = field(default_factory=set)
    own_threads: dict = field(default_factory=dict)    # student -> threads posted before train_end
    relevant: dict = field(default_factory=dict)       # test student -> threads posted in the test window
    train_posts: int = 0
    test_posts: int = 0
    posts: int = 0


def read_course(data_dir, train_end: float, test_end: float) -> Course:
    data_dir = Path(data_dir)
    rows = []
    with open(data_dir / "posts.jsonl") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                rows.append((int(r["student_id"]), int(r["thread_id"]), float(r["timestamp"])))
    students = {ext: i for i, ext in enumerate(sorted({r[0] for r in rows}))}
    threads = {ext: i for i, ext in enumerate(sorted({r[1] for r in rows}))}
    with open(data_dir / "schedule.json") as fh:
        week_starts = [float(w["start_ts"]) for w in json.load(fh)["weeks"]]
    course = Course(len(students), len(threads), week_starts, posts=len(rows))
    for s_ext, t_ext, ts in rows:
        s, t = students[s_ext], threads[t_ext]
        if ts < train_end:
            course.train_posts += 1
            course.train_students.add(s)
            course.train_threads.add(t)
            course.own_threads.setdefault(s, set()).add(t)
        elif ts < test_end:
            course.test_posts += 1
            course.relevant.setdefault(s, set()).add(t)
    return course


def read_checkpoint(path) -> tuple[dict, dict]:
    """(header, arrays) of a checkpoint: a magic line, a JSON header line,
    then raw little-endian arrays in header order."""
    with open(path, "rb") as fh:
        if fh.readline() != CKPT_MAGIC:
            raise ValueError("%s is not a threadrec checkpoint" % path)
        header = json.loads(fh.readline())
        arrays = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"], dtype=np.int64))
            buf = fh.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise ValueError("checkpoint truncated at %s" % spec["name"])
            arrays[spec["name"]] = np.frombuffer(buf, dtype=dtype).reshape(spec["shape"])
    return header, arrays


def read_training_log(path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["mean_loss"]) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# checks


def check_counts(course: Course, header: dict, reports: dict) -> list[str]:
    """Checkpoint sizes and the students each eval report scored."""
    problems = []
    sc = header["scalars"]
    if sc["num_students"] != course.num_students:
        problems.append("checkpoint has %d students, posts.jsonl %d"
                        % (sc["num_students"], course.num_students))
    if sc["num_threads"] != course.num_threads:
        problems.append("checkpoint has %d threads, posts.jsonl %d"
                        % (sc["num_threads"], course.num_threads))
    expected = {str(s) for s in course.relevant}
    for name, report in reports.items():
        if report["users_evaluated"] != len(expected):
            problems.append("%s report evaluated %d students, the test window has %d"
                            % (name, report["users_evaluated"], len(expected)))
        if set(report["per_user_ap"]) != expected:
            problems.append("%s report scores other students than the test window's" % name)
    return problems


def check_ranking(candidates: set, thread_ids: list, distances: list) -> list[str]:
    """A permutation of the candidates, by non-decreasing distance, ties
    to the smaller thread id."""
    if len(thread_ids) != len(candidates) or set(thread_ids) != candidates:
        return ["ranking is not a permutation of the %d threads with a training post"
                % len(candidates)]
    if len(distances) != len(thread_ids):
        return ["ranking has %d distances for %d threads" % (len(distances), len(thread_ids))]
    for i in range(1, len(thread_ids)):
        d0, d1 = distances[i - 1], distances[i]
        if d1 < d0 or (d1 == d0 and thread_ids[i] < thread_ids[i - 1]):
            return ["ranking out of order at position %d" % i]
    return []


def _week_of(week_starts: list[float], t: float) -> int:
    i = bisect.bisect_right(week_starts, t) - 1
    return min(max(i, 0), len(week_starts) - 1)


def query_vector(header: dict, arrays: dict, week_starts: list[float],
                 student: int, t_query: float) -> np.ndarray:
    """Prediction head output for one student at t_query: the stored state
    projected by the time and week gain, then the linear head over the
    projection, the student's one-hot, and the previous thread."""
    sc = header["scalars"]
    d, m = sc["embed_dim"], sc["num_students"]
    u = arrays["store.student_vecs"][student]
    seen = bool(arrays["store.student_seen"][student])
    last_t = float(arrays["store.student_last_t"][student]) if seen else 0.0
    delta = max(t_query - last_t, 0.0) / sc["time_scale"]
    if seen:
        theta = arrays["store.student_last_theta"][student]
        week = int(np.argmin(np.linalg.norm(arrays["week_topics"] - theta, axis=1)))
    else:
        week = _week_of(week_starts, t_query)
    gain = 1.0 + arrays["params.time_context"][:, 0] * delta \
        + arrays["params.week_context"][:, week]
    u_hat = gain * u
    W = arrays["params.predictor"]
    last = int(arrays["store.student_last_thread"][student])
    p_dyn = arrays["store.thread_vecs"][last] if last >= 0 else np.zeros(d)
    q = u_hat @ W[:d] + W[d + student] + p_dyn @ W[d + m:2 * d + m]
    if last >= 0:
        q = q + W[2 * d + m + last]
    return q + arrays["params.predictor_bias"]


def check_distances(course: Course, header: dict, arrays: dict, student: int,
                    t_query: float, thread_ids: list, distances: list) -> tuple[list[str], int, float]:
    """Recompute the served distance of every candidate the student never
    posted on, where excitation is zero and the target is the stored
    thread state: ||q[:N]||^2 - 2 q[c] + 1 + ||q[N:] - p_c||^2.
    Returns (problems, distances compared, largest relative error)."""
    n = header["scalars"]["num_threads"]
    q = query_vector(header, arrays, course.week_starts, student, t_query)
    head = float(q[:n] @ q[:n])
    own = course.own_threads.get(student, set())
    worst = 0.0
    compared = 0
    for c, served in zip(thread_ids, distances):
        if c in own:
            continue
        diff = q[n:] - arrays["store.thread_vecs"][c]
        expected = math.sqrt(head - 2.0 * q[c] + 1.0 + float(diff @ diff))
        rel = abs(served - expected) / max(abs(expected), 1e-300)
        worst = max(worst, rel)
        compared += 1
    if worst > DISTANCE_RTOL:
        return (["student %d: served distance differs from the closed form by %.3g relative"
                 % (student, worst)], compared, worst)
    return [], compared, worst


def average_precision(ranked: list, relevant: set, n: int) -> float:
    hits = 0
    score = 0.0
    for pos, t in enumerate(ranked[:n], start=1):
        if t in relevant:
            hits += 1
            score += hits / pos
    return score / min(len(relevant), n) if relevant else 0.0


def check_ap(course: Course, rankings: dict, report: dict) -> list[str]:
    """AP@n from the served rankings and the test posts equals the eval
    report's value for every test-window student."""
    n = report["n_cutoff"]
    problems = []
    for s, threads in sorted(course.relevant.items()):
        if str(s) not in rankings:
            problems.append("no ranking served for test student %d" % s)
            continue
        ap = average_precision(rankings[str(s)]["thread_ids"], threads, n)
        got = report["per_user_ap"].get(str(s))
        if got is None or abs(got - ap) > AP_ATOL:
            problems.append("student %d: report AP@%d %r, recomputed %r" % (s, n, got, ap))
    return problems


def check_embeddings(course: Course, header: dict, arrays: dict) -> list[str]:
    """Sigmoid states lie in the closed interval [0, 1]; the seen flags
    mark exactly the students and threads with a training post."""
    problems = []
    if header["scalars"]["activation"] == "sigmoid":
        for name in ("store.student_vecs", "store.thread_vecs"):
            vecs = arrays[name]
            if vecs.size and (vecs.min() < 0.0 or vecs.max() > 1.0):
                problems.append("%s outside [0, 1]: [%r, %r]"
                                % (name, float(vecs.min()), float(vecs.max())))
    for name, expected in (("store.student_seen", course.train_students),
                           ("store.thread_seen", course.train_threads)):
        if set(np.flatnonzero(arrays[name]).tolist()) != expected:
            problems.append("%s does not mark exactly the entities with a training post" % name)
    return problems


def check_loss(losses: list[float], must_fall: bool) -> list[str]:
    problems = []
    if not losses:
        return ["training log has no epochs"]
    if not all(math.isfinite(v) for v in losses):
        problems.append("training log has a non-finite epoch loss")
    elif must_fall and not losses[-1] < losses[0]:
        problems.append("last epoch loss %r is not below the first %r" % (losses[-1], losses[0]))
    return problems


def read_topic_outputs(data_dir, lda_dir) -> dict:
    """Planted topics, week syllabi, the LDA vocabulary and topic-word
    matrix, and the course-week topic vectors."""
    data_dir, lda_dir = Path(data_dir), Path(lda_dir)
    with open(data_dir / "ground_truth.json") as fh:
        gt = json.load(fh)
    with open(data_dir / "schedule.json") as fh:
        week_docs = [w["text"].split() for w in json.load(fh)["weeks"]]
    with open(lda_dir / "vocab.csv", newline="") as fh:
        vocab = [row["word"] for row in csv.DictReader(fh)]
    with open(lda_dir / "lda_model.csv") as fh:
        lines = fh.read().splitlines()[1:]
    lda = np.array([[float(v) for v in ln.split()] for ln in lines if ln.strip()])
    with open(lda_dir / "course_topics.csv") as fh:
        weeks = np.array([[float(v) for v in ln.split()] for ln in fh if ln.strip()])
    return {"topic_words": np.array(gt["topic_words"]), "vocab_words": gt["vocab_words"],
            "week_docs": week_docs, "vocab": vocab, "lda": lda, "weeks": weeks}


# Weeks allowed to miss in the topic check, of the nine on the acceptance
# course. With 60 sweeps, seeds 1 to 22 miss the likeliest topic in at most
# one week and the planted topic in at most two; a broken topic model or
# fold-in misses most weeks.
LIKELY_MISSES_ALLOWED = 2
PLANTED_MISSES_ALLOWED = 3


def topic_weeks(t: dict) -> tuple[list[int], list[int]]:
    """Weeks whose topic vector puts its largest mass on (a) the LDA topic
    under which the week's syllabus is most likely, and (b) the LDA topic
    closest in cosine to the planted topic the syllabus was drawn from (the
    planted topic under which it is most likely, from ground_truth.json)."""
    planted = t["topic_words"]
    planted_index = {w: i for i, w in enumerate(t["vocab_words"])}
    restricted = planted[:, [planted_index[w] for w in t["vocab"]]]
    index = {w: i for i, w in enumerate(t["vocab"])}
    lda = t["lda"]
    log_lda = np.log(lda)
    likely, recovered = [], []
    for w, doc in enumerate(t["week_docs"]):
        peak = int(np.argmax(t["weeks"][w]))
        if peak == int(np.argmax(log_lda[:, [index[tok] for tok in doc if tok in index]].sum(axis=1))):
            likely.append(w)
        with np.errstate(divide="ignore"):
            k = int(np.argmax(np.log(planted[:, [planted_index[tok] for tok in doc]]).sum(axis=1)))
        cos = lda @ restricted[k] / (np.linalg.norm(lda, axis=1) * np.linalg.norm(restricted[k]))
        if peak == int(np.argmax(cos)):
            recovered.append(w)
    return likely, recovered


def check_topics(t: dict) -> list[str]:
    """Course-week topic vectors peak where the fitted and the planted topics
    say they should, in all but a few weeks (see topic_weeks)."""
    weeks = len(t["week_docs"])
    likely, recovered = topic_weeks(t)
    problems = []
    if weeks - len(likely) > LIKELY_MISSES_ALLOWED:
        problems.append("%d of %d weeks peak on the LDA topic their syllabus is most likely "
                        "under" % (len(likely), weeks))
    if weeks - len(recovered) > PLANTED_MISSES_ALLOWED:
        problems.append("%d of %d weeks peak on the LDA topic closest to their planted "
                        "topic" % (len(recovered), weeks))
    return problems
