"""Synthetic forum generator with known ground truth.

Students carry per-week interest distributions over latent topics that
drift toward each week's scheduled topic; threads carry fixed topic
mixtures. A student picks threads with probability proportional to the
interest-mixture affinity, boosted for threads they already posted on and
again for threads where someone has replied to them since their last
visit, and sometimes replies to an earlier post. Post text is drawn from
per-topic word distributions over a vocabulary of tokens that survive
preprocessing unchanged, so a generated corpus round-trips through
ingestion.

A post's thread and its words' topics are drawn with Generator.choice's
own arithmetic on the same stream, without its per-call checks, so the
draws are choice's. Of those checks only one can fail on these weights,
a post whose total thread weight overflows; generate refuses it, naming
revisit_boost and reply_pull.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .corpus import CourseSchedule, Dataset, PostEvent, check_finite_fields, validate_dataset
from .text import preprocess


@dataclass
class SynthConfig:
    num_students: int = 183
    num_threads: int = 132
    num_weeks: int = 9
    num_topics: int = 9
    vocab_size: int = 300
    mean_posts_per_student: int = 5
    drift_strength: float = 0.6
    reply_prob: float = 0.45
    revisit_boost: float = 20.0
    reply_pull: float = 12.0
    week_seconds: float = 604800.0
    post_length_mean: int = 12
    week_doc_length: int = 150
    seed: int = 0

    def __post_init__(self):
        check_finite_fields(self)
        for name in ("num_students", "num_threads", "num_weeks", "num_topics",
                     "vocab_size", "mean_posts_per_student", "post_length_mean",
                     "week_doc_length"):
            if int(getattr(self, name)) < 1:
                raise ValueError("%s must be a positive integer" % name)
        if not (0.0 <= self.drift_strength <= 1.0):
            raise ValueError("drift_strength must lie in [0, 1]")
        if not (0.0 <= self.reply_prob <= 1.0):
            raise ValueError("reply_prob must lie in [0, 1]")
        if self.revisit_boost < 0:
            raise ValueError("revisit_boost must be nonnegative")
        if self.reply_pull < 0:
            raise ValueError("reply_pull must be nonnegative")
        if self.week_seconds <= 0:
            raise ValueError("week_seconds must be positive")
        if not math.isfinite(self.num_weeks * self.week_seconds):
            raise ValueError("week_seconds must keep the course length, num_weeks * "
                             "week_seconds, finite")
        if self.vocab_size < self.num_topics:
            raise ValueError("vocab_size must be at least num_topics")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def algo_like(scale: float = 1.0, seed: int = 0) -> SynthConfig:
    """Preset mirroring a programming-course forum: 1833 students, 1323
    threads, about 9274 posts over 9 weeks, shrunk by `scale`."""
    if not (scale > 0 and math.isfinite(1833 * scale)):
        raise ValueError("scale must be positive and its student count finite, got %r"
                         % scale)
    return SynthConfig(
        num_students=max(1, round(1833 * scale)),
        num_threads=max(1, round(1323 * scale)),
        num_weeks=9,
        num_topics=9,
        mean_posts_per_student=max(1, round(9274 / 1833)),
        seed=seed,
    )


@dataclass
class GroundTruth:
    student_interests: np.ndarray  # (students, weeks, topics)
    thread_mixtures: np.ndarray    # (threads, topics)
    topic_words: np.ndarray        # (topics, vocab)
    vocab_words: list[str]


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def stable_vocabulary(count: int) -> list[str]:
    """Deterministic letter-only tokens that preprocessing maps to
    themselves, so generated text survives ingestion verbatim."""
    words = []
    i = 0
    while len(words) < count:
        n, suffix = i, ""
        for _ in range(3):
            suffix = _LETTERS[n % 26] + suffix
            n //= 26
        candidate = "zq" + suffix
        i += 1
        if i > 26 ** 3:
            raise ValueError("vocabulary request too large")
        if preprocess(candidate) == [candidate]:
            words.append(candidate)
    return words


def _sample_words(rng, cum_rows, topics):
    """One word index per topic: the first index of the topic's cumulative
    word weights (a list) that is >= a uniform draw, as np.searchsorted
    with side="left" gives."""
    draws = rng.random(len(topics))
    return [bisect_left(cum_rows[z], u) for z, u in zip(topics.tolist(), draws.tolist())]


def _choice(rng, p, size=None):
    """rng.choice(len(p), size, p=p): choice's own arithmetic on the same
    stream, without its argument checks, which p must pass; generate
    refuses the one weight it could fail on, a total that overflows."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Draw a full synthetic dataset. Deterministic for a fixed config."""
    rng = np.random.default_rng(cfg.seed)
    K, V = cfg.num_topics, cfg.vocab_size
    m, n, W = cfg.num_students, cfg.num_threads, cfg.num_weeks

    vocab_words = stable_vocabulary(V)
    topic_words = rng.dirichlet(np.full(V, 0.05), size=K)
    cum_topic_words = np.cumsum(topic_words, axis=1)
    cum_topic_words[:, -1] = 1.0
    cum_rows = cum_topic_words.tolist()
    mixtures = rng.dirichlet(np.full(K, 0.2), size=n)

    interests = np.zeros((m, W, K))
    interests[:, 0] = rng.dirichlet(np.ones(K), size=m)
    for w in range(1, W):
        scheduled = np.zeros(K)
        scheduled[w % K] = 1.0
        interests[:, w] = (1.0 - cfg.drift_strength) * interests[:, w - 1] \
            + cfg.drift_strength * scheduled

    counts = rng.poisson(cfg.mean_posts_per_student, size=m)
    arrivals = []
    for s in range(m):
        for t in rng.uniform(0.0, W * cfg.week_seconds, size=counts[s]):
            arrivals.append((float(t), s))
    if not arrivals:
        raise ValueError("generated no posts; raise mean_posts_per_student")
    arrivals.sort()

    visited = [set() for _ in range(m)]
    unseen_replies = [dict() for _ in range(m)]  # student -> {thread: count}
    thread_posts: dict[int, list[tuple[int, int]]] = {}  # thread -> [(post_id, student)]
    events = []
    # a boost or thread weight that overflows is refused by the finite
    # check of its total, before it is divided by
    with np.errstate(over="ignore"):
        for post_id, (t, s) in enumerate(arrivals):
            week = min(int(t // cfg.week_seconds), W - 1)
            interest = interests[s, week]
            affinity = mixtures @ interest + 1e-12
            boost = np.ones(n)
            for th in visited[s]:
                boost[th] += cfg.revisit_boost
            for th, waiting in unseen_replies[s].items():
                boost[th] += cfg.reply_pull * waiting
            probs = affinity * boost
            total = probs.sum()
            if not math.isfinite(total):
                raise ValueError("revisit_boost and reply_pull overflow the thread "
                                 "weights of post %d; lower them" % post_id)
            probs /= total
            thread = int(_choice(rng, probs))

            parent = None
            prior = thread_posts.get(thread, [])
            if prior and float(rng.random()) < cfg.reply_prob:
                others = [(pid, author) for pid, author in prior if author != s]
                pool = others if others else prior
                parent, parent_author = pool[rng.integers(len(pool))]
                parent = int(parent)
                if parent_author != s:
                    counts_for = unseen_replies[parent_author]
                    counts_for[thread] = counts_for.get(thread, 0) + 1

            mix = interest * mixtures[thread]
            total = mix.sum()
            mix = mixtures[thread] if total <= 0 else mix / total
            length = 4 + int(rng.poisson(cfg.post_length_mean))
            topics = _choice(rng, mix, length)
            tokens = [vocab_words[i] for i in _sample_words(rng, cum_rows, topics)]

            events.append(PostEvent(post_id, s, thread, t, " ".join(tokens), parent))
            visited[s].add(thread)
            unseen_replies[s].pop(thread, None)
            thread_posts.setdefault(thread, []).append((post_id, s))

    week_docs = []
    boundaries = []
    for w in range(W):
        topics = np.full(cfg.week_doc_length, w % K)
        week_docs.append([vocab_words[i] for i in _sample_words(rng, cum_rows, topics)])
        boundaries.append(w * cfg.week_seconds)
    course = CourseSchedule(week_docs, boundaries)

    ds = Dataset(events, m, n, course, list(range(m)), list(range(n)))
    validate_dataset(ds)
    return ds, GroundTruth(interests, mixtures, topic_words, vocab_words)


def write_ground_truth(gt: GroundTruth, path) -> None:
    payload = {
        "student_interests": gt.student_interests.tolist(),
        "thread_mixtures": gt.thread_mixtures.tolist(),
        "topic_words": gt.topic_words.tolist(),
        "vocab_words": gt.vocab_words,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")
