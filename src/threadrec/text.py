"""Text preprocessing, vocabulary construction, and topic modeling.

The topic model is latent Dirichlet allocation fit by collapsed Gibbs
sampling. Fitting and inference are single threaded and fully determined
by their seed, which the rest of the pipeline relies on for reproducible
artifacts.
"""
from __future__ import annotations

import csv
import functools
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .stem import stem

if TYPE_CHECKING:
    from .corpus import CourseSchedule

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_SPLIT_RE = re.compile(r"[^a-z0-9]+")

# stem is pure, so each distinct word is stemmed once; the cache keeps one
# entry per distinct word for the life of the process
_stem = functools.lru_cache(maxsize=None)(stem)


def load_stopwords(path=None) -> frozenset[str]:
    """Load one stopword per line; blank lines ignored. Defaults to the
    list shipped with the package."""
    if path is None:
        text = resources.files(__package__).joinpath("stopwords.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


@functools.cache
def _default_stopwords() -> frozenset[str]:
    return load_stopwords()


def preprocess(raw_text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Normalize raw post text into a token list.

    Lowercases, strips URLs, splits on anything that is not a letter or
    digit, drops tokens containing digits, stems, and removes stopwords.
    A token is discarded if either its surface form or its stem is a
    stopword, so inflected function words do not leak through stemming.
    """
    if stopwords is None:
        stopwords = _default_stopwords()
    text = _URL_RE.sub(" ", raw_text.lower())
    out = []
    for tok in _SPLIT_RE.split(text):
        if not tok or not tok.isalpha():
            continue
        if tok in stopwords:
            continue
        stemmed = _stem(tok)
        if stemmed in stopwords:
            continue
        out.append(stemmed)
    return out


@dataclass
class Vocabulary:
    """Dense word index over a token corpus.

    word_to_index maps each retained word to an index in [0, size);
    counts[i] is the corpus frequency of word i.
    """
    word_to_index: dict[str, int]
    counts: np.ndarray

    def __len__(self):
        return len(self.word_to_index)

    @property
    def index_to_word(self) -> list[str]:
        inv = [""] * len(self.word_to_index)
        for w, i in self.word_to_index.items():
            inv[i] = w
        return inv


def build_vocabulary(docs: Iterable[Sequence[str]], min_count: int = 10) -> Vocabulary:
    """Count tokens across docs and keep words occurring at least min_count
    times. Indices are assigned in sorted word order, so the result depends
    only on the corpus content."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    totals: dict[str, int] = {}
    for doc in docs:
        for tok in doc:
            totals[tok] = totals.get(tok, 0) + 1
    kept = sorted(w for w, c in totals.items() if c >= min_count)
    if not kept:
        raise ValueError("vocabulary is empty after frequency filtering")
    word_to_index = {w: i for i, w in enumerate(kept)}
    counts = np.array([totals[w] for w in kept], dtype=np.int64)
    return Vocabulary(word_to_index, counts)


def term_frequency(tokens: Sequence[str], vocab: Vocabulary) -> dict[int, int]:
    """Sparse bag of words over the vocabulary; out-of-vocabulary tokens
    are dropped."""
    tf: dict[int, int] = {}
    w2i = vocab.word_to_index
    for tok in tokens:
        i = w2i.get(tok)
        if i is not None:
            tf[i] = tf.get(i, 0) + 1
    return tf


@dataclass
class TopicDistribution:
    """A point on the topic simplex."""
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError("topic distribution must be a vector")
        if np.any(self.probs < 0):
            raise ValueError("topic probabilities must be nonnegative")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("topic probabilities must sum to 1")

    def __len__(self):
        return len(self.probs)


@dataclass
class LdaModel:
    """Fitted topic model: row-stochastic topic-word matrix plus the priors
    and seed it was trained with."""
    num_topics: int
    topic_word: np.ndarray  # (K, W), rows sum to 1
    doc_topic_prior: float
    topic_word_prior: float
    rng_seed: int
    loglik_history: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def vocab_size(self) -> int:
        return self.topic_word.shape[1]


def _expand_docs(docs: Sequence[Mapping[int, int]], vocab_size: int | None):
    """Flatten sparse term-frequency docs into parallel token/doc arrays,
    words within a doc in ascending index order."""
    words = []
    doc_of = []
    lengths = []
    max_idx = -1
    for d, tf in enumerate(docs):
        length = 0
        for w in sorted(tf):
            c = tf[w]
            if c < 1:
                raise ValueError("term frequencies must be >= 1")
            if w < 0:
                raise ValueError("negative word index")
            max_idx = max(max_idx, w)
            words.extend([w] * c)
            doc_of.extend([d] * c)
            length += c
        lengths.append(length)
    if vocab_size is None:
        vocab_size = max_idx + 1
    elif max_idx >= vocab_size:
        raise ValueError("word index %d outside vocabulary of size %d" % (max_idx, vocab_size))
    return (
        np.array(words, dtype=np.int64),
        np.array(doc_of, dtype=np.int64),
        np.array(lengths, dtype=np.int64),
        vocab_size,
    )


def _draw(cum, u):
    """Index of the first cumulative weight greater than u times the total,
    clamped to the last index: np.searchsorted(cum, u * cum[-1],
    side="right") and the clamp, on a list. The weights are positive, so
    cum never decreases and bisect_right finds that index."""
    k = bisect_right(cum, u * cum[-1])
    return k if k < len(cum) else len(cum) - 1


def _gibbs_sweep(words, doc_of, z, n_dk, n_kw, n_k, alpha, beta, uniforms):
    """One full sampling pass. Counts are updated in place; uniforms supplies
    one draw per token so the sweep is a pure function of its inputs.

    The per-token step runs on Python lists, taken once per sweep and
    written back at its end, with the float64 operations of the array form
    in the same order: each weight is (n_dk + alpha) * (n_kw + beta) /
    (n_k + beta_sum), summed left to right into the cumulative weights."""
    beta_sum = beta * n_kw.shape[1]
    z_list = z.tolist()
    dk_rows = n_dk.tolist()
    wk_rows = n_kw.T.tolist()
    nk = n_k.tolist()
    for i, (w, d, u) in enumerate(zip(words.tolist(), doc_of.tolist(), uniforms.tolist())):
        k = z_list[i]
        dk = dk_rows[d]
        wk = wk_rows[w]
        dk[k] -= 1
        wk[k] -= 1
        nk[k] -= 1
        cum = []
        total = 0.0
        for a, b, c in zip(dk, wk, nk):
            total += (a + alpha) * (b + beta) / (c + beta_sum)
            cum.append(total)
        k = _draw(cum, u)
        dk[k] += 1
        wk[k] += 1
        nk[k] += 1
        z_list[i] = k
    z[:] = z_list
    n_dk[:] = dk_rows
    n_kw.T[:] = wk_rows
    n_k[:] = nk


def _joint_loglik(n_dk, n_kw, n_k, lengths, alpha, beta):
    # imported here so that only lda_fit pays for loading scipy
    from scipy.special import gammaln
    K, W = n_kw.shape
    D = n_dk.shape[0]
    ll = K * (gammaln(W * beta) - W * gammaln(beta))
    ll += gammaln(n_kw + beta).sum() - gammaln(n_k + W * beta).sum()
    ll += D * (gammaln(K * alpha) - K * gammaln(alpha))
    ll += gammaln(n_dk + alpha).sum() - gammaln(lengths + K * alpha).sum()
    return float(ll)


def lda_fit(
    docs: Sequence[Mapping[int, int]],
    num_topics: int,
    iters: int = 500,
    doc_topic_prior: float | None = None,
    topic_word_prior: float = 0.01,
    seed: int = 0,
    vocab_size: int | None = None,
) -> LdaModel:
    """Fit LDA by collapsed Gibbs sampling.

    doc_topic_prior defaults to 50 / num_topics. The returned topic_word
    matrix is the smoothed count estimate from the final sweep, and
    loglik_history holds the joint log likelihood after each sweep.
    """
    if num_topics < 1:
        raise ValueError("num_topics must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not docs:
        raise ValueError("no documents to fit")
    if doc_topic_prior is None:
        doc_topic_prior = 50.0 / num_topics
    if doc_topic_prior <= 0 or topic_word_prior <= 0:
        raise ValueError("priors must be positive")
    words, doc_of, lengths, W = _expand_docs(docs, vocab_size)
    if len(words) == 0:
        raise ValueError("all documents are empty")
    if num_topics > W:
        raise ValueError("num_topics %d exceeds vocabulary size %d" % (num_topics, W))

    rng = np.random.default_rng(seed)
    z = rng.integers(0, num_topics, size=len(words))
    n_dk = np.zeros((len(docs), num_topics), dtype=np.int64)
    n_kw = np.zeros((num_topics, W), dtype=np.int64)
    n_k = np.zeros(num_topics, dtype=np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, words), 1)
    np.add.at(n_k, z, 1)

    history = np.zeros(iters)
    alpha = doc_topic_prior
    beta = topic_word_prior
    for sweep in range(iters):
        uniforms = rng.random(len(words))
        _gibbs_sweep(words, doc_of, z, n_dk, n_kw, n_k, alpha, beta, uniforms)
        history[sweep] = _joint_loglik(n_dk, n_kw, n_k, lengths, alpha, beta)

    topic_word = (n_kw + beta).astype(np.float64)
    topic_word /= topic_word.sum(axis=1, keepdims=True)
    return LdaModel(num_topics, topic_word, alpha, beta, seed, history)


def lda_infer(
    model: LdaModel,
    doc: Mapping[int, int],
    iters: int = 50,
    burn_in: int = 25,
) -> TopicDistribution:
    """Fold-in Gibbs inference for one document under a fixed topic-word
    matrix. Averages the smoothed doc-topic posterior over the sweeps after
    burn_in. An empty document returns the prior, uniform for a symmetric
    doc_topic_prior. Each call uses its own generator derived from the model
    seed, so results do not depend on call order."""
    if iters <= burn_in:
        raise ValueError("iters must exceed burn_in")
    K = model.num_topics
    alpha = model.doc_topic_prior
    tokens = []
    for w in sorted(doc):
        c = doc[w]
        if c < 1:
            raise ValueError("term frequencies must be >= 1")
        if w < 0 or w >= model.vocab_size:
            raise ValueError("word index %d outside model vocabulary" % w)
        tokens.extend([w] * c)
    if not tokens:
        return TopicDistribution(np.full(K, 1.0 / K))

    L = len(tokens)
    columns = model.topic_word.T[tokens].tolist()
    rng = np.random.default_rng(model.rng_seed + 0x5EED)
    z = rng.integers(0, K, size=L).tolist()
    n_dk = [float(z.count(k)) for k in range(K)]

    # the step of _gibbs_sweep with the topic-word matrix fixed
    theta_acc = np.zeros(K)
    samples = 0
    for sweep in range(iters):
        for i, (col, u) in enumerate(zip(columns, rng.random(L).tolist())):
            k = z[i]
            n_dk[k] -= 1
            cum = []
            total = 0.0
            for n, t in zip(n_dk, col):
                total += (n + alpha) * t
                cum.append(total)
            k = _draw(cum, u)
            n_dk[k] += 1
            z[i] = k
        if sweep >= burn_in:
            theta_acc += (np.array(n_dk) + alpha) / (L + K * alpha)
            samples += 1
    theta = theta_acc / samples
    theta /= theta.sum()
    return TopicDistribution(theta)


def course_topics(
    schedule: "CourseSchedule",
    model: LdaModel,
    vocab: Vocabulary,
    iters: int = 50,
    burn_in: int = 25,
) -> list[TopicDistribution]:
    """Topic profile of each course week, inferred from its syllabus text."""
    out = []
    for week, tokens in enumerate(schedule.week_docs):
        tf = term_frequency(tokens, vocab)
        if not tf:
            raise ValueError("course week %d has no modelable text" % week)
        out.append(lda_infer(model, tf, iters=iters, burn_in=burn_in))
    return out


# ---------------------------------------------------------------------------
# artifact files

def save_vocabulary(vocab: Vocabulary, path) -> None:
    inv = vocab.index_to_word
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "word", "count"])
        for i, w in enumerate(inv):
            writer.writerow([i, w, int(vocab.counts[i])])


def load_vocabulary(path) -> Vocabulary:
    word_to_index = {}
    counts = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["index", "word", "count"]:
            raise ValueError("unrecognized vocabulary file header")
        for row in reader:
            idx, word, count = int(row[0]), row[1], int(row[2])
            if idx != len(counts):
                raise ValueError("vocabulary indices must be dense and ordered")
            word_to_index[word] = idx
            counts.append(count)
    if not counts:
        raise ValueError("vocabulary file is empty")
    return Vocabulary(word_to_index, np.array(counts, dtype=np.int64))


def save_lda(model: LdaModel, path) -> None:
    """Write the model as text: a header line with scalars, then one
    topic-word row per line using shortest round-trip float formatting."""
    with open(path, "w") as fh:
        fh.write(
            "lda K=%d W=%d alpha=%r beta=%r seed=%d\n"
            % (model.num_topics, model.vocab_size, model.doc_topic_prior,
               model.topic_word_prior, model.rng_seed)
        )
        for row in model.topic_word:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_lda(path) -> LdaModel:
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if not parts or parts[0] != "lda":
            raise ValueError("not a topic model file")
        meta = dict(p.split("=", 1) for p in parts[1:])
        missing = [key for key in ("K", "W", "alpha", "beta", "seed") if key not in meta]
        if missing:
            raise ValueError("topic model header lacks %s" % ", ".join(missing))
        K = int(meta["K"])
        W = int(meta["W"])
        rows = []
        for line in fh:
            if line.strip():
                rows.append([float(v) for v in line.split()])
    topic_word = np.array(rows, dtype=np.float64)
    if topic_word.shape != (K, W):
        raise ValueError("topic-word matrix shape does not match header")
    return LdaModel(K, topic_word, float(meta["alpha"]), float(meta["beta"]), int(meta["seed"]))


def save_topic_distributions(thetas: Sequence[TopicDistribution], path) -> None:
    with open(path, "w") as fh:
        for theta in thetas:
            fh.write(" ".join(repr(float(v)) for v in theta.probs))
            fh.write("\n")


def load_topic_distributions(path) -> list[TopicDistribution]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                out.append(TopicDistribution(np.array([float(v) for v in line.split()])))
    return out
