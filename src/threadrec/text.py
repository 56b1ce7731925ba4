"""Text preprocessing, vocabulary construction, and topic modeling.

The topic model is latent Dirichlet allocation fit by collapsed Gibbs
sampling. Fitting and inference are single threaded and fully determined
by their seed, which the rest of the pipeline relies on for reproducible
artifacts.
"""
from __future__ import annotations

import csv
import functools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from operator import mul, truediv
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


@functools.cache
def load_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package, one word per line;
    blank lines ignored. Read once per process."""
    text = resources.files(__package__).joinpath("stopwords.txt").read_text()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def preprocess(raw_text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Normalize raw post text into a token list.

    Lowercases, strips URLs, splits on anything that is not a letter or
    digit, drops tokens containing digits, stems, and removes stopwords.
    A token is discarded if either its surface form or its stem is a
    stopword, so inflected function words do not leak through stemming.
    """
    if stopwords is None:
        stopwords = load_stopwords()
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


def _check_simplex(probs: np.ndarray, what: str = "topic probabilities") -> None:
    """Raise a ValueError naming what unless every last-axis vector is on the simplex."""
    if not np.all(probs >= 0):  # written so that NaN fails both tests
        raise ValueError("%s must be nonnegative" % what)
    if not np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError("%s must sum to 1" % what)


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


def _expand_docs(docs: Sequence[Mapping[int, int]], vocab_size: int):
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
    if max_idx >= vocab_size:
        raise ValueError("word index %d outside vocabulary of size %d" % (max_idx, vocab_size))
    return (
        np.array(words, dtype=np.int64),
        np.array(doc_of, dtype=np.int64),
        np.array(lengths, dtype=np.int64),
    )


def _sweep_setup(words, lengths, vocab_size, alpha, beta):
    """The arguments of _gibbs_sweep after the sampler state, fixed for a
    fit: the tokens' words and the end of each document's tokens as lists;
    count + prior lookup lists for the document and word counts, as long as
    the largest count each can reach, whose entries are the float64 numpy
    forms for an int64 count plus the prior; and beta_sum, the prior of a
    topic's total, beta * vocab_size."""
    doc_plus = np.arange(lengths.max() + 1) + alpha
    word_plus = np.arange(np.bincount(words).max() + 1) + beta
    return (words.tolist(), np.cumsum(lengths).tolist(), doc_plus.tolist(), word_plus.tolist(),
            beta * vocab_size)


def _gibbs_sweep(z, n_dk, n_kw, n_k, uniforms, words, ends, doc_plus, word_plus, beta_sum):
    """One full sampling pass. Counts are updated in place; uniforms supplies
    one draw per token so the sweep is a pure function of its inputs. The
    arguments after uniforms are _sweep_setup's, and the counts must be
    those of z.

    The per-token step runs on Python lists, taken once per sweep and
    written back at its end, with the float64 operations of the array form
    in the same order: each weight is (n_dk + alpha) * (n_kw + beta) /
    (n_k + beta_sum), summed left to right into the cumulative weights.
    Float lists of count + prior ride beside the integer counts, the
    document's read from doc_plus once per document and each word's from
    word_plus once per sweep. A step swaps in only the three floats of the
    token's own topic with the token taken out, and leaves the integer
    counts as they are. If the draw keeps the topic, the saved floats go
    back; only a token that moves takes itself out of its old topic's
    counts, whose floats are already in place, and adds itself to its new
    topic's counts and floats. The draw is the index of the first
    cumulative weight greater than u times the total, clamped to the last
    topic: np.searchsorted(cum, u * cum[-1], side="right") and the clamp.
    The weights are positive, so cum never decreases and bisect_right
    finds that index."""
    last = n_k.shape[0] - 1
    z_list = z.tolist()
    dk_rows = n_dk.tolist()
    wk_rows = n_kw.T.tolist()
    wkf_rows = [[word_plus[c] for c in wk] for wk in wk_rows]
    nk = n_k.tolist()
    nkf = [c + beta_sum for c in nk]
    us = uniforms.tolist()
    lo = 0
    for dk, hi in zip(dk_rows, ends):
        if lo == hi:
            continue
        dkf = [doc_plus[c] for c in dk]
        for i in range(lo, hi):
            k = z_list[i]
            w = words[i]
            wk, wkf = wk_rows[w], wkf_rows[w]
            dk_k, wk_k, nk_k = dk[k] - 1, wk[k] - 1, nk[k] - 1
            saved_d, saved_w, saved_n = dkf[k], wkf[k], nkf[k]
            dkf[k], wkf[k], nkf[k] = doc_plus[dk_k], word_plus[wk_k], nk_k + beta_sum
            cum = list(accumulate(map(truediv, map(mul, dkf, wkf), nkf)))
            j = bisect_right(cum, us[i] * cum[-1])
            if j > last:
                j = last
            if j == k:
                dkf[k], wkf[k], nkf[k] = saved_d, saved_w, saved_n
                continue
            dk[k], wk[k], nk[k] = dk_k, wk_k, nk_k
            dk_j, wk_j, nk_j = dk[j] + 1, wk[j] + 1, nk[j] + 1
            dk[j], wk[j], nk[j] = dk_j, wk_j, nk_j
            dkf[j], wkf[j], nkf[j] = doc_plus[dk_j], word_plus[wk_j], nk_j + beta_sum
            z_list[i] = j
        lo = hi
    z[:] = z_list
    n_dk[:] = dk_rows
    n_kw.T[:] = wk_rows
    n_k[:] = nk


# Cephes lgam (S. Moshier), the algorithm behind scipy.special.gammaln,
# with the same coefficients and the same operations in the same order, and
# math.log, the C library's log that the compiled code calls; numpy's
# vectorized log and math.lgamma both round some values differently
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _lgamma(x: float) -> float:
    """log Gamma(x), bit for bit scipy.special.gammaln(x), for x > 0 up to
    2.556348e305; above, gammaln gives inf.

    Below 13 a recurrence moves x into [2, 3) and a rational function of
    it follows; above, Stirling's series, cut to fewer terms from 1000 on
    and to none above 1e8."""
    log = math.log
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return log(z)
        x += p - 2.0
        b0, b1, b2, b3, b4, b5 = _LGAM_B
        c0, c1, c2, c3, c4, c5 = _LGAM_C
        num = x * (((((b0 * x + b1) * x + b2) * x + b3) * x + b4) * x + b5)
        den = (((((x + c0) * x + c1) * x + c2) * x + c3) * x + c4) * x + c5
        return log(z) + num / den
    q = (x - 0.5) * log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


def _lgamma_table(largest: int, prior: float) -> np.ndarray:
    """log Gamma(count + prior) for the counts 0 to largest; the float64 of
    count + prior is the one numpy forms for an int64 count plus the
    prior."""
    return np.array([_lgamma(c + prior) for c in range(largest + 1)])


class _JointLoglik:
    """log p(w, z) of a Gibbs state (Griffiths and Steyvers, PNAS 2004):
    log-gamma sums over the topic-word, topic and document-topic counts.
    A table per prior, built once at the largest count of its kind a fit
    can reach, turns each sum into a gather of the values gammaln(counts +
    prior) would give, in the same shape, so the sums are bit for bit those
    of the scipy formula. A word's count in a topic is at most that word's
    token count, a document's at most its length and a topic's at most the
    corpus token count. The document lengths, and with them their term,
    are fixed for a fit."""

    def __init__(self, words: np.ndarray, lengths: np.ndarray, num_topics: int,
                 vocab_size: int, alpha: float, beta: float):
        K, W, D = num_topics, vocab_size, len(lengths)
        self.topic_prior = K * (_lgamma(W * beta) - W * _lgamma(beta))
        self.doc_prior = D * (_lgamma(K * alpha) - K * _lgamma(alpha))
        self.word = _lgamma_table(np.bincount(words).max(), beta)
        self.topic = _lgamma_table(len(words), W * beta)
        self.doc = _lgamma_table(lengths.max(), alpha)
        self.length_term = _lgamma_table(lengths.max(), K * alpha)[lengths].sum()

    def __call__(self, n_dk: np.ndarray, n_kw: np.ndarray, n_k: np.ndarray) -> float:
        ll = self.topic_prior
        ll += self.word[n_kw].sum() - self.topic[n_k].sum()
        ll += self.doc_prior
        ll += self.doc[n_dk].sum() - self.length_term
        return float(ll)


def lda_fit(
    docs: Sequence[Mapping[int, int]],
    num_topics: int,
    iters: int = 500,
    seed: int = 0,
    *,
    vocab_size: int,
) -> LdaModel:
    """Fit LDA over words [0, vocab_size) by collapsed Gibbs sampling.

    The doc-topic prior is 50 / num_topics and the topic-word prior 0.01.
    The returned topic_word matrix is the smoothed count estimate from the
    final sweep, and loglik_history holds the joint log likelihood after
    each sweep.
    """
    if num_topics < 1:
        raise ValueError("num_topics must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not docs:
        raise ValueError("no documents to fit")
    words, doc_of, lengths = _expand_docs(docs, vocab_size)
    if len(words) == 0:
        raise ValueError("all documents are empty")
    if num_topics > vocab_size:
        raise ValueError("num_topics %d exceeds vocabulary size %d" % (num_topics, vocab_size))

    rng = np.random.default_rng(seed)
    z = rng.integers(0, num_topics, size=len(words))
    n_dk = np.zeros((len(docs), num_topics), dtype=np.int64)
    n_kw = np.zeros((num_topics, vocab_size), dtype=np.int64)
    n_k = np.zeros(num_topics, dtype=np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, words), 1)
    np.add.at(n_k, z, 1)

    history = np.zeros(iters)
    alpha, beta = 50.0 / num_topics, 0.01
    joint_loglik = _JointLoglik(words, lengths, num_topics, vocab_size, alpha, beta)
    setup = _sweep_setup(words, lengths, vocab_size, alpha, beta)
    for sweep in range(iters):
        uniforms = rng.random(len(words))
        _gibbs_sweep(z, n_dk, n_kw, n_k, uniforms, *setup)
        history[sweep] = joint_loglik(n_dk, n_kw, n_k)

    topic_word = (n_kw + beta).astype(np.float64)
    topic_word /= topic_word.sum(axis=1, keepdims=True)
    return LdaModel(num_topics, topic_word, alpha, beta, seed, history)


def lda_infer_batch(
    model: LdaModel,
    docs: Sequence[Mapping[int, int]],
    iters: int = 50,
) -> np.ndarray:
    """Fold-in Gibbs inference under the fixed topic-word matrix: row d of
    the returned (len(docs), K) array averages the smoothed doc-topic
    posterior of docs[d] over the sweeps after the first iters // 2, which
    are burn-in. An empty document gets the prior, uniform for a symmetric
    doc_topic_prior.

    Each document samples with its own generator seeded from the model
    seed, so a row depends on its document alone, and documents of one
    length draw the same numbers from one generator. With the topic-word
    matrix fixed, documents are independent, so all of them sample
    together, one token position at a time; sorted longest first, the
    rows still sampling at a position are a prefix. The position-major
    tables of words and topics are built once per call, and the step is
    plain array operations over that prefix: that of _gibbs_sweep on float
    counts, for all those rows at once. The weights (n_dk + alpha) *
    topic_word[:, word] are summed left to right, and the new topic is the
    number of the first K - 1 cumulative weights <= u times the total,
    which is bisect_right clamped to the last topic."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    burn_in = iters // 2
    K = model.num_topics
    alpha = model.doc_topic_prior
    words, doc_of, lengths = _expand_docs(docs, model.vocab_size)
    theta = np.full((len(docs), K), 1.0 / K)
    order = np.argsort(-lengths, kind="stable")
    D = int(np.count_nonzero(lengths))
    if D == 0:
        return theta
    # position-major tables over the sorted rows: a position's rows are contiguous
    row_of = np.zeros(len(docs), dtype=np.int64)
    row_of[order] = np.arange(len(docs))
    position = np.arange(len(words)) - (np.cumsum(lengths) - lengths)[doc_of]
    order, lengths = order[:D], lengths[order[:D]]
    L_max = int(lengths[0])
    table = np.zeros((L_max, D), dtype=np.int64)
    table[position, row_of[doc_of]] = words
    active = [int(np.count_nonzero(lengths > i)) for i in range(L_max)]
    word_topic = np.ascontiguousarray(model.topic_word.T)
    base = np.arange(D) * K
    # z holds each token's topic as a flat index into n_dk
    z = np.zeros((L_max, D), dtype=np.int64)
    n_dk = np.zeros((D, K))
    groups = []
    bounds = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    for lo, hi in zip([0] + bounds, bounds + [D]):
        L = int(lengths[lo])
        rng = np.random.default_rng(model.rng_seed + 0x5EED)
        z0 = rng.integers(0, K, size=L)
        z[:L, lo:hi] = z0[:, None] + base[lo:hi]
        n_dk[lo:hi] = np.bincount(z0, minlength=K)
        groups.append((lo, hi, L, rng))

    uniforms = np.empty((L_max, D))
    flat = n_dk.reshape(-1)
    denom = lengths + K * alpha
    theta_acc = np.zeros((D, K))
    for sweep in range(iters):
        # a sweep's uniforms are drawn as it starts, one vector per length
        for lo, hi, L, rng in groups:
            uniforms[:L, lo:hi] = rng.random(L)[:, None]
        for i, m in enumerate(active):
            zi = z[i, :m]
            flat[zi] -= 1.0
            w = (n_dk[:m] + alpha) * word_topic.take(table[i, :m], axis=0)
            cum = np.add.accumulate(w, axis=1)
            x = uniforms[i, :m] * cum[:, -1]
            zi[:] = (cum[:, :-1] <= x[:, None]).sum(axis=1) + base[:m]
            flat[zi] += 1.0
        if sweep >= burn_in:
            theta_acc += (n_dk + alpha) / denom[:, None]
    rows = theta_acc / (iters - burn_in)
    # a sum along the contiguous axis adds each row as np.sum of the row does
    rows /= rows.sum(axis=1, keepdims=True)
    _check_simplex(rows)
    theta[order] = rows
    return theta


def course_topics(
    schedule: "CourseSchedule",
    model: LdaModel,
    vocab: Vocabulary,
) -> np.ndarray:
    """(weeks, topics) topic profiles of the course weeks, from their
    syllabus text, by lda_infer_batch over its default 50 sweeps."""
    docs = []
    for week, tokens in enumerate(schedule.week_docs):
        tf = term_frequency(tokens, vocab)
        if not tf:
            raise ValueError("course week %d has no modelable text" % week)
        docs.append(tf)
    return lda_infer_batch(model, docs)


# ---------------------------------------------------------------------------
# artifact files

def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "word", "count"])
        for w, i in sorted(vocab.word_to_index.items(), key=lambda item: item[1]):
            writer.writerow([i, w, int(vocab.counts[i])])


def load_vocabulary(path) -> Vocabulary:
    word_to_index = {}
    counts = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["index", "word", "count"]:  # None for an empty file
            raise ValueError("unrecognized vocabulary file header")
        for row in reader:
            if len(row) != 3:
                raise ValueError("vocabulary line %d has %d fields, not 3"
                                 % (reader.line_num, len(row)))
            try:
                idx, word, count = int(row[0]), row[1], int(row[2])
            except ValueError:
                raise ValueError("vocabulary %s line %d: index and count must be integers, "
                                 "got %r" % (path, reader.line_num, row)) from None
            if idx != len(counts):
                raise ValueError("vocabulary indices must be dense and ordered")
            if word in word_to_index:  # would shrink the vocabulary by one
                raise ValueError("vocabulary line %d repeats the word %r"
                                 % (reader.line_num, word))
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


def _float_rows(path, lines, first_line: int) -> list[list[float]]:
    """The numbers of each non-blank line, the first numbered first_line.
    A field that is not a number raises a ValueError naming path and line."""
    rows = []
    for line_no, line in enumerate(lines, start=first_line):
        if line.strip():
            try:
                rows.append([float(v) for v in line.split()])
            except ValueError as exc:
                raise ValueError("%s line %d: %s" % (path, line_no, exc)) from None
    return rows


def load_lda(path) -> LdaModel:
    """The model save_lda wrote. The file is outside input: a header or row
    that does not parse, topic-word rows off the simplex or priors not
    finite and positive raise a ValueError."""
    with open(path) as fh:
        parts = fh.readline().split()
        if not parts or parts[0] != "lda":
            raise ValueError("not a topic model file")
        try:
            meta = dict(p.split("=", 1) for p in parts[1:])
        except ValueError:
            raise ValueError("%s line 1: header fields must be key=value" % path) from None
        missing = [key for key in ("K", "W", "alpha", "beta", "seed") if key not in meta]
        if missing:
            raise ValueError("topic model header lacks %s" % ", ".join(missing))
        try:
            K, W, seed = int(meta["K"]), int(meta["W"]), int(meta["seed"])
            alpha, beta = float(meta["alpha"]), float(meta["beta"])
        except ValueError as exc:
            raise ValueError("%s line 1: %s" % (path, exc)) from None
        topic_word = np.array(_float_rows(path, fh, 2), dtype=np.float64)
    if topic_word.shape != (K, W):
        raise ValueError("topic-word matrix shape does not match header")
    _check_simplex(topic_word, "topic-word rows in %s" % path)
    if not (0 < alpha < math.inf and 0 < beta < math.inf):  # written so that NaN fails
        raise ValueError("topic model priors in %s must be finite and positive, got alpha=%r "
                         "and beta=%r" % (path, alpha, beta))
    return LdaModel(K, topic_word, alpha, beta, seed)


def save_topic_distributions(thetas: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for theta in thetas:
            fh.write(" ".join(repr(float(v)) for v in theta))
            fh.write("\n")


def load_topic_distributions(path) -> np.ndarray:
    """The (rows, topics) array save_topic_distributions wrote. The file is
    outside input: a field that is not a number, ragged rows or rows off the
    simplex raise a ValueError."""
    with open(path) as fh:
        rows = _float_rows(path, fh, 1)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError("topic vectors in %s have different lengths %s" % (path, sorted(widths)))
    thetas = np.array(rows, dtype=np.float64).reshape(len(rows), max(widths, default=0))
    _check_simplex(thetas, "topic vectors in %s" % path)
    return thetas
