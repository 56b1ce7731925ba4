import hashlib
import re
from bisect import bisect_right
from itertools import accumulate
from operator import mul, truediv

import numpy as np
import pytest

from threadrec import text
from threadrec.corpus import CourseSchedule, SplitSpec, split_by_time
from threadrec.stem import stem
from threadrec.synth import algo_like, generate

NO_STOP = frozenset()


def test_stemmer_classic_words():
    cases = {
        "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
        "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
        "motoring": "motor", "sing": "sing", "conflated": "conflat",
        "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
        "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
        "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
        "conditional": "condit", "rational": "ration", "valency": "valenc",
        "digitizer": "digit", "operator": "oper", "feudalism": "feudal",
        "decisiveness": "decis", "hopefulness": "hope", "formality": "formal",
        "triplicate": "triplic", "formative": "form", "electrical": "electr",
        "hopeful": "hope", "goodness": "good", "revival": "reviv",
        "allowance": "allow", "inference": "infer", "airliner": "airlin",
        "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
        "homologous": "homolog", "communism": "commun", "activate": "activ",
        "angularity": "angular", "effective": "effect", "bowdlerize": "bowdler",
        "probate": "probat", "controll": "control", "roll": "roll",
    }
    for word, expect in cases.items():
        assert stem(word) == expect, word


def test_stemmer_short_words_untouched():
    assert stem("is") == "is"
    assert stem("a") == "a"


def test_preprocess_lowercases_and_splits():
    assert text.preprocess("Hello, WORLD!", NO_STOP) == ["hello", "world"]


def test_preprocess_strips_urls():
    tokens = text.preprocess("see https://example.com/a?b=c#d and www.test.org now",
                             NO_STOP)
    assert "example" not in tokens and "test" not in tokens
    assert tokens == ["see", "and", "now"]


def test_preprocess_drops_nonalpha_tokens():
    assert text.preprocess("abc123 42 x_1 pure", NO_STOP) == ["x", "pure"]


def test_preprocess_checks_stopwords_before_and_after_stemming():
    # "flying" survives the raw check but stems to a stopword
    stops = frozenset({"fly", "the"})
    assert text.preprocess("the flying stone", stops) == ["stone"]


def test_preprocess_default_stopwords():
    assert text.preprocess("this is was a the question") == ["question"]


def test_load_stopwords_contains_basics():
    stops = text.load_stopwords()
    for word in ("the", "is", "was", "of"):
        assert word in stops


def test_build_vocabulary_min_count_and_order():
    docs = [["b", "a", "b"], ["a", "c"], ["a", "b"]]
    vocab = text.build_vocabulary(docs, min_count=2)
    assert vocab.word_to_index == {"a": 0, "b": 1}
    assert list(vocab.counts) == [3, 3]


def test_build_vocabulary_empty_raises():
    with pytest.raises(ValueError):
        text.build_vocabulary([["rare"]], min_count=2)


def test_build_vocabulary_refuses_a_min_count_below_one():
    with pytest.raises(ValueError, match="min_count must be >= 1"):
        text.build_vocabulary([["a", "b"]], min_count=0)


def test_term_frequency_skips_unknown_words():
    vocab = text.build_vocabulary([["a", "b", "a"]], min_count=1)
    tf = text.term_frequency(["a", "zz", "a", "b"], vocab)
    assert tf == {vocab.word_to_index["a"]: 2, vocab.word_to_index["b"]: 1}


def test_topic_distribution_validation(tmp_path):
    # course topics are outside input: rows off the simplex or of unequal
    # length are refused on load
    path = tmp_path / "topics.csv"
    path.write_text("0.5 0.5\n")
    assert text.load_topic_distributions(path).tolist() == [[0.5, 0.5]]
    # NaN compares false both ways, so each simplex test is written to fail on it
    for bad in ("0.9 0.3", "-0.1 1.1", "0.5 0.5 0.0\n1.0", "nan nan", "nan 1.0", "0.5 nan"):
        path.write_text("0.5 0.5\n" + bad + "\n")
        with pytest.raises(ValueError, match="topic vectors in .*topics.csv"):
            text.load_topic_distributions(path)


def _two_topic_corpus(rng, docs_per_topic=40, vocab_size=20, doc_len=30):
    half = vocab_size // 2
    docs = []
    labels = []
    for topic in (0, 1):
        lo = 0 if topic == 0 else half
        for _ in range(docs_per_topic):
            words = rng.integers(lo, lo + half, size=doc_len)
            tf = {}
            for w in words:
                tf[int(w)] = tf.get(int(w), 0) + 1
            docs.append(tf)
            labels.append(topic)
    return docs, labels, half


def test_lda_separates_two_planted_topics():
    rng = np.random.default_rng(0)
    docs, labels, half = _two_topic_corpus(rng)
    model = text.lda_fit(docs, 2, iters=150, seed=4, vocab_size=2 * half)
    mass_low = model.topic_word[:, :half].sum(axis=1)
    # one topic should own the low half of the vocabulary, the other the high
    lo = int(np.argmax(mass_low))
    assert mass_low[lo] > 0.9
    assert 1.0 - mass_low[1 - lo] > 0.9


def test_lda_same_seed_is_bitwise_identical():
    rng = np.random.default_rng(1)
    docs, _, half = _two_topic_corpus(rng, docs_per_topic=10)
    a = text.lda_fit(docs, 2, iters=30, seed=7, vocab_size=2 * half)
    b = text.lda_fit(docs, 2, iters=30, seed=7, vocab_size=2 * half)
    assert np.array_equal(a.topic_word, b.topic_word)
    assert np.array_equal(a.loglik_history, b.loglik_history)
    c = text.lda_fit(docs, 2, iters=30, seed=8, vocab_size=2 * half)
    assert not np.array_equal(a.topic_word, c.topic_word)


def test_lda_loglik_improves():
    rng = np.random.default_rng(2)
    docs, _, half = _two_topic_corpus(rng)
    model = text.lda_fit(docs, 2, iters=80, seed=0, vocab_size=2 * half)
    assert model.loglik_history[-1] > model.loglik_history[0]


def test_lda_single_topic_matches_smoothed_frequencies():
    docs = [{0: 3, 1: 1}, {1: 2, 2: 2}]
    model = text.lda_fit(docs, 1, iters=5, seed=0, vocab_size=3)
    counts = np.array([3.0, 3.0, 2.0])
    expect = (counts + model.topic_word_prior)
    expect /= expect.sum()
    assert np.allclose(model.topic_word[0], expect, atol=1e-12)


def test_lda_more_topics_than_words_raises():
    with pytest.raises(ValueError):
        text.lda_fit([{0: 2}], 3, iters=5, vocab_size=1)


@pytest.mark.parametrize("docs, num_topics, iters, message", [
    ([{0: 2}], 0, 5, "num_topics must be >= 1"),
    ([{0: 2}], 1, 0, "iters must be >= 1"),
    ([], 1, 5, "no documents to fit"),
    ([{}, {}], 1, 5, "all documents are empty")],
    ids=["no-topic", "no-sweep", "no-document", "empty-documents"])
def test_lda_fit_refuses_what_it_cannot_fit(docs, num_topics, iters, message):
    with pytest.raises(ValueError, match=message):
        text.lda_fit(docs, num_topics, iters=iters, vocab_size=2)


def test_lda_default_doc_topic_prior():
    model = text.lda_fit([{0: 1, 1: 1}], 4, iters=2, vocab_size=4)
    assert model.doc_topic_prior == pytest.approx(12.5)


def test_lda_infer_empty_doc_is_uniform():
    model = text.lda_fit([{0: 2, 1: 2}], 2, iters=5, vocab_size=2)
    theta = text.lda_infer_batch(model, [{}])[0]
    assert np.allclose(theta, [0.5, 0.5])


def test_lda_infer_is_deterministic_and_simplex():
    rng = np.random.default_rng(3)
    docs, _, half = _two_topic_corpus(rng, docs_per_topic=10)
    model = text.lda_fit(docs, 2, iters=30, seed=2, vocab_size=2 * half)
    a = text.lda_infer_batch(model, [docs[0]])[0]
    b = text.lda_infer_batch(model, [docs[0]])[0]
    assert np.array_equal(a, b)
    assert a.min() > 0
    assert abs(a.sum() - 1.0) < 1e-9


def test_lda_infer_finds_planted_topic():
    rng = np.random.default_rng(4)
    docs, labels, half = _two_topic_corpus(rng)
    model = text.lda_fit(docs, 2, iters=100, seed=1, vocab_size=2 * half)
    mass_low = model.topic_word[:, :half].sum(axis=1)
    lo = int(np.argmax(mass_low))
    theta = text.lda_infer_batch(model, [docs[0]])[0]  # a low-half document
    # the strong default doc-topic prior (50/K) caps a 30-token doc at
    # (30 + 25) / (30 + 50), so anything near that is a perfect assignment
    assert int(np.argmax(theta)) == lo
    assert theta[lo] > 0.6


def test_course_topics_errors_on_unmodelable_week():
    vocab = text.Vocabulary({"zqaaa": 0, "zqaab": 1}, {"zqaaa": 2, "zqaab": 2})
    model = text.lda_fit([{0: 2, 1: 2}], 2, iters=5, vocab_size=2)
    course = CourseSchedule([["zqaaa"], ["unknownword"]], [0.0, 10.0])
    with pytest.raises(ValueError, match="week 1"):
        text.course_topics(course, model, vocab)


def test_vocabulary_roundtrip(tmp_path):
    vocab = text.build_vocabulary([["a", "b", "a", "c"]], min_count=1)
    path = tmp_path / "vocab.csv"
    text.save_vocabulary(vocab, path)
    loaded = text.load_vocabulary(path)
    assert loaded.word_to_index == vocab.word_to_index
    assert np.array_equal(loaded.counts, vocab.counts)


@pytest.mark.parametrize("row, fields", [("2,c", 2), ("2", 1), ("", 0), ("2,c,1,9", 4)])
def test_load_vocabulary_refuses_a_row_without_three_fields(tmp_path, row, fields):
    path = tmp_path / "vocab.csv"
    path.write_text("index,word,count\n0,a,2\n1,b,1\n%s\n" % row)
    with pytest.raises(ValueError, match="vocabulary line 4 has %d fields, not 3" % fields):
        text.load_vocabulary(path)


def test_load_vocabulary_refuses_a_repeated_word(tmp_path):
    # the second 'a' would take over the first one's index, and the
    # vocabulary would hold a word fewer than the topic model's columns
    path = tmp_path / "vocab.csv"
    path.write_text("index,word,count\n0,a,2\n1,b,1\n2,a,1\n")
    with pytest.raises(ValueError, match="vocabulary line 4 repeats the word 'a'"):
        text.load_vocabulary(path)


@pytest.mark.parametrize("content, message", [
    ("idx,word,count\n0,a,2\n", "unrecognized vocabulary file header"),
    ("", "unrecognized vocabulary file header"),
    ("index,word,count\n0,a,2\n2,b,1\n", "vocabulary indices must be dense and ordered"),
    ("index,word,count\n1,a,2\n", "vocabulary indices must be dense and ordered"),
    ("index,word,count\n", "vocabulary file is empty")])
def test_load_vocabulary_refuses_a_file_that_is_not_a_vocabulary(tmp_path, content, message):
    path = tmp_path / "vocab.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=message):
        text.load_vocabulary(path)


@pytest.mark.parametrize("row", ["x,zqaab,47", "1,zqaab,many", "1.0,zqaab,4"])
def test_load_vocabulary_names_file_and_line_of_a_number_that_is_not_an_integer(tmp_path,
                                                                                 row):
    path = tmp_path / "vocab.csv"
    path.write_text("index,word,count\n0,a,2\n%s\n" % row)
    with pytest.raises(ValueError, match="vocabulary .*vocab.csv line 3: index and count "
                       "must be integers, got " + re.escape(repr(row.split(",")))):
        text.load_vocabulary(path)


def test_load_lda_refuses_a_file_that_is_not_a_model_or_does_not_match_its_header(tmp_path):
    model = text.lda_fit([{0: 3, 1: 2}, {1: 4, 2: 1}], 2, iters=10, seed=5,
                         vocab_size=3)
    path = tmp_path / "lda.csv"
    text.save_lda(model, path)
    header, rest = path.read_text().split("\n", 1)
    path.write_text(header.replace("lda ", "topics ", 1) + "\n" + rest)
    with pytest.raises(ValueError, match="not a topic model file"):
        text.load_lda(path)
    # a topic row missing, a header of three topics over two rows, and one
    # of four words over rows of three
    for header_out, rest_out in ((header, rest.split("\n", 1)[1]),
                                 (header.replace("K=2", "K=3"), rest),
                                 (header.replace("W=3", "W=4"), rest)):
        path.write_text(header_out + "\n" + rest_out)
        with pytest.raises(ValueError, match="topic-word matrix shape does not match header"):
            text.load_lda(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:1] + ["abc " + lines[1].split(" ", 1)[1]] + lines[2:],
     "line 2: could not convert string to float: 'abc'"),
    (lambda lines: [lines[0].replace("K=2", "K=x")] + lines[1:],
     "line 1: invalid literal for int.*'x'"),
    (lambda lines: [lines[0] + " tag"] + lines[1:], "line 1: header fields must be key=value")])
def test_load_lda_names_file_and_line_of_a_field_that_does_not_parse(tmp_path, edit, message):
    model = text.lda_fit([{0: 3, 1: 2}, {1: 4, 2: 1}], 2, iters=10, seed=5,
                         vocab_size=3)
    path = tmp_path / "lda.csv"
    text.save_lda(model, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match="lda.csv " + message):
        text.load_lda(path)


def test_load_topic_distributions_names_file_and_line_of_a_field_that_is_not_a_number(
        tmp_path):
    path = tmp_path / "topics.csv"
    path.write_text("0.5 0.5\n\nx 0.5\n")
    with pytest.raises(ValueError, match="topics.csv line 3: could not convert .*'x'"):
        text.load_topic_distributions(path)


def test_lda_roundtrip_is_exact(tmp_path):
    model = text.lda_fit([{0: 3, 1: 2}, {1: 4, 2: 1}], 2, iters=10, seed=5,
                         vocab_size=3)
    path = tmp_path / "lda.csv"
    text.save_lda(model, path)
    loaded = text.load_lda(path)
    assert np.array_equal(loaded.topic_word, model.topic_word)
    assert loaded.doc_topic_prior == model.doc_topic_prior
    assert loaded.topic_word_prior == model.topic_word_prior
    assert loaded.rng_seed == model.rng_seed


@pytest.mark.parametrize("key", ["K", "W", "alpha", "beta", "seed"])
def test_load_lda_rejects_header_without_a_scalar(tmp_path, key):
    model = text.lda_fit([{0: 3, 1: 2}, {1: 4, 2: 1}], 2, iters=10, seed=5,
                         vocab_size=3)
    path = tmp_path / "lda.csv"
    text.save_lda(model, path)
    header, rest = path.read_text().split("\n", 1)
    header = " ".join(p for p in header.split() if not p.startswith(key + "="))
    path.write_text(header + "\n" + rest)
    with pytest.raises(ValueError, match=key):
        text.load_lda(path)


@pytest.mark.parametrize("row, message", [
    ("nan -3.0 0.0", "nonnegative"), ("0.5 -0.5 1.0", "nonnegative"),
    ("0.5 0.25 0.125", "sum to 1"), ("inf 0.0 0.0", "sum to 1")])
def test_load_lda_rejects_topic_word_rows_off_the_simplex(tmp_path, row, message):
    model = text.lda_fit([{0: 3, 1: 2}, {1: 4, 2: 1}], 2, iters=10, seed=5,
                         vocab_size=3)
    path = tmp_path / "lda.csv"
    text.save_lda(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [row]) + "\n")
    with pytest.raises(ValueError, match="topic-word rows in .*%s" % message):
        text.load_lda(path)


@pytest.mark.parametrize("key", ["alpha", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "0.0", "-0.5"])
def test_load_lda_rejects_priors_not_finite_and_positive(tmp_path, key, value):
    model = text.lda_fit([{0: 3, 1: 2}, {1: 4, 2: 1}], 2, iters=10, seed=5,
                         vocab_size=3)
    path = tmp_path / "lda.csv"
    text.save_lda(model, path)
    header, rest = path.read_text().split("\n", 1)
    header = " ".join(key + "=" + value if p.startswith(key + "=") else p
                      for p in header.split())
    path.write_text(header + "\n" + rest)
    with pytest.raises(ValueError, match="priors in .* must be finite and positive, "
                       ".*%s=%s" % (key, value)):
        text.load_lda(path)


def test_topic_distribution_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(6)
    thetas = rng.dirichlet(np.ones(4), 3)
    path = tmp_path / "topics.csv"
    text.save_topic_distributions(thetas, path)
    loaded = text.load_topic_distributions(path)
    assert loaded.shape == (3, 4) and loaded.dtype == np.float64
    for a, b in zip(loaded, thetas):
        assert np.array_equal(a, b)


# Frozen oracles of the collapsed Gibbs sampler, recorded from the numpy
# per-token step (cumsum, then searchsorted side="right", then the clamp).
# Any change to the sampler must reproduce them bit for bit.

def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def _oracle_corpus():
    docs, _, half = _two_topic_corpus(np.random.default_rng(1), docs_per_topic=10)
    return docs, 2 * half


@pytest.mark.parametrize("k, topic_word_sha, loglik_sha", [
    (2, "545ff879a8633322f32686bfc6dcce6ca185e3e70088fa4833380354af21fd3f",
     "e13dfd7363b9d59f69f0aef759e91947f3538db47a5d92c0ff29d837985600ea"),
    (4, "b9a27261272cef8105654e251e5dcde91672e7821a2f4bb7e420b56ed030ae2a",
     "0a00201e46f9baa75521c16c8aff612983fdd3964ea3a9d722ad4d1490ba5863"),
])
def test_lda_fit_frozen_oracle(k, topic_word_sha, loglik_sha):
    docs, vocab_size = _oracle_corpus()
    model = text.lda_fit(docs, k, iters=30, seed=7, vocab_size=vocab_size)
    assert _sha(model.topic_word) == topic_word_sha
    assert _sha(model.loglik_history) == loglik_sha


def test_lda_fit_single_topic_frozen_oracle():
    model = text.lda_fit([{0: 3, 1: 1}, {1: 2, 2: 2}], 1, iters=5, seed=0, vocab_size=3)
    assert _sha(model.topic_word) == (
        "e3c5bba0928ba4f71b22e10555cfb41a5a50dea1f3dcfd991c341333d6d798c2")
    assert _sha(model.loglik_history) == (
        "040f86a1603aa43e3d9ce1e3a1445a095f40169ec3de40f46d18bac93db463a5")


def _assert_lgamma_is_gammaln(x):
    # scipy is only the reference here: no module of the package imports it
    from scipy.special import gammaln
    x = np.asarray(x, dtype=np.float64).ravel()
    got = np.array([text._lgamma(v) for v in x.tolist()])
    assert np.array_equal(got.view(np.int64), gammaln(x).view(np.int64))


def test_lgamma_is_scipy_gammaln_bit_for_bit_on_every_branch():
    rng = np.random.default_rng(31)
    exact = np.arange(1.0, 40.0)
    edges = [b + d for b in (2.0, 3.0, 13.0, 1000.0, 1e8)
             for d in (-1e-9, 0.0, 1e-9)]
    edges += [np.nextafter(b, side) for b in (2.0, 3.0, 13.0, 1000.0, 1e8)
              for side in (0.0, np.inf)]
    _assert_lgamma_is_gammaln(np.concatenate([
        exact, edges, [5e-324, 1e-300, 1e-12, 0.5, 1.5, 1e300, 2.556348e305],
        rng.random(50_000) * 2.0 + 1e-12,        # below 2: the recurrence up
        2.0 + rng.random(50_000) * 11.0,         # 2 to 13: down into [2, 3)
        np.exp(rng.uniform(np.log(13.0), np.log(1000.0), 50_000)),
        np.exp(rng.uniform(np.log(1000.0), np.log(1e8), 50_000)),
        np.exp(rng.uniform(np.log(1e8), np.log(1e13), 50_000)),
    ]))


def test_lgamma_is_scipy_gammaln_on_counts_plus_every_pipeline_prior():
    beta = 0.01
    priors = [beta] + [W * beta for W in (2, 28, 137, 500, 1000, 2537, 10_000)]
    for K in range(1, 51):
        alpha = 50.0 / K
        priors += [alpha, K * alpha]
    counts = np.concatenate([np.arange(10_000), [19_999, 123_456, 1_000_000, 10**8]])
    _assert_lgamma_is_gammaln(counts[:, None] + np.array(priors)[None, :])


def test_joint_loglik_is_the_scipy_formula_on_random_states():
    from scipy.special import gammaln
    rng = np.random.default_rng(5)
    for K, W, D, alpha, beta in [(1, 3, 2, 50.0, 0.01), (2, 40, 20, 25.0, 0.01),
                                 (7, 300, 60, 50.0 / 7, 0.01), (50, 900, 150, 1.0, 0.5)]:
        lengths = rng.integers(0, 300, size=D)
        lengths[0] = max(lengths[0], 1)
        doc_of = np.repeat(np.arange(D), lengths)
        words = rng.integers(0, W, size=len(doc_of))
        joint_loglik = text._JointLoglik(words, lengths, K, W, alpha, beta)
        # states of growing concentration; the last puts every token in
        # topic 0, which reaches the last entry of every table
        for spread in (K, max(K // 3, 1), 1):
            z = rng.integers(0, spread, size=len(doc_of))
            n_dk = np.zeros((D, K), dtype=np.int64)
            n_kw = np.zeros((K, W), dtype=np.int64)
            np.add.at(n_dk, (doc_of, z), 1)
            np.add.at(n_kw, (z, words), 1)
            n_k = n_kw.sum(axis=1)
            ll = K * (gammaln(W * beta) - W * gammaln(beta))
            ll += gammaln(n_kw + beta).sum() - gammaln(n_k + W * beta).sum()
            ll += D * (gammaln(K * alpha) - K * gammaln(alpha))
            ll += gammaln(n_dk + alpha).sum() - gammaln(lengths + K * alpha).sum()
            assert joint_loglik(n_dk, n_kw, n_k) == float(ll)


@pytest.mark.parametrize("k, iters, expect", [
    (2, 10, [0.3125, 0.6875]),
    (2, 50, [0.3125, 0.6875]),
    (4, 10, [0.15625, 0.28375, 0.32875, 0.23125]),
    (4, 50, [0.15625000000000003, 0.28125000000000006, 0.33124999999999993,
             0.23125000000000012]),
])
def test_lda_infer_frozen_oracle(k, iters, expect):
    docs, vocab_size = _oracle_corpus()
    model = text.lda_fit(docs, k, iters=30, seed=7, vocab_size=vocab_size)
    theta = text.lda_infer_batch(model, [docs[0]], iters=iters)[0]
    assert theta.tolist() == expect


def _loop_lda_infer(model, doc, iters, burn_in):
    # the per-document fold-in loop on Python floats, kept as the reference
    K = model.num_topics
    alpha = model.doc_topic_prior
    tokens = [w for w in sorted(doc) for _ in range(doc[w])]
    if not tokens:
        return np.full(K, 1.0 / K)
    L = len(tokens)
    columns = model.topic_word.T[tokens].tolist()
    rng = np.random.default_rng(model.rng_seed + 0x5EED)
    z = rng.integers(0, K, size=L).tolist()
    n_dk = [float(z.count(k)) for k in range(K)]
    theta_acc = np.zeros(K)
    samples = 0
    for sweep in range(iters):
        for i, (col, u) in enumerate(zip(columns, rng.random(L).tolist())):
            n_dk[z[i]] -= 1
            cum = []
            total = 0.0
            for n, t in zip(n_dk, col):
                total += (n + alpha) * t
                cum.append(total)
            k = min(bisect_right(cum, u * cum[-1]), K - 1)
            n_dk[k] += 1
            z[i] = k
        if sweep >= burn_in:
            theta_acc += (np.array(n_dk) + alpha) / (L + K * alpha)
            samples += 1
    theta = theta_acc / samples
    theta /= theta.sum()
    return theta


def _mixed_length_docs(rng, vocab_size):
    """Empty and one-token documents among longer ones, several lengths
    repeated with different words."""
    docs = []
    for length in [0, 1, 30, 7, 1, 0, 12, 30, 7, 45, 2, 1]:
        tf = {}
        for w in rng.integers(0, vocab_size, size=length).tolist():
            tf[w] = tf.get(w, 0) + 1
        docs.append(tf)
    return docs


@pytest.mark.parametrize("k", [1, 2, 4, 9])
@pytest.mark.parametrize("iters, burn_in", [(10, 5), (7, 3)])
def test_lda_infer_batch_matches_per_document_loop(k, iters, burn_in):
    # the first iters // 2 sweeps are burn-in
    docs, vocab_size = _oracle_corpus()
    model = text.lda_fit(docs, k, iters=10, seed=7, vocab_size=vocab_size)
    batch = _mixed_length_docs(np.random.default_rng(k), vocab_size) + docs[:3]
    got = text.lda_infer_batch(model, batch, iters=iters)
    assert got.shape == (len(batch), k) and got.dtype == np.float64
    for row, doc in zip(got, batch):
        assert np.array_equal(row, _loop_lda_infer(model, doc, iters, burn_in))
    # a row does not depend on the batch: alone, a document gets the same row
    single = text.lda_infer_batch(model, [batch[9]], iters=iters)[0]
    assert np.array_equal(single, got[9])
    assert text.lda_infer_batch(model, [], iters=iters).shape == (0, k)


@pytest.mark.parametrize("bad, match", [({0: 0}, "term frequencies"),
                                        ({2: 1}, "word index 2 outside"),
                                        ({-1: 1}, "negative word index")])
def test_lda_infer_batch_rejects_what_lda_infer_rejects(bad, match):
    model = text.lda_fit([{0: 2, 1: 2}], 2, iters=5, vocab_size=2)
    with pytest.raises(ValueError, match=match):
        text.lda_infer_batch(model, [bad])
    with pytest.raises(ValueError, match=match):
        text.lda_infer_batch(model, [{0: 1}, {}, bad])
    with pytest.raises(ValueError, match="iters must be >= 1"):
        text.lda_infer_batch(model, [{0: 1}], iters=0)


def _sweep(words, doc_of, z, n_dk, n_kw, n_k, alpha, beta, uniforms):
    # text._gibbs_sweep with its fixed arguments set up as lda_fit sets them
    lengths = np.bincount(doc_of, minlength=len(n_dk))
    text._gibbs_sweep(z, n_dk, n_kw, n_k, uniforms,
                      *text._sweep_setup(words, lengths, n_kw.shape[1], alpha, beta))


def _first_token_draw(u):
    # one word, alpha = beta = 1, and a document of two tokens in topics 0
    # and 2: once the first is removed, the three topics weigh 1, 1 and 2,
    # cumulative weights 1, 2, 4; the second token draws with u = 1 and so
    # stays in the last topic
    z = np.array([0, 2])
    n_dk = np.array([[1, 0, 1]])
    n_kw = np.array([[1], [0], [1]])
    n_k = np.array([1, 0, 1])
    _sweep(np.array([0, 0]), np.array([0, 0]), z, n_dk, n_kw, n_k, 1.0, 1.0,
           np.array([u, 1.0]))
    assert z[1] == 2
    assert n_dk[0].tolist() == np.bincount(z, minlength=3).tolist()
    assert n_kw[:, 0].tolist() == n_dk[0].tolist() and n_k.tolist() == n_dk[0].tolist()
    return int(z[0])


def test_gibbs_draw_rule_ties_and_clamp():
    assert _first_token_draw(0.2499) == 0
    # u * total lands exactly on a cumulative weight: the next topic wins
    assert _first_token_draw(0.25) == 1
    assert _first_token_draw(0.5) == 2
    # u * total reaches the total: clamped to the last topic
    assert _first_token_draw(1.0) == 2


def _numpy_gibbs_sweep(words, doc_of, z, n_dk, n_kw, n_k, alpha, beta, uniforms):
    # the array form of the per-token step, kept as the reference
    beta_sum = beta * n_kw.shape[1]
    for i in range(len(words)):
        w, d, k = words[i], doc_of[i], z[i]
        n_dk[d, k] -= 1
        n_kw[k, w] -= 1
        n_k[k] -= 1
        c = np.cumsum((n_dk[d] + alpha) * (n_kw[:, w] + beta) / (n_k + beta_sum))
        k = min(int(np.searchsorted(c, uniforms[i] * c[-1], side="right")), len(c) - 1)
        n_dk[d, k] += 1
        n_kw[k, w] += 1
        n_k[k] += 1
        z[i] = k


def test_gibbs_sweep_matches_array_reference():
    docs, vocab_size = _oracle_corpus()
    words, doc_of, _ = text._expand_docs(docs, vocab_size)
    rng = np.random.default_rng(5)
    k = 9
    z = rng.integers(0, k, size=len(words))
    n_dk = np.zeros((len(docs), k), dtype=np.int64)
    n_kw = np.zeros((k, vocab_size), dtype=np.int64)
    n_k = np.zeros(k, dtype=np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, words), 1)
    np.add.at(n_k, z, 1)
    ref = [a.copy() for a in (z, n_dk, n_kw, n_k)]
    for _ in range(3):
        uniforms = rng.random(len(words))
        _sweep(words, doc_of, z, n_dk, n_kw, n_k, 50.0 / k, 0.01, uniforms)
        _numpy_gibbs_sweep(words, doc_of, *ref, 50.0 / k, 0.01, uniforms)
        for got, expect in zip((z, n_dk, n_kw, n_k), ref):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)


def _ref_gibbs_sweep(words, doc_of, z, n_dk, n_kw, n_k, alpha, beta, uniforms):
    """The list form of the token step that _gibbs_sweep must match bit for
    bit: every token decrements and increments its three counts and
    recomputes their three count + prior floats, whether its topic moves
    or not."""
    beta_sum = beta * n_kw.shape[1]
    last = n_k.shape[0] - 1
    z_list = z.tolist()
    dk_rows = n_dk.tolist()
    wk_rows, wkf_rows = n_kw.T.tolist(), (n_kw.T + beta).tolist()
    nk, nkf = n_k.tolist(), (n_k + beta_sum).tolist()
    doc = -1
    for i, (w, d, u) in enumerate(zip(words.tolist(), doc_of.tolist(), uniforms.tolist())):
        k = z_list[i]
        if d != doc:
            doc, dk = d, dk_rows[d]
            dkf = [a + alpha for a in dk]
        wk, wkf = wk_rows[w], wkf_rows[w]
        dk[k] -= 1
        wk[k] -= 1
        nk[k] -= 1
        dkf[k] = dk[k] + alpha
        wkf[k] = wk[k] + beta
        nkf[k] = nk[k] + beta_sum
        cum = list(accumulate(map(truediv, map(mul, dkf, wkf), nkf)))
        k = bisect_right(cum, u * cum[-1])
        if k > last:
            k = last
        dk[k] += 1
        wk[k] += 1
        nk[k] += 1
        dkf[k] = dk[k] + alpha
        wkf[k] = wk[k] + beta
        nkf[k] = nk[k] + beta_sum
        z_list[i] = k
    z[:] = z_list
    n_dk[:] = dk_rows
    n_kw.T[:] = wk_rows
    n_k[:] = nk


def _ragged_corpus(rng, vocab_size):
    # documents of 0 to 12 tokens, empty ones between non-empty ones, and
    # words repeated within a document
    docs = []
    for length in rng.integers(0, 13, size=40).tolist() + [1, 0, 1, 1, 0, 0, 2]:
        tf = {}
        for w in rng.integers(0, vocab_size, size=length).tolist():
            tf[w] = tf.get(w, 0) + 1
        docs.append(tf)
    return docs


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("seed", [0, 1])
def test_gibbs_sweep_matches_the_step_that_updates_every_token(k, seed):
    rng = np.random.default_rng(seed)
    vocab_size = 12
    docs = _ragged_corpus(rng, vocab_size)
    words, doc_of, _ = text._expand_docs(docs, vocab_size)
    z = rng.integers(0, k, size=len(words))
    n_dk = np.zeros((len(docs), k), dtype=np.int64)
    n_kw = np.zeros((k, vocab_size), dtype=np.int64)
    n_k = np.zeros(k, dtype=np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, words), 1)
    np.add.at(n_k, z, 1)
    ref = [a.copy() for a in (z, n_dk, n_kw, n_k)]
    # u = 0 draws the first topic and the largest u below 1 the last; a
    # sweep of each empties every other topic, and the sweep after moves
    # every token
    crafted = rng.random(len(words))
    crafted[::3] = 0.0
    crafted[1::5] = np.nextafter(1.0, 0.0)
    sweeps = [rng.random(len(words)), crafted, np.zeros(len(words)),
              np.full(len(words), np.nextafter(1.0, 0.0)), rng.random(len(words)),
              rng.random(len(words))]
    for uniforms in sweeps:
        _sweep(words, doc_of, z, n_dk, n_kw, n_k, 50.0 / k, 0.01, uniforms)
        _ref_gibbs_sweep(words, doc_of, *ref, 50.0 / k, 0.01, uniforms)
        for got, expect in zip((z, n_dk, n_kw, n_k), ref):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)


def test_lda_fit_keeps_the_acceptance_course_bytes():
    # the topic model of the acceptance course, fit as acceptance 7 and 8
    # fit it; at 60 sweeps most token steps keep their topic
    ds, _ = generate(algo_like(scale=0.1, seed=0))
    horizon = 8 * 604800.0
    train_ds, _ = split_by_time(ds, SplitSpec(horizon, horizon + 86400.0))
    docs = [ev.tokens for ev in train_ds.events] + ds.course.week_docs
    vocab = text.build_vocabulary(docs, min_count=10)
    tf = [text.term_frequency(doc, vocab) for doc in docs]
    model = text.lda_fit(tf, 9, iters=60, seed=1, vocab_size=len(vocab))
    assert _sha(model.topic_word) == (
        "490a99ceb622e17424cd4dd05be16bd2f5ffd21db8aa8d8763863297517ec17a")
    assert _sha(model.loglik_history) == (
        "2db9b4b579200417a41e01ee1e016d3e259a6e478f168a182edacf52a575930f")
