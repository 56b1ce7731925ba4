"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "ACCEPTANCE n (...): PASS/FAIL" line with the
measured quantity, then asserts. The synthetic-course ranking checks share
one module-scoped pipeline run because training nine models is the slow
part.
"""
import dataclasses
import hashlib
import time

import numpy as np
import pytest

from threadrec import cli, recommend, train
from threadrec.corpus import PostEvent, ReplyHistory, SplitSpec, split_by_time
from threadrec.model import (ModelParams, _project_student_kernel, excitation,
                             project_thread)
from threadrec.synth import algo_like, generate
from threadrec.text import build_vocabulary, course_topics, lda_fit, term_frequency
from threadrec.train import TrainConfig

from conftest import random_batch

WEEK = 604800.0


def report(capsys, number, label, ok, detail=""):
    line = "ACCEPTANCE %d (%s): %s" % (number, label, "PASS" if ok else "FAIL")
    if detail:
        line += " [%s]" % detail
    with capsys.disabled():
        print(line)


def test_1_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(20):
        params = ModelParams.init(rng, embed_dim=3, num_topics=2, num_weeks=2,
                                  num_students=4, num_threads=4,
                                  lambda_student=0.7, lambda_thread=0.4)
        batch, store = random_batch(rng, params, cold_start=(i % 5 == 4))
        worst = max(worst, train.gradient_check(params, batch, store, eps=1e-5))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(capsys, 1, "t-batch gradients vs central differences", ok,
           "max rel err %.2e, %.1fs" % (worst, elapsed))
    assert ok, "worst relative error %g in %.1fs" % (worst, elapsed)


def test_2_excitation_closed_forms(capsys):
    never = excitation(ReplyHistory(None, [], []), 10.0, 0.5, 0.001)
    one_post = excitation(ReplyHistory(0.0, [2.0], []), 10.0, 0.5, 0.001)
    with_reply = excitation(ReplyHistory(0.0, [2.0], [3.0]), 10.0, 0.5, 0.001)
    errs = (abs(never),
            abs(one_post - np.exp(-1.0)),
            abs(with_reply - (np.exp(-1.0) + np.exp(-0.003))))
    ok = max(errs) <= 1e-12
    report(capsys, 2, "excitation closed forms", ok, "max abs err %.1e" % max(errs))
    assert ok, errs


def test_3_projection_identities(capsys):
    rng = np.random.default_rng(7)
    params = ModelParams.init(rng, embed_dim=4, num_topics=2, num_weeks=3,
                              num_students=5, num_threads=6)
    params.time_context[:] = 0.0
    params.week_context[:] = 0.0
    vec = rng.uniform(-1.0, 1.0, 4)
    projected, _ = _project_student_kernel(vec.copy(), 1234.5, 2, params)
    student_identity = projected.tobytes() == vec.tobytes()

    u = rng.uniform(-1.0, 1.0, 4)
    p = rng.uniform(-1.0, 1.0, 4)
    unchanged = project_thread(u, p, 0.0).tobytes() == p.tobytes()
    midpoint = np.array_equal(project_thread(u, p, 1.0), (u + p) / 2.0)

    ok = student_identity and unchanged and midpoint
    report(capsys, 3, "projection identities", ok,
           "zero-context %s, zero-excitation %s, midpoint %s"
           % (student_identity, unchanged, midpoint))
    assert ok


def _brute_force_ap(ranked, relevant, n_cutoff):
    if not relevant:
        return 0.0
    hits, total = 0, 0.0
    for k, item in enumerate(ranked[:n_cutoff], start=1):
        if item in relevant:
            hits += 1
            total += hits / k
    return total / min(len(relevant), n_cutoff)


def test_4_average_precision_matches_brute_force(capsys):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        ranked = [int(i) for i in rng.permutation(n)]
        relevant = {i for i in range(n) if rng.random() < 0.35}
        got = recommend.average_precision(ranked, relevant, 5)
        want = _brute_force_ap(ranked, relevant, 5)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report(capsys, 4, "average precision vs brute force", ok,
           "100 fixtures, max abs err %.1e" % worst)
    assert ok


def test_5_t_batch_invariants(capsys):
    rng = np.random.default_rng(41)
    times = np.cumsum(rng.uniform(0.5, 2.0, size=10_000))
    events = [PostEvent(i, int(rng.integers(600)), int(rng.integers(400)),
                        float(times[i]), ["zqaaa"], None)
              for i in range(10_000)]
    start = time.perf_counter()
    batches = train.t_batch(events)
    elapsed = time.perf_counter() - start

    no_repeats = all(
        len({events[i].student_id for i in batch}) == len(batch)
        and len({events[i].thread_id for i in batch}) == len(batch)
        for batch in batches)
    flat = [i for batch in batches for i in batch]
    complete = sorted(flat) == list(range(len(events)))
    last_seen = {}
    chronological = True
    for i in flat:
        ev = events[i]
        for key in (("s", ev.student_id), ("t", ev.thread_id)):
            if last_seen.get(key, -1) > i:
                chronological = False
            last_seen[key] = i

    ok = no_repeats and complete and chronological and elapsed < 5.0
    report(capsys, 5, "t-batch invariants on 10k events", ok,
           "%d batches, %.2fs" % (len(batches), elapsed))
    assert ok, (no_repeats, complete, chronological, elapsed)


def test_6_lda_recovers_planted_topics(capsys):
    rng = np.random.default_rng(17)
    docs = []
    for i in range(200):
        low = i % 2 == 0
        words = rng.integers(0, 25, size=40) if low else rng.integers(25, 50, size=40)
        tf = {}
        for w in words:
            tf[int(w)] = tf.get(int(w), 0) + 1
        docs.append(tf)

    first = lda_fit(docs, 2, iters=150, seed=9, vocab_size=50)
    second = lda_fit(docs, 2, iters=150, seed=9, vocab_size=50)
    identical = np.array_equal(first.topic_word, second.topic_word)

    mass = np.array([[first.topic_word[k, :25].sum(), first.topic_word[k, 25:].sum()]
                     for k in range(2)])
    # greedy matching of topics to the two generating word sets
    straight = min(mass[0, 0], mass[1, 1])
    crossed = min(mass[0, 1], mass[1, 0])
    recovered = max(straight, crossed)
    ok = recovered >= 0.9 and identical
    report(capsys, 6, "topic recovery on planted corpus", ok,
           "matched mass %.3f, refit identical %s" % (recovered, identical))
    assert ok, (mass, identical)


@pytest.fixture(scope="module")
def course_run():
    """Full synthetic pipeline: generate, topic-model, train three model
    variants on three seeds each, score everything at the split time."""
    start = time.perf_counter()
    ds, _ = generate(algo_like(scale=0.1, seed=0))
    horizon = 8 * WEEK
    train_ds, test_ds = split_by_time(ds, SplitSpec(horizon, horizon + 86400.0))

    docs = [ev.tokens for ev in train_ds.events] + ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=10)
    tf = [term_frequency(doc, vocab) for doc in docs]
    lda = lda_fit(tf, 9, iters=60, seed=1, vocab_size=len(vocab))
    weeks = course_topics(ds.course, lda, vocab)

    base = TrainConfig(epochs=80, embed_dim=10, topic_infer_iters=50, seed=0)
    feats = train.prepare_event_features(train_ds, lda, vocab, weeks, base)
    scores = {}
    for variant in ("full", "no_thread_projection", "no_text_features"):
        per_seed = []
        for seed in (0, 1, 2):
            cfg = train.ablation_variant(dataclasses.replace(base, seed=seed), variant)
            params, store = train.fit(train_ds, lda, vocab, weeks, cfg, features=feats)
            ranker = recommend.build_model_ranker(params, store, weeks, train_ds,
                                                  horizon, flags=cfg.flags)
            per_seed.append(recommend.evaluate(ranker, test_ds).map_at_n)
        scores[variant] = float(np.mean(per_seed))

    pop = recommend.baseline_pop(train_ds)
    rec = recommend.baseline_rec(train_ds)
    scores["pop"] = recommend.evaluate(lambda s: pop, test_ds).map_at_n
    scores["rec"] = recommend.evaluate(lambda s: rec, test_ds).map_at_n
    scores["elapsed"] = time.perf_counter() - start
    return scores


def test_7_model_beats_popularity_and_recency(course_run, capsys):
    r = course_run
    ok = r["full"] > r["pop"] and r["full"] > r["rec"] and r["elapsed"] < 300.0
    report(capsys, 7, "model above POP and REC baselines", ok,
           "model %.4f vs pop %.4f, rec %.4f; pipeline %.0fs"
           % (r["full"], r["pop"], r["rec"], r["elapsed"]))
    assert ok, r


def test_8_ablations_do_not_beat_full_model(course_run, capsys):
    r = course_run
    ok = (r["full"] >= r["no_thread_projection"]
          and r["full"] >= r["no_text_features"])
    report(capsys, 8, "full model at or above ablations", ok,
           "full %.4f, no_thread_projection %.4f, no_text_features %.4f"
           % (r["full"], r["no_thread_projection"], r["no_text_features"]))
    assert ok, r


def test_9_cli_training_is_deterministic(tmp_path, capsys):
    data, lda_dir = tmp_path / "course", tmp_path / "lda"
    assert cli.main(["synth", "--out", str(data), "--seed", "3",
                     "--set", "num_students=15", "--set", "num_threads=10",
                     "--set", "num_weeks=3", "--set", "num_topics=3",
                     "--set", "vocab_size=50",
                     "--set", "mean_posts_per_student=6"]) == 0
    assert cli.main(["lda", "--data", str(data), "--out", str(lda_dir),
                     "--iters", "40", "--min-count", "2", "--seed", "3"]) == 0
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["train", "--data", str(data), "--lda", str(lda_dir),
                         "--out", str(out), "--train-end", "2w", "--seed", "5",
                         "--set", "epochs=2", "--set", "embed_dim=4"])
        assert code == 0
        digests.append(hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    report(capsys, 9, "repeat training byte-identical", ok,
           "sha256 %s" % digests[0][:16])
    assert ok, digests
