import json

import numpy as np
import pytest

from threadrec import model, recommend, train
from threadrec.corpus import Dataset, SplitSpec, ThreadEventIndex, split_by_time
from threadrec.model import (AblationFlags, DynamicStateStore, ModelParams,
                             assign_course_topic, excitation, project_thread)
from threadrec.recommend import (EvaluationError, _rank_by_distance,
                                 average_precision, baseline_pop, baseline_rec,
                                 baseline_user_rec, build_model_ranker, evaluate)
from threadrec.text import (TopicDistribution, build_vocabulary, lda_fit,
                            lda_infer, term_frequency)
from threadrec.train import TrainConfig

from conftest import WEEK, make_event


# ranking


def test_rank_threads_orders_by_distance():
    # three threads, two embedding coordinates; the prediction's one-hot
    # block points at thread 1, whose projected state is 0.1 away
    q = np.array([0.0, 1.0, 0.0, 0.1, 0.0])
    p_hat = np.array([[1.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    out = _rank_by_distance(q, np.array([0, 1, 2]), p_hat)
    assert out.thread_ids == [1, 0, 2]
    assert out.distances == sorted(out.distances)
    assert out.distances[0] == pytest.approx(0.1)


def test_rank_threads_breaks_ties_by_id():
    # every target is sqrt(2) from a zero prediction
    q = np.zeros(5)
    out = _rank_by_distance(q, np.array([1, 2, 3]), np.array([[-1.0], [1.0], [1.0]]))
    assert out.thread_ids == [1, 2, 3]


def test_rank_threads_top_k():
    q = np.zeros(11)
    p_hat = np.arange(10.0).reshape(10, 1)
    out = _rank_by_distance(q, np.arange(10), p_hat, top_k=3)
    assert out.thread_ids == [0, 1, 2]
    assert len(out.distances) == 3


def test_rank_threads_empty_candidates_raise():
    with pytest.raises(EvaluationError):
        _rank_by_distance(np.zeros(2), np.zeros(0, dtype=np.int64), np.zeros((0, 2)))


# the closed-form scorer against the stacked-target ranker it replaced


def stacked_target_ranking(params, store, week_topics, course, index, candidates,
                           student, t_query, flags, top_k=None):
    """Reference: one dense [one-hot(c), p_hat_c] target per candidate, with
    excitation computed for every candidate, and distances by norm."""
    d, n = params.embed_dim, params.num_threads
    u_vec = store.student_vecs[student]
    if flags.no_student_projection:
        u_hat = u_vec
    else:
        last_t = store.student_last_t[student] if store.student_seen[student] else 0.0
        delta = max(t_query - last_t, 0.0) / store.time_scale
        if store.student_seen[student]:
            week = assign_course_topic(
                TopicDistribution(store.student_last_theta[student]), week_topics)
        else:
            week = course.week_of(t_query)
        u_hat = model._project_student_kernel(u_vec, delta, week, params)[0]
    last_thread = int(store.student_last_thread[student])
    if last_thread < 0:
        q = model._predict_kernel(u_hat, student, np.zeros(d), -1, params)
    else:
        q = model._predict_kernel(u_hat, student, store.thread_vecs[last_thread],
                                  last_thread, params)
    ids = np.array(sorted(candidates), dtype=np.int64)
    targets = []
    for c in ids:
        if flags.no_thread_projection:
            p_hat = store.thread_vecs[c]
        else:
            z = excitation(index.history(student, int(c), t_query), t_query,
                           params.post_decay, params.reply_decay, store.time_scale)
            p_hat = project_thread(u_vec, store.thread_vecs[c], z)
        target = np.zeros(n + d)
        target[c] = 1.0
        target[n:] = p_hat
        targets.append(target)
    dists = np.linalg.norm(np.stack(targets) - q, axis=1)
    order = np.lexsort((ids, dists))[:top_k]
    return [int(ids[i]) for i in order], [float(dists[i]) for i in order]


def assert_same_ranking(got, ref):
    assert got.thread_ids == ref[0]
    got_d, ref_d = np.array(got.distances), np.array(ref[1])
    assert np.all(np.abs(got_d - ref_d) <= 1e-12 * ref_d)


@pytest.fixture
def scored(course2):
    """Four students and six threads with random trained states. Student 3
    never posts in training (cold start), thread 5 only in the test window
    (not a candidate); students 0 and 1 have own threads with later posts
    and replies by others, in training and inside the test window."""
    s = [(0, 0, 0, 100.0, None), (1, 1, 0, 200.0, None), (2, 2, 0, 300.0, 0),
         (3, 1, 1, 400.0, None), (4, 0, 1, 500.0, 3), (5, 2, 2, 600.0, None),
         (6, 1, 2, 700.0, 5), (7, 0, 3, 800.0, None), (8, 2, 4, 900.0, None),
         (9, 1, 4, 1000.0, 8),
         (10, 0, 2, WEEK + 100.0, None), (11, 2, 2, WEEK + 200.0, 10),
         (12, 1, 2, WEEK + 300.0, None), (13, 0, 2, WEEK + 400.0, None),
         (14, 3, 5, WEEK + 500.0, None), (15, 3, 0, WEEK + 600.0, None),
         (16, 1, 0, WEEK + 700.0, None), (17, 0, 0, WEEK + 800.0, 2)]
    events = [make_event(pid, st, th, t, parent=parent) for pid, st, th, t, parent in s]
    ds = Dataset(events, 4, 6, course2, [0, 1, 2, 3], list(range(6)))
    train_ds, test_ds = split_by_time(ds, SplitSpec(WEEK, 2 * WEEK))

    rng = np.random.default_rng(21)
    params = ModelParams.init(rng, embed_dim=3, num_topics=2, num_weeks=2,
                              num_students=4, num_threads=6, init_std=0.5)
    store = DynamicStateStore(4, 6, 3, 2, time_scale=500.0)
    store.student_vecs[:] = rng.uniform(0.0, 1.0, (4, 3))
    store.thread_vecs[:] = rng.uniform(0.0, 1.0, (6, 3))
    for ev in train_ds.events:
        store.student_seen[ev.student_id] = True
        store.student_last_t[ev.student_id] = ev.timestamp
        store.student_last_thread[ev.student_id] = ev.thread_id
        store.student_last_theta[ev.student_id] = rng.dirichlet([1.0, 1.0])
    week_topics = [TopicDistribution(np.array([0.8, 0.2])),
                   TopicDistribution(np.array([0.3, 0.7]))]
    assert store.student_last_thread[3] == -1
    return params, store, week_topics, train_ds, test_ds


def flag_sets():
    return [AblationFlags()] + [AblationFlags.from_names([n]) for n in AblationFlags.NAMES]


@pytest.mark.parametrize("flags", flag_sets(), ids=lambda f: "+".join(f.active()) or "full")
@pytest.mark.parametrize("top_k", [None, 2])
def test_scorer_matches_stacked_targets(scored, flags, top_k):
    params, store, week_topics, train_ds, _ = scored
    index = ThreadEventIndex(train_ds)
    # student 0 on thread 0 has both a later post and a reply by others
    hist = index.history(0, 0, WEEK)
    assert hist.post_times and hist.reply_times
    rank = build_model_ranker(params, store, week_topics, train_ds, WEEK,
                              flags=flags, top_k=top_k)
    for student in range(4):
        ref = stacked_target_ranking(params, store, week_topics, train_ds.course,
                                     index, [0, 1, 2, 3, 4], student, WEEK, flags, top_k)
        assert_same_ranking(rank(student), ref)


@pytest.mark.parametrize("flags", flag_sets(), ids=lambda f: "+".join(f.active()) or "full")
def test_per_event_scorer_matches_stacked_targets(scored, flags):
    params, store, week_topics, train_ds, test_ds = scored
    merged = Dataset(train_ds.events + test_ds.events, 4, 6, train_ds.course,
                     train_ds.student_ids, train_ds.thread_ids)
    index = ThreadEventIndex(merged)
    # the history grows inside the test window: a reply and a post after
    # student 0's first post on thread 2
    z = excitation(index.history(0, 2, WEEK + 400.0), WEEK + 400.0,
                   params.post_decay, params.reply_decay, store.time_scale)
    assert z > 0.0
    scorer = recommend._Scorer(params, store, week_topics, train_ds, index, flags)
    expect: dict[int, list[float]] = {}
    for ev in test_ds.events:
        ref = stacked_target_ranking(params, store, week_topics, train_ds.course, index,
                                     [0, 1, 2, 3, 4], ev.student_id, ev.timestamp, flags)
        assert_same_ranking(scorer.rank(ev.student_id, ev.timestamp), ref)
        expect.setdefault(ev.student_id, []).append(
            average_precision(ref[0], {ev.thread_id}, 5))
    report = recommend.evaluate_per_event(params, store, week_topics, train_ds,
                                          test_ds, n_cutoff=5, flags=flags)
    assert report.per_user_ap == {u: sum(v) / len(v) for u, v in sorted(expect.items())}


# average precision


def test_average_precision_oracle():
    # hits at ranks 1 and 3 out of two relevant threads
    ap = average_precision([10, 11, 12, 13, 14], {10, 12}, 5)
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_average_precision_denominator_is_clamped():
    # six relevant threads but a cutoff of five: denominator is five
    ap = average_precision([0, 1, 2, 3, 4], {0, 5, 6, 7, 8, 9}, 5)
    assert ap == pytest.approx(0.2, abs=1e-12)


def test_average_precision_empty_relevant_is_zero():
    assert average_precision([1, 2, 3], set(), 5) == 0.0


def test_average_precision_rejects_duplicates():
    with pytest.raises(ValueError):
        average_precision([1, 1, 2], {1}, 5)


def test_average_precision_ignores_tail_beyond_cutoff():
    assert average_precision([9, 8, 7, 6, 5, 1], {1}, 5) == 0.0


# evaluate harness


def test_evaluate_means_over_users(course2):
    test_events = [make_event(0, 0, 1, 10.0), make_event(1, 1, 2, 11.0),
                   make_event(2, 0, 3, 12.0)]
    rankings = {0: [1, 3, 5], 1: [5, 6, 7]}
    report = evaluate(lambda s: rankings[s], test_events, n_cutoff=5)
    # user 0: relevant {1, 3} hit at ranks 1 and 2 -> AP 1.0; user 1: 0.0
    assert report.per_user_ap == {0: 1.0, 1: 0.0}
    assert report.map_at_n == pytest.approx(0.5)
    assert report.users_evaluated == 2


def test_evaluate_rejects_empty_window():
    with pytest.raises(EvaluationError):
        evaluate(lambda s: [], [], n_cutoff=5)


# baselines


def _baseline_ds(course2):
    events = [
        make_event(0, 0, 0, 10.0),
        make_event(1, 1, 1, 20.0),
        make_event(2, 0, 1, 30.0),
        make_event(3, 2, 1, 40.0),
    ]
    return Dataset(events, 3, 3, course2, [0, 1, 2], [0, 1, 2])


def test_baseline_pop_orders_by_count_then_id(course2):
    ds = _baseline_ds(course2)
    # thread 2 was never posted on, so it trails
    assert baseline_pop(ds) == [1, 0, 2]


def test_baseline_rec_orders_by_recency(course2):
    ds = _baseline_ds(course2)
    assert baseline_rec(ds) == [1, 0, 2]
    assert baseline_rec(ds, ascending=True) == [0, 1, 2]


def test_baseline_user_rec_puts_own_threads_first(course2):
    ds = _baseline_ds(course2)
    # student 0 posted on 0 then 1: own threads newest-own-post first
    assert baseline_user_rec(ds, 0) == [1, 0, 2]
    assert baseline_user_rec(ds, 2) == [1, 0, 2]
    # a later post on thread 0 flips the global recency for student 1,
    # whose only own thread stays in front
    events = ds.events + [make_event(4, 2, 0, 50.0)]
    ds2 = Dataset(events, 3, 3, ds.course, [0, 1, 2], [0, 1, 2])
    assert baseline_user_rec(ds2, 1) == [1, 0, 2]
    assert baseline_user_rec(ds2, 2) == [0, 1, 2]


def test_baseline_pop_tie_breaks_by_id(course2):
    events = [make_event(0, 0, 2, 10.0), make_event(1, 1, 0, 20.0)]
    ds = Dataset(events, 2, 3, course2, [0, 1], [0, 1, 2])
    assert baseline_pop(ds) == [0, 2, 1]


# model ranker


def _trained(tiny_ds):
    docs = [ev.tokens for ev in tiny_ds.events] + tiny_ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=1)
    tf_docs = [term_frequency(doc, vocab) for doc in docs]
    lda = lda_fit(tf_docs, 2, iters=20, seed=0, vocab_size=len(vocab))
    week_topics = [lda_infer(lda, term_frequency(doc, vocab))
                   for doc in tiny_ds.course.week_docs]
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=0)
    params, store = train.fit(tiny_ds, lda, vocab, week_topics, cfg)
    return params, store, week_topics


def test_build_model_ranker_ranks_all_training_threads(tiny_ds):
    params, store, week_topics = _trained(tiny_ds)
    rank_fn = build_model_ranker(params, store, week_topics, tiny_ds,
                                 t_query=2 * WEEK)
    out = rank_fn(0)
    assert sorted(out.thread_ids) == [0, 1, 2, 3]
    assert out.distances == sorted(out.distances)
    # deterministic
    again = rank_fn(0)
    assert again.thread_ids == out.thread_ids
    assert again.distances == out.distances


def test_build_model_ranker_rejects_unknown_student(tiny_ds):
    params, store, week_topics = _trained(tiny_ds)
    rank_fn = build_model_ranker(params, store, week_topics, tiny_ds, 2 * WEEK)
    with pytest.raises(EvaluationError):
        rank_fn(99)


def test_model_ranker_full_evaluation_path(tiny_ds):
    params, store, week_topics = _trained(tiny_ds)
    train_ds, test_ds = split_by_time(tiny_ds, SplitSpec(WEEK, 2 * WEEK))
    # retrain on the training window only to keep states honest
    docs = [ev.tokens for ev in train_ds.events] + train_ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=1)
    tf_docs = [term_frequency(doc, vocab) for doc in docs]
    lda = lda_fit(tf_docs, 2, iters=20, seed=0, vocab_size=len(vocab))
    week_topics = [lda_infer(lda, term_frequency(doc, vocab))
                   for doc in train_ds.course.week_docs]
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=0)
    params, store = train.fit(train_ds, lda, vocab, week_topics, cfg)
    rank_fn = build_model_ranker(params, store, week_topics, train_ds, WEEK)
    report = evaluate(rank_fn, test_ds, n_cutoff=5)
    assert 0.0 <= report.map_at_n <= 1.0
    assert set(report.per_user_ap) == {0, 2}
    # candidates limited to threads seen in training
    out = rank_fn(0)
    assert sorted(out.thread_ids) == [0, 1]


def test_per_event_evaluation(tiny_ds):
    train_ds, test_ds = split_by_time(tiny_ds, SplitSpec(WEEK, 2 * WEEK))
    docs = [ev.tokens for ev in train_ds.events] + train_ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=1)
    tf_docs = [term_frequency(doc, vocab) for doc in docs]
    lda = lda_fit(tf_docs, 2, iters=20, seed=0, vocab_size=len(vocab))
    week_topics = [lda_infer(lda, term_frequency(doc, vocab))
                   for doc in train_ds.course.week_docs]
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=0)
    params, store = train.fit(train_ds, lda, vocab, week_topics, cfg)
    report = recommend.evaluate_per_event(params, store, week_topics,
                                          train_ds, test_ds, n_cutoff=5)
    assert report.method == "model-per-event"
    assert 0.0 <= report.map_at_n <= 1.0
    assert report.users_evaluated == 2


def test_ranker_with_ablations_runs(tiny_ds):
    params, store, week_topics = _trained(tiny_ds)
    for name in AblationFlags.NAMES:
        rank_fn = build_model_ranker(params, store, week_topics, tiny_ds,
                                     2 * WEEK,
                                     flags=AblationFlags.from_names([name]))
        out = rank_fn(1)
        assert len(out.thread_ids) == 4


# report files


def test_write_report_files(tmp_path, course2):
    test_events = [make_event(0, 0, 1, 10.0)]
    report = evaluate(lambda s: [1, 2], test_events, n_cutoff=5, method="pop")
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "per_user.csv"
    recommend.write_report_json(report, jpath)
    recommend.write_report_csv(report, cpath)
    payload = json.loads(jpath.read_text())
    assert payload["method"] == "pop"
    assert payload["map_at_n"] == 1.0
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "student_id,ap_at_5"
    assert lines[1] == "0,1.0"
