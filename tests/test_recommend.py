import json

import numpy as np
import pytest

from threadrec import model, recommend, train
from threadrec.corpus import (Dataset, SplitSpec, ThreadEventIndex, events_before,
                              split_by_time)
from threadrec.model import (AblationFlags, DynamicStateStore, ModelParams,
                             excitation, project_thread)
from threadrec.recommend import (EvaluationError, _rank_by_distance,
                                 average_precision, baseline_pop, baseline_rec,
                                 baseline_user_rec, bootstrap_interval,
                                 build_model_ranker, evaluate, event_queries,
                                 split_queries)
from threadrec.text import build_vocabulary, lda_fit, lda_infer_batch, term_frequency
from threadrec.train import TrainConfig

from conftest import WEEK, make_event, nearest_week_loop


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
            week = nearest_week_loop(store.student_last_theta[student], week_topics)
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
    week_topics = np.array([[0.8, 0.2], [0.3, 0.7]])
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
    rank = build_model_ranker(params, store, week_topics, merged, WEEK, flags=flags)
    expect: dict[int, list[float]] = {}
    for ev in test_ds.events:
        ref = stacked_target_ranking(params, store, week_topics, train_ds.course, index,
                                     [0, 1, 2, 3, 4], ev.student_id, ev.timestamp, flags)
        assert_same_ranking(rank(ev.student_id, ev.timestamp), ref)
        expect.setdefault(ev.student_id, []).append(
            average_precision(ref[0], {ev.thread_id}, 5))
    report = evaluate(rank, event_queries(test_ds), n_cutoff=5)
    assert report.per_user_ap == {u: sum(v) / len(v) for u, v in sorted(expect.items())}


@pytest.mark.parametrize("flags", flag_sets(), ids=lambda f: "+".join(f.active()) or "full")
def test_split_ranker_over_test_posts_matches_training_window_ranker(scored, flags):
    # posts after the ranker's time add no candidate and no history at it:
    # student 3 first posts on candidate thread 0 inside the test window
    params, store, week_topics, train_ds, test_ds = scored
    merged = Dataset(train_ds.events + test_ds.events, 4, 6, train_ds.course,
                     train_ds.student_ids, train_ds.thread_ids)
    ref = build_model_ranker(params, store, week_topics, train_ds, WEEK, flags=flags)
    rank = build_model_ranker(params, store, week_topics, merged, WEEK, flags=flags)
    for student in range(4):
        got, want = rank(student), ref(student)
        assert got.thread_ids == want.thread_ids
        assert got.distances == want.distances


def test_model_ranker_refuses_a_time_before_its_own(scored):
    params, store, week_topics, train_ds, _ = scored
    rank = build_model_ranker(params, store, week_topics, train_ds, WEEK)
    for t in (WEEK - 1.0, float("nan")):
        with pytest.raises(EvaluationError, match="before the ranker's time"):
            rank(0, t)
    assert rank(0, WEEK).thread_ids == rank(0).thread_ids


def test_model_ranker_refuses_posts_with_no_thread_before_its_time(scored):
    params, store, week_topics, train_ds, _ = scored
    with pytest.raises(EvaluationError, match="no thread has a post before"):
        build_model_ranker(params, store, week_topics, train_ds, 100.0)


def test_rank_threads_refuses_top_k_below_one():
    with pytest.raises(ValueError, match="top_k must be >= 1"):
        _rank_by_distance(np.zeros(3), np.array([0]), np.zeros((1, 2)), top_k=0)


# queries


def test_split_and_event_queries(course2):
    test = Dataset([make_event(0, 1, 2, 10.0), make_event(1, 0, 3, 11.0),
                    make_event(2, 1, 4, 12.0), make_event(3, 1, 2, 13.0)], 2, 5, course2)
    assert split_queries(test, 5.0) == [(0, 5.0, {3}), (1, 5.0, {2, 4})]
    assert event_queries(test) == [(1, 10.0, {2}), (0, 11.0, {3}), (1, 12.0, {4}),
                                   (1, 13.0, {2})]


# average precision


def test_average_precision_refuses_cutoff_below_one():
    with pytest.raises(ValueError, match="n_cutoff must be >= 1"):
        average_precision([1, 2], {1}, 0)


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
    report = evaluate(lambda s, t: rankings[s],
                      split_queries(Dataset(test_events, 2, 8, course2), 10.0), n_cutoff=5)
    # user 0: relevant {1, 3} hit at ranks 1 and 2 -> AP 1.0; user 1: 0.0
    assert report.per_user_ap == {0: 1.0, 1: 0.0}
    assert report.map_at_n == pytest.approx(0.5)
    assert report.users_evaluated == 2


def test_evaluate_reports_the_interval_and_the_nonzero_share(course2):
    test_events = [make_event(i, i, i % 4, 10.0 + i) for i in range(8)]
    report = evaluate(lambda s, t: [0, 1, 2, 3],
                      split_queries(Dataset(test_events, 8, 4, course2), 10.0), n_cutoff=2)
    aps = list(report.per_user_ap.values())
    assert aps == [1.0, 0.5, 0.0, 0.0] * 2
    assert report.nonzero_ap_share == 0.5
    assert report.map_ci95 == bootstrap_interval(aps)
    lo, hi = report.map_ci95
    assert 0.0 <= lo < report.map_at_n < hi <= 1.0


def _splitmix64(count):
    """SplitMix64 from seed 0 in Python integers, one output at a time."""
    mask, state, out = (1 << 64) - 1, 0, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_is_the_reference_stream():
    # the first output from seed 0 is the published one
    assert recommend.splitmix64(1)[0] == 0xE220A8397B1DCDAF
    assert recommend.splitmix64(5000).tolist() == _splitmix64(5000)


def test_bootstrap_interval_is_the_percentiles_of_resampled_means():
    values = [0.0] * 19 + [1.0]
    stream = _splitmix64(recommend.BOOTSTRAP_DRAWS * 20)
    draws = [[z % 20 for z in stream[i:i + 20]] for i in range(0, len(stream), 20)]
    means = [np.mean([values[i] for i in row]) for row in draws]
    assert bootstrap_interval(values) == sorted(means)[50:-50:1900]
    assert bootstrap_interval(values) == pytest.approx(np.percentile(means, [2.5, 97.5]))
    # one student of 20 with non-zero AP: resamples without them are common
    assert bootstrap_interval(values)[0] == 0.0
    assert bootstrap_interval([0.25] * 7) == [0.25, 0.25]
    # a fixed seed: the same values, the same bytes
    rng = np.random.default_rng(5)
    more = rng.random(138).tolist()
    assert bootstrap_interval(more) == bootstrap_interval(list(more))


def test_evaluate_adds_the_means_left_to_right():
    # student 1's APs are 2/3, 0.3667 and 0.2. Python 3.12's sum() makes their
    # mean 0.4111111111111111 and the MAP 0.3680555555555556; adding in order
    # gives the values below on every version
    queries = [(0, 1.0, {3, 4}), (1, 1.0, {0, 1, 5}), (1, 2.0, {2, 4}), (1, 3.0, {4})]
    report = evaluate(lambda s, t: list(range(10)), queries, n_cutoff=5)
    assert report.per_user_ap == {0: 0.325, 1: 0.41111111111111104}
    assert report.map_at_n == 0.3680555555555555


def test_evaluate_rejects_empty_window(course2):
    with pytest.raises(EvaluationError):
        evaluate(lambda s, t: [], split_queries(Dataset([], 1, 1, course2), 0.0), n_cutoff=5)


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
    week_topics = np.array([lda_infer_batch(lda, [term_frequency(doc, vocab)])[0]
                            for doc in tiny_ds.course.week_docs])
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=0)
    features = train.prepare_event_features(tiny_ds, lda, vocab, week_topics, cfg)
    params, store = train.fit(features, cfg)
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
    week_topics = np.array([lda_infer_batch(lda, [term_frequency(doc, vocab)])[0]
                            for doc in train_ds.course.week_docs])
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=0)
    features = train.prepare_event_features(train_ds, lda, vocab, week_topics, cfg)
    params, store = train.fit(features, cfg)
    rank_fn = build_model_ranker(params, store, week_topics, train_ds, WEEK)
    report = evaluate(rank_fn, split_queries(test_ds, WEEK), n_cutoff=5)
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
    week_topics = np.array([lda_infer_batch(lda, [term_frequency(doc, vocab)])[0]
                            for doc in train_ds.course.week_docs])
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=0)
    features = train.prepare_event_features(train_ds, lda, vocab, week_topics, cfg)
    params, store = train.fit(features, cfg)
    rank_fn = build_model_ranker(params, store, week_topics,
                                 events_before(tiny_ds, 2 * WEEK), WEEK)
    report = evaluate(rank_fn, event_queries(test_ds), n_cutoff=5, method="model-per-event")
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
    queries = split_queries(Dataset(test_events, 1, 3, course2), 0.0)
    report = evaluate(lambda s, t: [1, 2], queries, n_cutoff=5, method="pop")
    jpath = tmp_path / "report.json"
    recommend.write_report_json(report, jpath)
    payload = json.loads(jpath.read_text())
    assert payload["method"] == "pop"
    assert payload["map_at_n"] == 1.0
    assert payload["per_user_ap"] == {"0": 1.0}
