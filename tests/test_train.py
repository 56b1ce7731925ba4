import copy
from dataclasses import replace

import numpy as np
import pytest

from threadrec import train
from threadrec.corpus import Dataset, ThreadEventIndex
from threadrec.model import (TENSOR_NAMES, AblationFlags, DynamicStateStore, ModelParams,
                             assign_course_topic, event_grads, excitation)
from threadrec.text import build_vocabulary, lda_fit, lda_infer, term_frequency
from threadrec.train import (Adam, TrainConfig, TrainingDiverged, clip_gradients,
                             gradient_check, mean_event_gap, random_event, t_batch)

from conftest import WEEK, make_event


# t-batching


def test_t_batch_oracle():
    events = [make_event(0, 0, 0, 1.0), make_event(1, 0, 1, 2.0),
              make_event(2, 1, 0, 3.0)]
    assert t_batch(events) == [[0], [1, 2]]


def test_t_batch_chain():
    # same student repeatedly: every event lands in its own batch
    events = [make_event(i, 0, i, float(i)) for i in range(4)]
    assert t_batch(events) == [[0], [1], [2], [3]]


def test_t_batch_invariants_random():
    rng = np.random.default_rng(0)
    events = []
    for i in range(400):
        events.append(make_event(i, int(rng.integers(20)), int(rng.integers(30)),
                                 float(i)))
    batches = t_batch(events)
    last_batch_student = {}
    last_batch_thread = {}
    seen = []
    for b, batch in enumerate(batches):
        students = [events[i].student_id for i in batch]
        threads = [events[i].thread_id for i in batch]
        assert len(set(students)) == len(students)
        assert len(set(threads)) == len(threads)
        for i in batch:
            ev = events[i]
            expect = 1 + max(last_batch_student.get(ev.student_id, -1),
                             last_batch_thread.get(ev.thread_id, -1))
            assert b == expect
            last_batch_student[ev.student_id] = b
            last_batch_thread[ev.thread_id] = b
            seen.append(i)
    assert sorted(seen) == list(range(400))
    # flattened batch order preserves each entity's chronology
    pos = {i: k for k, i in enumerate(seen)}
    by_entity = {}
    for i, ev in enumerate(events):
        by_entity.setdefault(("s", ev.student_id), []).append(i)
        by_entity.setdefault(("p", ev.thread_id), []).append(i)
    for ids in by_entity.values():
        ranks = [pos[i] for i in ids]
        assert ranks == sorted(ranks)


# config


def test_config_validation():
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(embed_dim=0)
    with pytest.raises(ValueError):
        TrainConfig(activation="step")
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=-2.0)


def test_config_from_mapping_coerces_types():
    cfg = TrainConfig.from_mapping({"epochs": "7", "learning_rate": "0.01",
                                    "no_text_features": "true", "seed": "3"})
    assert cfg.epochs == 7
    assert cfg.learning_rate == 0.01
    assert cfg.no_text_features is True
    assert cfg.seed == 3
    with pytest.raises(ValueError):
        TrainConfig.from_mapping({"not_a_key": "1"})
    with pytest.raises(ValueError):
        TrainConfig.from_mapping({"no_text_features": "maybe"})


def test_config_flags_property():
    cfg = TrainConfig(no_thread_projection=True)
    assert cfg.flags.no_thread_projection
    assert cfg.flags.active() == ["no_thread_projection"]


def test_ablation_variant_builder():
    base = TrainConfig()
    cfg = train.ablation_variant(base, "no_student_projection")
    assert cfg.no_student_projection and not base.no_student_projection
    full = train.ablation_variant(base, "full")
    assert full.flags.active() == []
    with pytest.raises(ValueError):
        train.ablation_variant(base, "nope")
    assert train.ABLATION_VARIANTS[0] == "full"
    assert len(train.ABLATION_VARIANTS) == 6


def test_mean_event_gap():
    events = [make_event(0, 0, 0, 0.0), make_event(1, 0, 0, 10.0),
              make_event(2, 0, 0, 30.0)]
    assert mean_event_gap(events) == 15.0
    assert mean_event_gap(events[:1]) == 1.0


# optimizer pieces


def test_adam_first_step_is_signed_learning_rate():
    rng = np.random.default_rng(1)
    params = ModelParams.init(rng, 2, 2, 2, 2, 2)
    before = params.predictor.copy()
    grads = {name: np.zeros_like(params.tensor(name)) for name in TENSOR_NAMES}
    grads["predictor"][0, 0] = 0.5
    opt = Adam(params, learning_rate=0.001)
    opt.step(params, grads)
    moved = before[0, 0] - params.predictor[0, 0]
    assert moved == pytest.approx(0.001, rel=1e-6)
    # untouched entries stay put
    assert params.predictor[1, 1] == before[1, 1]


def test_clip_gradients_scales_to_max_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    total = clip_gradients(grads, 1.0)
    assert total == pytest.approx(5.0)
    norm_after = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert norm_after == pytest.approx(1.0)
    grads2 = {"a": np.array([0.3])}
    assert clip_gradients(grads2, 1.0) == pytest.approx(0.3)
    assert grads2["a"][0] == 0.3
    # zero max norm disables clipping
    grads3 = {"a": np.array([100.0])}
    clip_gradients(grads3, 0.0)
    assert grads3["a"][0] == 100.0


# gradient checking


def test_gradient_check_passes_on_random_events(small_params):
    rng = np.random.default_rng(2)
    for i in range(6):
        ev, store = random_event(rng, small_params, cold_start=(i % 3 == 2))
        assert gradient_check(small_params, ev, store) <= 1e-4


def test_gradient_check_catches_corrupted_gradients(small_params):
    rng = np.random.default_rng(3)
    ev, store = random_event(rng, small_params)
    grads = small_params.zero_grads()
    event_grads(ev, store, small_params, grads, AblationFlags())
    grads["predictor"] = -grads["predictor"]  # sign flip
    err = gradient_check(small_params, ev, store, analytic=grads)
    assert err > 1e-2


def test_gradient_check_restores_params(small_params):
    rng = np.random.default_rng(4)
    ev, store = random_event(rng, small_params)
    before = {name: small_params.tensor(name).copy() for name in TENSOR_NAMES}
    gradient_check(small_params, ev, store)
    for name in TENSOR_NAMES:
        assert np.array_equal(before[name], small_params.tensor(name))


def test_regularizer_gradient_vanishes_when_lambdas_zero(small_params):
    rng = np.random.default_rng(5)
    params = small_params.copy()
    params.lambda_student = 0.0
    params.lambda_thread = 0.0
    ev, store = random_event(rng, params)
    grads = params.zero_grads()
    event_grads(ev, store, params, grads, AblationFlags())
    # with no smoothness penalty the prediction term cannot reach the
    # recurrent update weights inside one batch
    assert np.abs(grads["student_update"]).max() <= 1e-12
    assert np.abs(grads["thread_update"]).max() <= 1e-12
    assert np.abs(grads["predictor"]).max() > 0


# fitting helpers


def _small_pipeline(ds):
    docs = [ev.tokens for ev in ds.events] + ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=1)
    tf_docs = [term_frequency(doc, vocab) for doc in docs]
    lda = lda_fit(tf_docs, 2, iters=30, seed=0, vocab_size=len(vocab))
    week_topics = [lda_infer(lda, term_frequency(doc, vocab))
                   for doc in ds.course.week_docs]
    return lda, vocab, week_topics


def test_prepare_event_features(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, topic_infer_iters=10)
    feats, trackers = train.prepare_event_features(tiny_ds, lda, vocab,
                                                   week_topics, cfg)
    time_scale = trackers.time_scale
    assert time_scale == mean_event_gap(tiny_ds.events)
    assert len(feats) == len(tiny_ds.events)
    first = feats[0]
    # first event: elapsed times measured from zero, no previous thread
    assert first.delta_student == pytest.approx(100.0 / time_scale)
    assert first.delta_thread == pytest.approx(100.0 / time_scale)
    assert first.last_thread is None
    assert first.week == 0  # no prior topic vector: week of the timestamp
    assert first.excitation_value == 0.0
    # student 0 returns to thread 0 at event 4 after others posted there
    revisit = feats[4]
    assert revisit.last_thread == 0
    assert revisit.excitation_value > 0.0
    assert revisit.delta_student == pytest.approx((tiny_ds.events[4].timestamp - 100.0)
                                                  / time_scale)
    # weeks come from the previous post's topics once history exists
    assert 0 <= revisit.week < tiny_ds.course.num_weeks
    for f in feats:
        assert abs(float(np.sum(f.theta)) - 1.0) < 1e-9


# the single replay against the per-dict feature loop and the per-epoch
# tracker writes it replaced


def reference_features(ds, lda, vocab, week_topics, config):
    time_scale = mean_event_gap(ds.events)
    index = ThreadEventIndex(ds)
    iters = config.topic_infer_iters
    last_t_student, last_t_thread, last_theta, last_thread = {}, {}, {}, {}
    feats = []
    for ev in ds.events:
        theta = lda_infer(lda, term_frequency(ev.tokens, vocab), iters=iters,
                          burn_in=iters // 2)
        prev_theta = last_theta.get(ev.student_id)
        if prev_theta is None:
            week = ds.course.week_of(ev.timestamp)
        else:
            week = assign_course_topic(prev_theta, week_topics)
        hist = index.history(ev.student_id, ev.thread_id, ev.timestamp)
        exc = excitation(hist, ev.timestamp, config.post_decay, config.reply_decay,
                         time_scale)
        feats.append(train.EventFeatures(
            student=ev.student_id, thread=ev.thread_id,
            last_thread=last_thread.get(ev.student_id), theta=theta.probs,
            delta_student=(ev.timestamp - last_t_student.get(ev.student_id, 0.0)) / time_scale,
            delta_thread=(ev.timestamp - last_t_thread.get(ev.thread_id, 0.0)) / time_scale,
            week=week, excitation_value=exc, timestamp=ev.timestamp, post_id=ev.post_id,
        ))
        last_t_student[ev.student_id] = ev.timestamp
        last_t_thread[ev.thread_id] = ev.timestamp
        last_theta[ev.student_id] = theta
        last_thread[ev.student_id] = ev.thread_id
    return feats, time_scale


def reference_trackers(ds, feats, time_scale, num_topics, epochs):
    """The tracker writes fit made after every t-batch of every epoch, on a
    store made fresh for each epoch."""
    for _ in range(epochs):
        store = DynamicStateStore(ds.num_students, ds.num_threads, 1, num_topics, time_scale)
        for batch in t_batch(ds.events):
            for f in (feats[i] for i in batch):
                store.student_last_t[f.student] = f.timestamp
                store.student_seen[f.student] = True
                store.thread_last_t[f.thread] = f.timestamp
                store.thread_seen[f.thread] = True
                store.student_last_theta[f.student] = f.theta
                store.student_last_thread[f.student] = f.thread
    return store


TRACKERS = ("student_last_t", "thread_last_t", "student_seen", "thread_seen",
            "student_last_theta", "student_last_thread")


def assert_same_features(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        for name in ("student", "thread", "last_thread", "delta_student", "delta_thread",
                     "week", "excitation_value", "timestamp", "post_id"):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(a.theta, b.theta)


def assert_same_trackers(got, ref):
    for name in TRACKERS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.time_scale == ref.time_scale


@pytest.fixture
def replay_ds(course2):
    """Five students and five threads over both weeks. Student 4 never
    posts (cold start throughout); student 3 first posts in week two;
    student 0 returns to thread 0 after replies and posts by others; two
    posts share a timestamp."""
    s = [(0, 0, 0, 100.0, None), (1, 1, 0, 200.0, 0), (2, 2, 1, 200.0, None),
         (3, 1, 1, 350.0, 2), (4, 2, 0, 500.0, 1), (5, 0, 2, 900.0, None),
         (6, 0, 0, WEEK + 50.0, 4), (7, 3, 2, WEEK + 60.0, 5), (8, 1, 3, WEEK + 400.0, None),
         (9, 3, 0, WEEK + 400.0, 6), (10, 0, 3, WEEK + 800.0, 8), (11, 2, 2, WEEK + 900.0, 7)]
    events = [make_event(pid, st, th, t, parent=parent) for pid, st, th, t, parent in s]
    return Dataset(events, 5, 5, course2, list(range(5)), list(range(5)))


@pytest.mark.parametrize("name", ["tiny_ds", "replay_ds"])
def test_features_match_dict_replay(name, request):
    ds = request.getfixturevalue(name)
    lda, vocab, week_topics = _small_pipeline(ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=10)
    feats, trackers = train.prepare_event_features(ds, lda, vocab, week_topics, cfg)
    ref_feats, time_scale = reference_features(ds, lda, vocab, week_topics, cfg)
    assert_same_features(feats, ref_feats)
    assert any(f.last_thread is None for f in feats[1:])
    assert any(f.excitation_value > 0.0 for f in feats)
    ref_store = reference_trackers(ds, ref_feats, time_scale, lda.num_topics, 1)
    assert_same_trackers(trackers, ref_store)

    snapshot = (copy.deepcopy(feats), copy.deepcopy(trackers))
    for flags in [AblationFlags()] + [AblationFlags.from_names([n])
                                      for n in AblationFlags.NAMES]:
        run = replace(cfg, **{n: True for n in flags.active()})
        _, store = train.fit(ds, lda, vocab, week_topics, run, features=(feats, trackers))
        assert_same_trackers(store, reference_trackers(ds, ref_feats, time_scale,
                                                       lda.num_topics, run.epochs))
    # six fits later the shared features are as they were prepared
    assert_same_features(feats, snapshot[0])
    for name, value in vars(snapshot[1]).items():
        assert np.array_equal(getattr(trackers, name), value), name


def test_fit_ignores_learning_when_rate_is_tiny(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, learning_rate=1e-16,
                      topic_infer_iters=5, seed=1)
    params, store = train.fit(tiny_ds, lda, vocab, week_topics, cfg)
    rng = np.random.default_rng(cfg.seed)
    init = ModelParams.init(rng, 3, lda.num_topics, tiny_ds.course.num_weeks,
                            tiny_ds.num_students, tiny_ds.num_threads,
                            init_std=cfg.init_std)
    for name in TENSOR_NAMES:
        assert np.abs(params.tensor(name) - init.tensor(name)).max() <= 1e-12


def test_fit_is_deterministic(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=4)
    a_params, a_store = train.fit(tiny_ds, lda, vocab, week_topics, cfg)
    b_params, b_store = train.fit(tiny_ds, lda, vocab, week_topics, cfg)
    for name in TENSOR_NAMES:
        assert np.array_equal(a_params.tensor(name), b_params.tensor(name))
    assert np.array_equal(a_store.student_vecs, b_store.student_vecs)
    assert np.array_equal(a_store.thread_vecs, b_store.thread_vecs)


def test_fit_accepts_precomputed_features(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=4)
    feats = train.prepare_event_features(tiny_ds, lda, vocab, week_topics, cfg)
    # features prepared for one embedding size serve any other
    for embed_dim in (3, 4):
        run = replace(cfg, embed_dim=embed_dim)
        a_params, a_store = train.fit(tiny_ds, lda, vocab, week_topics, run)
        b_params, b_store = train.fit(tiny_ds, lda, vocab, week_topics, run, features=feats)
        for name in TENSOR_NAMES:
            assert np.array_equal(a_params.tensor(name), b_params.tensor(name))
        assert b_store.student_vecs.shape == (3, embed_dim)
        assert np.array_equal(a_store.student_vecs, b_store.student_vecs)
        assert np.array_equal(a_store.thread_vecs, b_store.thread_vecs)


def test_fit_training_states_update(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5, seed=0)
    params, store = train.fit(tiny_ds, lda, vocab, week_topics, cfg)
    # every student and thread with a training post has been marked seen
    assert store.student_seen.all()
    assert list(store.thread_seen) == [True, True, True, True]
    assert store.student_last_thread[0] == 2
    assert np.abs(store.student_vecs).sum() > 0


def test_fit_frozen_states_under_full_dynamic_ablation(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5, seed=0,
                      no_dynamic_student=True, no_dynamic_thread=True)
    params, store = train.fit(tiny_ds, lda, vocab, week_topics, cfg)
    assert np.all(store.student_vecs == 0.0)
    assert np.all(store.thread_vecs == 0.0)
    assert store.student_seen.all()  # trackers still advance


def test_fit_writes_log(tmp_path, tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=3, embed_dim=3, topic_infer_iters=5)
    log = tmp_path / "log.csv"
    train.fit(tiny_ds, lda, vocab, week_topics, cfg, log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,seconds"
    assert len(lines) == 4
    float(lines[1].split(",")[1])  # parses back


def test_fit_trajectory_sink(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5)
    sink = []
    train.fit(tiny_ds, lda, vocab, week_topics, cfg, trajectory_sink=sink)
    # two rows (student, thread) per event, final epoch only
    assert len(sink) == 2 * len(tiny_ds.events)
    kinds = {row[0] for row in sink}
    assert kinds == {"student", "thread"}
    assert all(len(row) == 3 + 3 for row in sink)


def test_fit_raises_on_divergence(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=3, embed_dim=3, topic_infer_iters=5,
                      learning_rate=1e200, clip_norm=0.0)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train.fit(tiny_ds, lda, vocab, week_topics, cfg)


def test_fit_validates_week_topics(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5)
    with pytest.raises(ValueError):
        train.fit(tiny_ds, lda, vocab, week_topics[:1], cfg)
