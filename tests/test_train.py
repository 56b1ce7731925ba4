import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import expit

from threadrec import train
from threadrec.corpus import Dataset, ThreadEventIndex
from threadrec.model import (TENSOR_NAMES, AblationFlags, DynamicStateStore, EventFeatures,
                             ModelParams, assign_course_topic, batch_grads, excitation)
from threadrec.text import build_vocabulary, lda_fit, lda_infer, term_frequency
from threadrec.train import (Adam, TrainConfig, TrainingDiverged, clip_gradients,
                             gradient_check, mean_event_gap, t_batch)

from conftest import WEEK, make_event, random_batch


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
        batch, store = random_batch(rng, small_params, cold_start=(i % 3 == 2))
        assert gradient_check(small_params, batch, store) <= 1e-4


def test_gradient_check_catches_corrupted_gradients(small_params):
    rng = np.random.default_rng(3)
    batch, store = random_batch(rng, small_params)
    grads = small_params.zero_grads()
    batch_grads(batch, store, small_params, grads, AblationFlags())
    grads["predictor"] = -grads["predictor"]  # sign flip
    err = gradient_check(small_params, batch, store, analytic=grads)
    assert err > 1e-2


def test_gradient_check_restores_params(small_params):
    rng = np.random.default_rng(4)
    batch, store = random_batch(rng, small_params)
    before = {name: small_params.tensor(name).copy() for name in TENSOR_NAMES}
    gradient_check(small_params, batch, store)
    for name in TENSOR_NAMES:
        assert np.array_equal(before[name], small_params.tensor(name))


def test_regularizer_gradient_vanishes_when_lambdas_zero(small_params):
    rng = np.random.default_rng(5)
    params = small_params.copy()
    params.lambda_student = 0.0
    params.lambda_thread = 0.0
    batch, store = random_batch(rng, params)
    grads = params.zero_grads()
    batch_grads(batch, store, params, grads, AblationFlags())
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
    first = feats.take(0)
    # first event: elapsed times measured from zero, no previous thread
    assert first.delta_student == pytest.approx(100.0 / time_scale)
    assert first.delta_thread == pytest.approx(100.0 / time_scale)
    assert first.last_thread == -1
    assert first.week == 0  # no prior topic vector: week of the timestamp
    assert first.excitation_value == 0.0
    # student 0 returns to thread 0 at event 4 after others posted there
    revisit = feats.take(4)
    assert revisit.last_thread == 0
    assert revisit.excitation_value > 0.0
    assert revisit.delta_student == pytest.approx((tiny_ds.events[4].timestamp - 100.0)
                                                  / time_scale)
    # weeks come from the previous post's topics once history exists
    assert 0 <= revisit.week < tiny_ds.course.num_weeks
    for theta in feats.theta:
        assert abs(float(np.sum(theta)) - 1.0) < 1e-9


# the single replay against the per-dict feature loop and the per-epoch
# tracker writes it replaced


def reference_features(ds, lda, vocab, week_topics, config):
    time_scale = mean_event_gap(ds.events)
    index = ThreadEventIndex(ds)
    iters = config.topic_infer_iters
    last_t_student, last_t_thread, last_theta, last_thread = {}, {}, {}, {}
    rows = []
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
        rows.append((ev.student_id, ev.thread_id, last_thread.get(ev.student_id, -1),
                     theta.probs,
                     (ev.timestamp - last_t_student.get(ev.student_id, 0.0)) / time_scale,
                     (ev.timestamp - last_t_thread.get(ev.thread_id, 0.0)) / time_scale,
                     week, exc, ev.timestamp, ev.post_id))
        last_t_student[ev.student_id] = ev.timestamp
        last_t_thread[ev.thread_id] = ev.timestamp
        last_theta[ev.student_id] = theta
        last_thread[ev.student_id] = ev.thread_id
    return train.EventFeatures(*(np.array(col) for col in zip(*rows))), time_scale


def reference_trackers(ds, feats, time_scale, num_topics, epochs):
    """The tracker writes fit made after every t-batch of every epoch, on a
    store made fresh for each epoch."""
    for _ in range(epochs):
        store = DynamicStateStore(ds.num_students, ds.num_threads, 1, num_topics, time_scale)
        for batch in t_batch(ds.events):
            for i in batch:
                s, c = feats.student[i], feats.thread[i]
                store.student_last_t[s] = feats.timestamp[i]
                store.student_seen[s] = True
                store.thread_last_t[c] = feats.timestamp[i]
                store.thread_seen[c] = True
                store.student_last_theta[s] = feats.theta[i]
                store.student_last_thread[s] = c
    return store


TRACKERS = ("student_last_t", "thread_last_t", "student_seen", "thread_seen",
            "student_last_theta", "student_last_thread")


def assert_same_features(got, ref):
    assert len(got) == len(ref)
    for f in fields(EventFeatures):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


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
    assert np.any(feats.last_thread[1:] == -1)
    assert np.any(feats.excitation_value > 0.0)
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
    assert lines[0] == "epoch,mean_loss,seconds,grad_norm_max,clipped_batches"
    assert len(lines) == 4
    float(lines[1].split(",")[1])  # parses back
    # every batch's pre-clip norm exceeds a clip norm this small
    batches = len(t_batch(tiny_ds.events))
    for clip_norm, clipped in ((1e-9, batches), (0.0, 0)):
        train.fit(tiny_ds, lda, vocab, week_topics, replace(cfg, clip_norm=clip_norm),
                  log_path=log)
        for line in log.read_text().strip().splitlines()[1:]:
            norm, count = line.split(",")[3:]
            assert float(norm) > 1e-9 and int(count) == clipped


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


# The per-event training graph and loop that batch_grads and fit replaced,
# kept as the reference they must match bit for bit.


def _ref_norm_grad(vec):
    n = float(np.linalg.norm(vec))
    if n == 0.0:
        return 0.0, np.zeros_like(vec)
    return n, vec / n


def _ref_act(x, kind):
    return expit(x) if kind == "sigmoid" else np.tanh(x)


def _ref_act_deriv(out, kind):
    return out * (1.0 - out) if kind == "sigmoid" else 1.0 - out * out


def event_grads(feats, i, store, params, grads, flags):
    """Add event i's gradients into grads; return (loss, u_new, p_new)."""
    s, c, last = int(feats.student[i]), int(feats.thread[i]), int(feats.last_thread[i])
    delta, week = float(feats.delta_student[i]), int(feats.week[i])
    d, m, n = params.embed_dim, params.num_students, params.num_threads
    W = params.predictor
    u_vec = store.student_vecs[s]
    if flags.no_student_projection:
        u_hat = u_vec
    else:
        u_hat = (1.0 + params.time_context[:, 0] * delta + params.week_context[:, week]) * u_vec
    last_vec = np.zeros(d) if last < 0 else store.thread_vecs[last]
    q = u_hat @ W[:d]
    q = q + W[d + s]
    q = q + last_vec @ W[d + m:2 * d + m]
    if last >= 0:
        q = q + W[2 * d + m + last]
    q = q + params.predictor_bias
    p_vec = store.thread_vecs[c]
    z = float(feats.excitation_value[i])
    if flags.no_thread_projection or z == 0.0:
        p_hat = p_vec.copy()
    else:
        w = z / (1.0 + z)
        p_hat = w * u_vec + (1.0 - w) * p_vec
    target = np.zeros(n + d)
    target[c] = 1.0
    target[n:] = p_hat
    theta = np.zeros(params.num_topics) if flags.no_text_features else feats.theta[i]
    xu = np.concatenate([u_vec, p_vec, theta, [delta]])
    xp = np.concatenate([p_vec, u_vec, theta, [float(feats.delta_thread[i])]])
    u_new = _ref_act(xu @ params.student_update, params.activation)
    p_new = _ref_act(xp @ params.thread_update, params.activation)
    if flags.no_dynamic_student:
        u_new = u_vec
    if flags.no_dynamic_thread:
        p_new = p_vec
    pred_term, g_q = _ref_norm_grad(q - target)
    du, dp = u_new - u_vec, p_new - p_vec
    total = (pred_term + params.lambda_student * float(np.linalg.norm(du))
             + params.lambda_thread * float(np.linalg.norm(dp)))

    grads["predictor_bias"] += g_q
    Wg = grads["predictor"]
    Wg[:d] += np.outer(u_hat, g_q)
    Wg[d + s] += g_q
    Wg[d + m:2 * d + m] += np.outer(last_vec, g_q)
    if last >= 0:
        Wg[2 * d + m + last] += g_q
    if not flags.no_student_projection:
        g_gain = (W[:d] @ g_q) * u_vec
        grads["time_context"][:, 0] += g_gain * delta
        grads["week_context"][:, week] += g_gain
    for frozen, lam, jump, new, x, name in (
            (flags.no_dynamic_student, params.lambda_student, du, u_new, xu, "student_update"),
            (flags.no_dynamic_thread, params.lambda_thread, dp, p_new, xp, "thread_update")):
        norm, g_jump = _ref_norm_grad(jump)
        if not frozen and norm > 0.0:
            grads[name] += np.outer(x, lam * g_jump * _ref_act_deriv(new, params.activation))
    return total, u_new, p_new


def reference_fit(ds, features, config, num_topics):
    """fit's parameters, final store and mean losses, one event at a time."""
    feats, trackers = features
    params = ModelParams.init(
        np.random.default_rng(config.seed), config.embed_dim, num_topics,
        ds.course.num_weeks, ds.num_students, ds.num_threads, init_std=config.init_std,
        post_decay=config.post_decay, reply_decay=config.reply_decay,
        lambda_student=config.lambda_student, lambda_thread=config.lambda_thread,
        activation=config.activation)
    opt = Adam(params, config.learning_rate)
    store = copy.deepcopy(trackers)
    mean_losses = []
    for _ in range(config.epochs):
        store.student_vecs = np.zeros((ds.num_students, config.embed_dim))
        store.thread_vecs = np.zeros((ds.num_threads, config.embed_dim))
        epoch_loss = 0.0
        for batch in t_batch(ds.events):
            grads = params.zero_grads()
            writes = []
            for i in batch:
                loss, u_new, p_new = event_grads(feats, i, store, params, grads, config.flags)
                epoch_loss += loss
                writes.append((i, u_new, p_new))
            for i, u_new, p_new in writes:
                store.student_vecs[feats.student[i]] = u_new
                store.thread_vecs[feats.thread[i]] = p_new
            clip_gradients(grads, config.clip_norm)
            opt.step(params, grads)
        mean_losses.append(epoch_loss / len(feats))
    return params, store, mean_losses


@pytest.fixture
def batch_ds(course2):
    """Students 0, 1 and 2 leave thread 0 one after another while students
    6 and 7 keep threads 1 and 2 busy, so all three post again in one
    t-batch, each with thread 0 as previous thread and from the same
    course week: sums of three terms, where event order shows in the last
    bits. Student 0 then returns to thread 0 after two later posts and a
    reply (non-zero excitation); students 3 and 4 post once, cold."""
    s = [(0, 0, 0, 100.0, None), (1, 6, 1, 110.0, None), (2, 7, 2, 120.0, None),
         (3, 1, 0, 200.0, 0), (4, 6, 1, 210.0, 1), (5, 7, 2, 220.0, 2),
         (6, 2, 0, 300.0, 3), (7, 6, 1, 310.0, 4), (8, 7, 2, 320.0, 5),
         (9, 0, 1, 400.0, 7), (10, 1, 2, 410.0, 8), (11, 2, 3, 420.0, None),
         (12, 0, 0, WEEK + 50.0, 6), (13, 4, 5, WEEK + 60.0, None),
         (14, 3, 4, WEEK + 70.0, None)]
    events = [make_event(pid, st, th, t, parent=parent) for pid, st, th, t, parent in s]
    return Dataset(events, 8, 6, course2, list(range(8)), list(range(6)))


FLAG_SETS = [AblationFlags()] + [AblationFlags.from_names([n]) for n in AblationFlags.NAMES]


def _batched_features(ds):
    """Topic artifacts, a two-epoch config and the prepared features."""
    lda, vocab, week_topics = _small_pipeline(ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=10, lambda_student=0.7,
                      lambda_thread=0.4)
    features = train.prepare_event_features(ds, lda, vocab, week_topics, cfg)
    return lda, vocab, week_topics, cfg, features


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: "+".join(f.active()) or "full")
def test_batch_grads_match_per_event_loop_bitwise(batch_ds, flags, activation):
    feats = _batched_features(batch_ds)[-1][0]
    batches = [feats.take(b) for b in t_batch(batch_ds.events)]
    # a batch repeats a previous thread and a week three times: two terms
    # add the same in either order, three show the order
    assert any(np.bincount(b.last_thread[b.last_thread >= 0]).max(initial=0) >= 3
               for b in batches)
    assert any(np.bincount(b.week).max() >= 3 for b in batches)
    assert np.any(feats.last_thread == -1)
    assert np.any(feats.excitation_value == 0.0) and np.any(feats.excitation_value > 0.0)
    rng = np.random.default_rng(16)
    params = ModelParams.init(rng, 3, feats.theta.shape[1], 2, batch_ds.num_students,
                              batch_ds.num_threads, lambda_student=0.7, lambda_thread=0.4,
                              activation=activation)
    store = DynamicStateStore(batch_ds.num_students, batch_ds.num_threads, 3, 2)
    for batch, idx in zip(batches, t_batch(batch_ds.events)):
        store.student_vecs[:] = rng.uniform(-0.9, 0.9, store.student_vecs.shape)
        store.thread_vecs[:] = rng.uniform(-0.9, 0.9, store.thread_vecs.shape)
        ref = params.zero_grads()
        rows = [event_grads(feats, i, store, params, ref, flags) for i in idx]
        got = params.zero_grads()
        losses, u_new, p_new = batch_grads(batch, store, params, got, flags)
        assert np.array_equal(losses, [r[0] for r in rows])
        assert np.array_equal(u_new, [r[1] for r in rows])
        assert np.array_equal(p_new, [r[2] for r in rows])
        for name in TENSOR_NAMES:
            assert np.array_equal(got[name], ref[name]), name


@pytest.mark.parametrize("name", ["batch_ds", "replay_ds"])
def test_fit_matches_per_event_loop_bitwise(name, request, tmp_path):
    ds = request.getfixturevalue(name)
    lda, vocab, week_topics, cfg, features = _batched_features(ds)
    log = tmp_path / "log.csv"
    for flags in FLAG_SETS:
        for activation in ("sigmoid", "tanh"):
            run = replace(cfg, activation=activation, **{n: True for n in flags.active()})
            params, store = train.fit(ds, lda, vocab, week_topics, run, log_path=log,
                                      features=features)
            ref_params, ref_store, ref_losses = reference_fit(ds, features, run,
                                                              lda.num_topics)
            for tensor in TENSOR_NAMES:
                assert np.array_equal(params.tensor(tensor), ref_params.tensor(tensor))
            for state in ("student_vecs", "thread_vecs") + TRACKERS:
                assert np.array_equal(getattr(store, state), getattr(ref_store, state))
            logged = [line.split(",")[1] for line in log.read_text().splitlines()[1:]]
            assert logged == [repr(loss) for loss in ref_losses]


def test_exact_row_primitives():
    # batch_grads relies on these matching their one-row forms bit for bit;
    # a numpy or BLAS change that breaks one fails here by name
    rng = np.random.default_rng(17)
    x, W = rng.normal(size=(300, 10)), rng.normal(size=(10, 1333))
    g = rng.normal(size=(300, 1333))
    rows = np.matmul(x[:, None, :], W)[:, 0, :]
    assert all(np.array_equal(rows[i], x[i] @ W) for i in range(len(x))), "row products"
    mat_rows = np.matmul(W, g[:, :, None])[:, :, 0]
    assert all(np.array_equal(mat_rows[i], W @ g[i]) for i in range(len(g))), "matrix-rows"
    norms = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
    assert all(norms[i] == np.linalg.norm(g[i]) for i in range(len(g))), "row norms"
    outer = np.zeros((10, 1333))
    for i in range(len(x)):
        outer += np.outer(x[i], g[i])
    summed = np.stack([(x[:, j, None] * g).sum(axis=0) for j in range(10)])
    assert np.array_equal(summed, outer), "outer-product sums"
