import copy
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import expit

from threadrec import model, synth, train
from threadrec.corpus import Dataset, EmptyDatasetError, ThreadEventIndex
from threadrec.model import (TENSOR_NAMES, AblationFlags, DynamicStateStore, EventFeatures,
                             ModelParams, RowGrad, assign_course_topic, batch_grads,
                             dense_grads, excitation, predictor_rows)
from threadrec.text import (Vocabulary, build_vocabulary, course_topics, lda_fit,
                            lda_infer_batch, term_frequency)
from threadrec.train import (Adam, TrainConfig, TrainingDiverged, clip_gradients,
                             gradient_check, mean_event_gap, t_batch)

from conftest import WEEK, event_batches, make_event, nearest_week_loop, random_batch


# t-batching


def test_t_batch_oracle():
    # events as (student, thread): (0, 0), (0, 1), (1, 0)
    assert t_batch([0, 0, 1], [0, 1, 0]) == [[0], [1, 2]]


def test_t_batch_chain():
    # same student repeatedly: every event lands in its own batch
    assert t_batch([0] * 4, range(4)) == [[0], [1], [2], [3]]


def test_t_batch_invariants_random():
    rng = np.random.default_rng(0)
    events = []
    for i in range(400):
        events.append(make_event(i, int(rng.integers(20)), int(rng.integers(30)),
                                 float(i)))
    batches = event_batches(events)
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


def test_config_refuses_a_weight_scale_and_fold_in_too_small():
    with pytest.raises(ValueError, match="init_std must be positive"):
        TrainConfig(init_std=0.0)
    # a fold-in of one sweep would have no sweep after its burn-in
    with pytest.raises(ValueError, match="topic_infer_iters must be >= 2"):
        TrainConfig(topic_infer_iters=1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_refuses_non_finite_floats(value):
    floats = [f.name for f in fields(TrainConfig) if isinstance(getattr(TrainConfig(), f.name),
                                                               float)]
    assert len(floats) == 7
    for name in floats:
        with pytest.raises(ValueError, match="%s must be finite" % name):
            TrainConfig(**{name: value})


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
    grads = params.zero_grads()
    grads["predictor"].start(np.array([0]))
    grads["predictor"].values[0, 0] = 0.5
    opt = Adam(params, learning_rate=0.001)
    opt.step(params, grads)
    moved = before[0, 0] - params.predictor[0, 0]
    assert moved == pytest.approx(0.001, rel=1e-6)
    # untouched entries stay put
    assert params.predictor[1, 1] == before[1, 1]


def test_adam_learns_live_rows_from_the_gradient():
    # nobody names the rows to the optimizer: each step moves the rows of
    # its gradient, and a row it does not reach keeps p, m and v as they are
    rng = np.random.default_rng(1)
    params = ModelParams.init(rng, 2, 2, 2, 4, 4)
    ref_params = params.copy()
    opt, ref = Adam(params, 0.01), RefAdam(ref_params, 0.01)
    grads = params.zero_grads()
    for rows in ([1, 5], [0, 5]):
        dense = dense_zero_grads(params)
        for name in TENSOR_NAMES:
            dense[name][...] = rng.normal(size=dense[name].shape)
        outside = np.ones(len(params.predictor), dtype=bool)
        outside[rows] = False
        dense["predictor"][outside] = 0.0
        load_grads(grads, dense, np.array(rows))
        kept = [arr[outside].copy() for arr in (params.predictor, opt.m["predictor"],
                                                opt.v["predictor"])]
        opt.step(params, grads)
        ref.step(ref_params, dense, np.array(rows))
        for name in TENSOR_NAMES:
            assert np.array_equal(params.tensor(name), ref_params.tensor(name)), name
            assert np.array_equal(opt.m[name], ref.m[name]), name
            assert np.array_equal(opt.v[name], ref.v[name]), name
        for arr, before in zip((params.predictor, opt.m["predictor"], opt.v["predictor"]),
                               kept):
            assert arr[outside].tobytes() == before.tobytes()
    # row 1, reached by the first step only, keeps its first moments
    assert opt.m["predictor"][1].any() and not opt.m["predictor"][2].any()


def test_row_grad_scratch_is_zero_but_the_rows_take_wrote():
    rng = np.random.default_rng(4)
    shape = (40, 3000)  # a take of _STEP_BLOCK elements spans 11 or 12 rows
    grad = RowGrad(shape)
    grad.start(np.array([0, 3, 4, 11, 12, 25, 39]))
    grad.values[...] = rng.normal(size=grad.values.shape)
    grad.values[1, :5] = -0.0
    for idx in (range(0, 12), range(3, 8), range(10, 22), range(22, 34), range(28, 40),
                range(0, 1), range(39, 40)):
        block, held = grad.take(idx)
        wrote = np.isin(np.asarray(idx), grad.rows)
        assert held == wrote.sum()
        assert np.array_equal(block[wrote], grad.values[np.isin(grad.rows, idx)])
        rest = np.ones(grad._scratch.size, dtype=bool)
        rest[:block.size].reshape(block.shape)[wrote] = False
        scratch = grad._scratch[rest]
        assert not scratch.any() and not np.signbit(scratch).any(), idx
        # callers may overwrite the rows take wrote, as clipping squares the
        # block in place
        np.multiply(block, block, out=block)
        block[wrote] = -1.0


def test_clip_gradients_scales_to_max_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    total, scale = clip_gradients(grads, 1.0)
    assert total == pytest.approx(5.0)
    norm_after = np.sqrt(sum(float(np.sum((scale * g) * (scale * g))) for g in grads.values()))
    assert norm_after == pytest.approx(1.0)
    # the gradients are left for Adam.step to scale
    assert grads["a"].tolist() == [3.0, 0.0] and grads["b"].tolist() == [[4.0]]
    grads2 = {"a": np.array([0.3])}
    total2, scale2 = clip_gradients(grads2, 1.0)
    assert total2 == pytest.approx(0.3) and scale2 == 1.0
    assert grads2["a"][0] == 0.3
    # zero max norm disables clipping
    grads3 = {"a": np.array([100.0])}
    assert clip_gradients(grads3, 0.0)[1] == 1.0
    assert grads3["a"][0] == 100.0
    # a compact predictor gradient adds its rows' squares
    params = ModelParams.init(np.random.default_rng(3), 1, 1, 1, 1, 1)
    grads4 = params.zero_grads()
    grads4["predictor"].start(np.array([1]))
    grads4["time_context"][0, 0], grads4["predictor"].values[0, 1] = 3.0, 4.0
    assert clip_gradients(grads4, 1.0) == (total, scale)
    assert grads4["time_context"][0, 0] == 3.0
    assert dense_grads(grads4)["predictor"][1, 1] == 4.0


def test_clip_gradients_adds_the_square_sums_left_to_right():
    # Python 3.12's sum() of these six squares is 226.35604100000003; adding
    # them in order gives 226.356041 on every version
    values = [7.65, 0.121, 4.51, 7.24, 2.36, 9.46]
    total, scale = clip_gradients({str(i): np.array([v]) for i, v in enumerate(values)}, 1.0)
    in_order = 0.0
    for v in values:
        in_order += v * v
    assert in_order == 226.356041
    assert total == np.sqrt(in_order) and scale == 1.0 / total


@pytest.mark.parametrize("shape", [(3176, 1333), (1,), (7,), (129,), (1001,), (8193,),
                                   (32769,), (65537,), (300, 257)])
def test_square_sum_matches_numpy_pairwise_sum_bitwise(shape):
    # numpy's pairwise split is pinned here: if a numpy version splits
    # otherwise, this fails before any trained byte changes
    rng = np.random.default_rng(sum(shape))
    for magnitude in (1e-8, 1.0, 1e8):
        g = rng.normal(0.0, magnitude, size=shape) * np.exp(rng.normal(0.0, 3.0, size=shape))
        assert train._square_sum(g) == float(np.sum(g * g))
        if g.ndim == 2:
            # rows outside a compact gradient's rows hold zero gradients and
            # are skipped
            for share in (0.02, 0.3):
                reached = rng.random(shape[0]) < share
                g[~reached] = 0.0
                compact = row_grad(g, np.flatnonzero(reached))
                assert train._square_sum(compact) == float(np.sum(g * g))
                # skipping is exact: every square of an unreached row is +0.0
                assert train._square_sum(g) == float(np.sum(g * g))


def row_grad(dense, rows):
    """The RowGrad of a dense predictor gradient that is zero outside the
    sorted distinct rows."""
    grad = RowGrad(dense.shape)
    grad.start(rows)
    grad.values[...] = dense[rows]
    return grad


def dense_zero_grads(params):
    """A zero gradient set with a dense array for every tensor, the
    predictor's too."""
    return {name: np.zeros(params.tensor(name).shape) for name in TENSOR_NAMES}


def load_grads(grads, dense, rows):
    """Copy the dense gradient set into the gradient set grads, the
    predictor's as a RowGrad of the sorted distinct rows."""
    for name in TENSOR_NAMES:
        if name == "predictor":
            grads[name].start(rows)
            grads[name].values[...] = dense[name][rows]
        else:
            grads[name][...] = dense[name]


def _multi_slice_params(rng):
    """Parameters whose predictor spans several step slices and ends in a
    partial one."""
    params = ModelParams.init(rng, 3, 2, 2, 150, 250)
    assert params.predictor.size > 3 * train._STEP_BLOCK
    assert params.predictor.size % train._STEP_BLOCK != 0
    return params


def _sparse_grads(rng, params, step):
    """Gradients with whole rows and scattered entries exactly zero, at a
    scale that changes from step to step."""
    grads = {}
    for name in TENSOR_NAMES:
        shape = params.tensor(name).shape
        g = rng.normal(0.0, 10.0 ** (step % 4 - 2), size=shape)
        g[rng.random(shape) < 0.2] = 0.0
        if g.ndim == 2:
            g[rng.random(shape[0]) < 0.5] = 0.0
        grads[name] = g
    return grads


def _reach(rng, params, grads):
    """Pick 200 random predictor rows and the two embedding blocks as the
    rows this step's gradient reaches, zero the predictor gradient
    elsewhere, as a t-batch would leave it, and return the rows."""
    d, m = params.embed_dim, params.num_students
    rows = np.unique(np.concatenate([np.arange(d), np.arange(d + m, 2 * d + m),
                                     rng.choice(len(params.predictor), 200, replace=False)]))
    outside = np.ones(len(params.predictor), dtype=bool)
    outside[rows] = False
    grads["predictor"][outside] = 0.0
    return rows


@pytest.mark.parametrize("clip_norm", [0.0, 5.0])
def test_adam_step_matches_reference_bitwise(clip_norm):
    # steps given every row, then steps given the rows a batch would reach
    for named in (False, True):
        rng = np.random.default_rng(21)
        params = _multi_slice_params(rng)
        ref_params = params.copy()
        opt, ref = Adam(params, 0.01), RefAdam(ref_params, 0.01)
        grads = params.zero_grads()
        clipped, stepped = 0, []
        for step in range(12):
            ref_grads = _sparse_grads(rng, params, step)
            rows = np.arange(len(params.predictor))
            if named:
                rows = _reach(rng, params, ref_grads)
            load_grads(grads, ref_grads, rows)
            norm, scale = clip_gradients(grads, clip_norm)
            assert (norm, scale) == ref_clip_gradients(ref_grads, clip_norm)
            clipped += 0 < clip_norm < norm
            before = {name: g.copy() for name, g in dense_grads(grads).items()}
            opt.step(params, grads, scale)
            stepped.append(len(rows))
            ref.step(ref_params, ref_grads, rows)
            for name in TENSOR_NAMES:
                assert np.array_equal(params.tensor(name), ref_params.tensor(name)), name
                assert np.array_equal(opt.m[name], ref.m[name]), name
                assert np.array_equal(opt.v[name], ref.v[name]), name
                # the step left the gradient set as it was
                after = dense_grads(grads)[name]
                assert np.array_equal(after, before[name]), name
                assert np.array_equal(np.signbit(after), np.signbit(before[name])), name
        # with clipping on, every step but those at the smallest scale is clipped
        assert clipped == (9 if clip_norm else 0)
        # a step's rows span several gather blocks, all rows or some
        per_block = train._STEP_BLOCK // params.predictor.shape[1]
        assert min(stepped) > per_block
        assert (max(stepped) < len(params.predictor)) == named


def test_optimizer_allocates_no_tensor_sized_arrays():
    # steps given every row, then steps given the rows a batch would reach
    for named in (False, True):
        rng = np.random.default_rng(22)
        params = _multi_slice_params(rng)
        opt = Adam(params, 0.01)
        grads = params.zero_grads()
        sizes = []
        for step in range(3):
            dense = _sparse_grads(rng, params, step + 1)
            rows = np.arange(len(params.predictor))
            if named:
                rows = _reach(rng, params, dense)
            load_grads(grads, dense, rows)
            tracemalloc.start()
            try:
                opt.step(params, grads, clip_gradients(grads, 1e-3)[1])
                sizes.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the first step is the warm-up
        assert max(sizes[1:]) < params.predictor.nbytes // 4, sizes


def test_adam_holds_two_tensor_sets_and_clipping_none():
    params = _multi_slice_params(np.random.default_rng(23))
    tensors = sum(params.tensor(name).nbytes for name in TENSOR_NAMES)
    grads = params.zero_grads()
    tracemalloc.start()
    try:
        opt = Adam(params, 0.01)
        made = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clip_gradients(grads, 1.0)
        clipping = tracemalloc.get_traced_memory()[1] - made
    finally:
        tracemalloc.stop()
    # m and v live on mappings of their own, which tracemalloc does not see
    made += _moment_bytes(opt)
    # m and v besides the block buffers: no third set of tensors
    made -= opt._block.nbytes + opt._tmp.nbytes
    assert 2 * tensors <= made < 2 * tensors + params.predictor.nbytes // 4, made
    assert len(opt.m) == len(opt.v) == len(TENSOR_NAMES)
    # one block buffer of float64, under a third of the predictor, and some
    # 16 KiB of Python objects at most
    assert clipping < 8 * train._STEP_BLOCK + (1 << 14), clipping


def _moment_bytes(opt) -> int:
    return sum(arr.nbytes for moments in (opt.m, opt.v) for arr in moments.values())


def _resident_bytes() -> int:
    """This process's resident set, VmRSS of /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("/proc/self/status has no VmRSS")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux /proc")
def test_a_step_makes_resident_only_the_moment_rows_it_writes():
    rng = np.random.default_rng(24)
    params = ModelParams.init(rng, 10, 20, 14, 1100, 1000)
    assert params.predictor.nbytes >= 8 << 20
    # a few rows spread over the whole predictor, one in every 2 MB of it
    rows = np.linspace(0, len(params.predictor) - 1, 16).astype(np.intp)
    grads = params.zero_grads()
    grads["predictor"].start(rows)
    grads["predictor"].values[...] = rng.normal(size=grads["predictor"].values.shape)
    before = _resident_bytes()
    opt = Adam(params, 0.01)
    opt.step(params, grads)
    grown = _resident_bytes() - before
    # m and v of those rows, the step's block buffers and no whole moment
    assert grown < params.predictor.nbytes // 4, (grown, params.predictor.nbytes)
    assert np.flatnonzero(opt.m["predictor"].any(axis=1)).tolist() == rows.tolist()


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
    grads = dense_grads(grads)
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
    grads = dense_grads(grads)
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
    week_topics = np.array([lda_infer_batch(lda, [term_frequency(doc, vocab)])[0]
                            for doc in ds.course.week_docs])
    return lda, vocab, week_topics


def _prepared(ds, cfg):
    """The features of ds under _small_pipeline's topic model, for cfg."""
    return train.prepare_event_features(ds, *_small_pipeline(ds), cfg)


def test_prepare_event_features_refuses_an_empty_training_window(tiny_ds):
    empty = Dataset([], tiny_ds.num_students, tiny_ds.num_threads, tiny_ds.course)
    with pytest.raises(EmptyDatasetError, match="empty training window"):
        train.prepare_event_features(empty, *_small_pipeline(tiny_ds), TrainConfig())


def test_prepare_event_features(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, topic_infer_iters=10)
    prepared = train.prepare_event_features(tiny_ds, lda, vocab, week_topics, cfg)
    feats, trackers = prepared.events, prepared.trackers
    assert prepared.week_topics is week_topics
    assert (prepared.post_decay, prepared.reply_decay, prepared.topic_infer_iters) == (
        cfg.post_decay, cfg.reply_decay, cfg.topic_infer_iters)
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
        theta = lda_infer_batch(lda, [term_frequency(ev.tokens, vocab)], iters=iters)[0]
        prev_theta = last_theta.get(ev.student_id)
        if prev_theta is None:
            week = ds.course.week_of(ev.timestamp)
        else:
            week = nearest_week_loop(prev_theta, week_topics)
        hist = index.history(ev.student_id, ev.thread_id, ev.timestamp)
        exc = excitation(hist, ev.timestamp, config.post_decay, config.reply_decay,
                         time_scale)
        rows.append((ev.student_id, ev.thread_id, last_thread.get(ev.student_id, -1),
                     theta,
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
        for batch in event_batches(ds.events):
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


def test_replay_weeks_match_norm_loop_on_acceptance_course():
    """Every topic vector an algo_like(0.1) replay leaves as a student's
    last one gets the week the per-week norm loop picks, and so does every
    replayed post whose student posted before."""
    ds, _ = synth.generate(synth.algo_like(scale=0.1))
    docs = [ev.tokens for ev in ds.events] + ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=10)
    lda = lda_fit([term_frequency(doc, vocab) for doc in docs], 9, iters=10, seed=1,
                  vocab_size=len(vocab))
    week_topics = course_topics(ds.course, lda, vocab)
    feats = train.prepare_event_features(ds, lda, vocab, week_topics,
                                         TrainConfig(topic_infer_iters=4)).events
    weeks = set()
    for probs in np.unique(feats.theta, axis=0):
        week = assign_course_topic(probs, week_topics)
        assert week == nearest_week_loop(probs, week_topics)
        weeks.add(week)
    assert len(weeks) > 1
    last = {}
    for student, probs, week in zip(feats.student.tolist(), feats.theta, feats.week.tolist()):
        if student in last:
            assert week == nearest_week_loop(last[student], week_topics)
        last[student] = probs


@pytest.mark.parametrize("name", ["tiny_ds", "replay_ds"])
def test_features_match_dict_replay(name, request):
    ds = request.getfixturevalue(name)
    lda, vocab, week_topics = _small_pipeline(ds)
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=10)
    prepared = train.prepare_event_features(ds, lda, vocab, week_topics, cfg)
    feats, trackers = prepared.events, prepared.trackers
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
        _, store = train.fit(prepared, run)
        assert_same_trackers(store, reference_trackers(ds, ref_feats, time_scale,
                                                       lda.num_topics, run.epochs))
    # six fits later the shared features are as they were prepared
    assert_same_features(feats, snapshot[0])
    for name, value in vars(snapshot[1]).items():
        assert np.array_equal(getattr(trackers, name), value), name


def test_fit_ignores_learning_when_rate_is_tiny(tiny_ds):
    cfg = TrainConfig(epochs=2, embed_dim=3, learning_rate=1e-16,
                      topic_infer_iters=5, seed=1)
    features = _prepared(tiny_ds, cfg)
    params, store = train.fit(features, cfg)
    rng = np.random.default_rng(cfg.seed)
    init = ModelParams.init(rng, 3, features.week_topics.shape[1], tiny_ds.course.num_weeks,
                            tiny_ds.num_students, tiny_ds.num_threads,
                            init_std=cfg.init_std)
    for name in TENSOR_NAMES:
        assert np.abs(params.tensor(name) - init.tensor(name)).max() <= 1e-12


def test_fit_is_deterministic(tiny_ds):
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5, seed=4)
    a_params, a_store = train.fit(_prepared(tiny_ds, cfg), cfg)
    b_params, b_store = train.fit(_prepared(tiny_ds, cfg), cfg)
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
        own = train.prepare_event_features(tiny_ds, lda, vocab, week_topics, run)
        a_params, a_store = train.fit(own, run)
        b_params, b_store = train.fit(feats, run)
        for name in TENSOR_NAMES:
            assert np.array_equal(a_params.tensor(name), b_params.tensor(name))
        assert b_store.student_vecs.shape == (3, embed_dim)
        assert np.array_equal(a_store.student_vecs, b_store.student_vecs)
        assert np.array_equal(a_store.thread_vecs, b_store.thread_vecs)


def test_fit_training_states_update(tiny_ds):
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5, seed=0)
    params, store = train.fit(_prepared(tiny_ds, cfg), cfg)
    # every student and thread with a training post has been marked seen
    assert store.student_seen.all()
    assert list(store.thread_seen) == [True, True, True, True]
    assert store.student_last_thread[0] == 2
    assert np.abs(store.student_vecs).sum() > 0


def test_fit_frozen_states_under_full_dynamic_ablation(tiny_ds):
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5, seed=0,
                      no_dynamic_student=True, no_dynamic_thread=True)
    params, store = train.fit(_prepared(tiny_ds, cfg), cfg)
    assert np.all(store.student_vecs == 0.0)
    assert np.all(store.thread_vecs == 0.0)
    assert store.student_seen.all()  # trackers still advance


def test_fit_writes_log(tmp_path, tiny_ds):
    cfg = TrainConfig(epochs=3, embed_dim=3, topic_infer_iters=5)
    features = _prepared(tiny_ds, cfg)
    log = tmp_path / "log.csv"
    _, store = train.fit(features, cfg, log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == ("epoch,mean_loss,seconds,grad_norm_max,clipped_batches,"
                        "optimizer_seconds,stepped_rows,student_state_norm,"
                        "thread_state_norm,events_per_s")
    assert len(lines) == 4
    float(lines[1].split(",")[1])  # parses back
    rows = tiny_ds.num_students + tiny_ds.num_threads + 2 * cfg.embed_dim
    for line in lines[1:]:
        seconds, optimizer_seconds = float(line.split(",")[2]), float(line.split(",")[5])
        assert 0 <= optimizer_seconds <= seconds
        assert 2 * cfg.embed_dim < float(line.split(",")[6]) <= rows
        assert float(line.split(",")[9]) == pytest.approx(len(tiny_ds.events) / seconds,
                                                          rel=1e-3, abs=0.1)
    # the last epoch's mean state norms are those of the returned store,
    # over the students and threads the window has seen
    student_norm, thread_norm = lines[-1].split(",")[7:9]
    for logged, vecs, seen in ((student_norm, store.student_vecs, store.student_seen),
                               (thread_norm, store.thread_vecs, store.thread_seen)):
        assert seen.any() and float(logged) > 0.0
        assert float(logged) == pytest.approx(
            np.mean([np.linalg.norm(vec) for vec in vecs[seen]]), rel=1e-12)
    # every batch's pre-clip norm exceeds a clip norm this small
    batches = len(event_batches(tiny_ds.events))
    for clip_norm, clipped in ((1e-9, batches), (0.0, 0)):
        train.fit(features, replace(cfg, clip_norm=clip_norm), log_path=log)
        for line in log.read_text().strip().splitlines()[1:]:
            norm, count = line.split(",")[3:5]
            assert float(norm) > 1e-9 and int(count) == clipped


def test_fit_allocates_one_gradient_set(tiny_ds, monkeypatch):
    cfg = TrainConfig(epochs=3, embed_dim=3, topic_infer_iters=5)
    features = _prepared(tiny_ds, cfg)
    calls = []
    zero_grads = ModelParams.zero_grads

    def counted(self, *args):
        calls.append(1)
        return zero_grads(self, *args)

    monkeypatch.setattr(ModelParams, "zero_grads", counted)
    train.fit(features, cfg)
    assert len(event_batches(tiny_ds.events)) > 1
    assert len(calls) == 1


def test_fit_trajectory_sink(tiny_ds):
    cfg = TrainConfig(epochs=2, embed_dim=3, topic_infer_iters=5)
    sink = []
    train.fit(_prepared(tiny_ds, cfg), cfg, trajectory_sink=sink)
    # two rows (student, thread) per event, final epoch only
    assert len(sink) == 2 * len(tiny_ds.events)
    kinds = {row[0] for row in sink}
    assert kinds == {"student", "thread"}
    assert all(len(row) == 3 + 3 for row in sink)


def test_fit_raises_on_divergence(tiny_ds):
    cfg = TrainConfig(epochs=3, embed_dim=3, topic_infer_iters=5,
                      learning_rate=1e200, clip_norm=0.0)
    features = _prepared(tiny_ds, cfg)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train.fit(features, cfg)


def test_fit_raises_on_a_gradient_too_large_to_square(tiny_ds):
    # projected students of about 1e160 against a predictor of about 1e-10:
    # every loss is finite, but the gradient's sum of squares is not
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5, init_std=1e-10)
    features = _prepared(tiny_ds, cfg)
    features.events.delta_student[:] = 1e170
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged,
                                                   match="non-finite gradient at epoch 0"):
        train.fit(features, cfg)


def test_optimizer_walks_only_c_contiguous_tensors():
    # reshape would copy a strided tensor, and the step would write the copy
    with pytest.raises(ValueError, match="C-contiguous"):
        train._flat(np.zeros((3, 4))[:, ::2])


def test_fit_validates_week_topics(tiny_ds):
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5)
    with pytest.raises(ValueError):
        train.prepare_event_features(tiny_ds, lda, vocab, week_topics[:1], cfg)


def test_prepare_event_features_refuses_course_topics_of_another_width(tiny_ds):
    # one column of 1.0 is on the simplex but not the topic model's width,
    # which would broadcast silently against every post's topics
    lda, vocab, _ = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5)
    with pytest.raises(ValueError, match="course topics"):
        train.prepare_event_features(tiny_ds, lda, vocab, np.ones((2, 1)), cfg)


def test_prepare_event_features_refuses_a_vocabulary_of_another_size(tiny_ds):
    # a cut vocabulary still maps every word it keeps inside the topic
    # model, to the wrong columns
    lda, vocab, week_topics = _small_pipeline(tiny_ds)
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5)
    words = len(vocab)
    half = {w: i for w, i in vocab.word_to_index.items() if i < words // 2}
    more = {**vocab.word_to_index, "zqextra": words}
    for word_to_index in (half, more):
        other = Vocabulary(word_to_index, np.ones(len(word_to_index), dtype=np.int64))
        with pytest.raises(ValueError, match="vocabulary has %d words, the topic model %d"
                           % (len(word_to_index), words)):
            train.prepare_event_features(tiny_ds, lda, other, week_topics, cfg)


@pytest.mark.parametrize("field, other", [("post_decay", 0.25), ("reply_decay", 0.01),
                                          ("topic_infer_iters", 6)])
def test_fit_refuses_features_of_other_settings(tiny_ds, field, other):
    cfg = TrainConfig(epochs=1, embed_dim=3, topic_infer_iters=5)
    features = _prepared(tiny_ds, cfg)
    with pytest.raises(ValueError, match=field):
        train.fit(features, replace(cfg, **{field: other}))
    # seed, embedding size, flags, learning rate and epochs may differ
    train.fit(features, replace(cfg, seed=3, embed_dim=2, no_text_features=True,
                                learning_rate=0.01, epochs=2))


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


class RefAdam:
    """The lazy Adam step that Adam.step's blocked, gathered form must match
    bit for bit: the whole-tensor Adam expressions on every tensor but the
    predictor, and on the predictor's rows the step is given only, with the
    step count global. grads are dense and already clipped."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = learning_rate, beta1, beta2, eps, 0
        self.m = {name: np.zeros_like(params.tensor(name)) for name in TENSOR_NAMES}
        self.v = {name: np.zeros_like(params.tensor(name)) for name in TENSOR_NAMES}

    def step(self, params, grads, rows):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in TENSOR_NAMES:
            at = rows if name == "predictor" else slice(None)
            g = grads[name][at]
            m = self.beta1 * self.m[name][at] + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[name][at] + (1.0 - self.beta2) * g * g
            self.m[name][at], self.v[name][at] = m, v
            params.tensor(name)[at] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def ref_clip_gradients(grads, max_norm):
    """The clipping clip_gradients must match bit for bit, on dense
    gradients, which it scales in place: the norm, the square sums added
    left to right, and the factor."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    total = np.sqrt(total)
    scale = max_norm / total if 0 < max_norm < total else 1.0
    for g in grads.values():
        g *= scale
    return total, scale


def reference_rows(students, last_threads, params):
    """The predictor rows that events of these students and previous
    threads write, sorted: the two embedding blocks, each student's row
    and each previous thread's row."""
    d, m = params.embed_dim, params.num_students
    rows = set(range(d)) | set(range(d + m, 2 * d + m))
    rows |= {d + int(s) for s in students}
    rows |= {2 * d + m + int(c) for c in last_threads if c >= 0}
    return np.array(sorted(rows))


def reference_fit(ds, features, config, num_topics):
    """fit's parameters, final store and mean losses, one event at a time."""
    feats, trackers = features.events, features.trackers
    params = ModelParams.init(
        np.random.default_rng(config.seed), config.embed_dim, num_topics,
        ds.course.num_weeks, ds.num_students, ds.num_threads, init_std=config.init_std,
        post_decay=config.post_decay, reply_decay=config.reply_decay,
        lambda_student=config.lambda_student, lambda_thread=config.lambda_thread,
        activation=config.activation)
    opt = RefAdam(params, config.learning_rate)
    store = copy.deepcopy(trackers)
    mean_losses = []
    for _ in range(config.epochs):
        store.student_vecs = np.zeros((ds.num_students, config.embed_dim))
        store.thread_vecs = np.zeros((ds.num_threads, config.embed_dim))
        epoch_loss = 0.0
        for batch in event_batches(ds.events):
            grads = dense_zero_grads(params)
            writes = []
            for i in batch:
                loss, u_new, p_new = event_grads(feats, i, store, params, grads, config.flags)
                epoch_loss += loss
                writes.append((i, u_new, p_new))
            for i, u_new, p_new in writes:
                store.student_vecs[feats.student[i]] = u_new
                store.thread_vecs[feats.thread[i]] = p_new
            ref_clip_gradients(grads, config.clip_norm)
            opt.step(params, grads,
                     reference_rows(feats.student[batch], feats.last_thread[batch], params))
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


@pytest.fixture
def sparse_ds(batch_ds):
    """batch_ds's posts in a course that registers 60 students and 40
    threads, most of which never post: no t-batch reaches most of the
    predictor's rows."""
    return replace(batch_ds, num_students=60, num_threads=40, student_ids=list(range(60)),
                   thread_ids=list(range(40)))


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
    feats = _batched_features(batch_ds)[-1].events
    batches = [feats.take(b) for b in event_batches(batch_ds.events)]
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
    for batch, idx in zip(batches, event_batches(batch_ds.events)):
        store.student_vecs[:] = rng.uniform(-0.9, 0.9, store.student_vecs.shape)
        store.thread_vecs[:] = rng.uniform(-0.9, 0.9, store.thread_vecs.shape)
        ref = dense_zero_grads(params)
        rows = [event_grads(feats, i, store, params, ref, flags) for i in idx]
        got = params.zero_grads()
        losses, u_new, p_new = batch_grads(batch, store, params, got, flags)
        got = dense_grads(got)
        assert np.array_equal(losses, [r[0] for r in rows])
        assert np.array_equal(u_new, [r[1] for r in rows])
        assert np.array_equal(p_new, [r[2] for r in rows])
        for name in TENSOR_NAMES:
            assert np.array_equal(got[name], ref[name]), name
        # the rows the optimizer is told of hold every non-zero entry
        outside = np.ones(len(params.predictor), dtype=bool)
        outside[predictor_rows(batch, params)] = False
        assert not ref["predictor"][outside].any()


@pytest.mark.parametrize("name", ["batch_ds", "replay_ds", "sparse_ds"])
def test_fit_matches_per_event_loop_bitwise(name, request, tmp_path):
    ds = request.getfixturevalue(name)
    lda, vocab, week_topics, cfg, features = _batched_features(ds)
    log = tmp_path / "log.csv"
    clipped = 0
    for flags in FLAG_SETS:
        for activation in ("sigmoid", "tanh"):
            run = replace(cfg, activation=activation, **{n: True for n in flags.active()})
            params, store = train.fit(features, run, log_path=log)
            ref_params, ref_store, ref_losses = reference_fit(ds, features, run,
                                                              lda.num_topics)
            for tensor in TENSOR_NAMES:
                assert np.array_equal(params.tensor(tensor), ref_params.tensor(tensor))
            for state in ("student_vecs", "thread_vecs") + TRACKERS:
                assert np.array_equal(getattr(store, state), getattr(ref_store, state))
            logged = [line.split(",") for line in log.read_text().splitlines()[1:]]
            assert [row[1] for row in logged] == [repr(loss) for loss in ref_losses]
            clipped += sum(int(row[4]) for row in logged)
            # every step moves the rows its batch reaches, and no more
            feats = features.events
            reached = [len(reference_rows(feats.student[b], feats.last_thread[b], params))
                       for b in event_batches(ds.events)]
            assert float(logged[-1][6]) == sum(reached) / len(reached)
            if name == "sparse_ds":
                assert 2 * max(reached) < len(params.predictor)
    assert clipped > 0


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


# The dense predictor gradient that RowGrad replaced, frozen as the
# reference the compact path must match bit for bit: batch_grads into a
# dense dict, clipping's np.sum(g * g) over it, and the lazy Adam step on
# the rows the batch reaches.


def sum_at(index, rows, count):
    """(count, width) array whose row r sums, in batch order, the rows
    whose index is r."""
    out = np.zeros((count, rows.shape[1]))
    np.add.at(out, index, rows)
    return out


def dense_batch_grads(batch, store, params, grads, flags):
    """batch_grads with every gradient, the predictor's too, a dense array
    of grads."""
    d, m, n = params.embed_dim, params.num_students, params.num_threads
    delta = batch.delta_student[:, None]
    q, u_vec, u_hat, last_vec = model._predict_from_store(
        store, batch.student, delta, batch.week, batch.last_thread, params, flags)
    p_vec = store.thread_vecs[batch.thread]
    if flags.no_thread_projection:
        p_hat = p_vec
    else:
        p_hat = model.project_thread(u_vec, p_vec, batch.excitation_value[:, None])
    theta = np.zeros_like(batch.theta) if flags.no_text_features else batch.theta
    u_new, p_new, xu, xp = model._update_kernel(
        u_vec, p_vec, theta, batch.delta_student, batch.delta_thread, params)
    if flags.no_dynamic_student:
        u_new = u_vec
    if flags.no_dynamic_thread:
        p_new = p_vec
    residual = q
    residual[np.arange(len(batch)), batch.thread] -= 1.0
    residual[:, n:] -= p_hat
    du = u_new - u_vec
    dp = p_new - p_vec
    norm_q, norm_u, norm_p = (model._row_norms(residual), model._row_norms(du),
                              model._row_norms(dp))
    losses = norm_q + params.lambda_student * norm_u + params.lambda_thread * norm_p
    g_q = model._unit_rows(residual, norm_q)
    grads["predictor_bias"] += g_q.sum(axis=0)
    Wg = grads["predictor"]
    for j in range(d):
        Wg[j] += (u_hat[:, j, None] * g_q).sum(axis=0)
        Wg[d + m + j] += (last_vec[:, j, None] * g_q).sum(axis=0)
    Wg[d + batch.student] += g_q
    has_last = batch.last_thread >= 0
    last, at = np.unique(batch.last_thread[has_last], return_inverse=True)
    Wg[2 * d + m + last] += sum_at(at, g_q[has_last], len(last))
    if not flags.no_student_projection:
        g_uhat = np.matmul(params.predictor[:d], g_q[:, :, None])[:, :, 0]
        g_gain = g_uhat * u_vec
        grads["time_context"] += sum_at(np.zeros(len(batch), dtype=np.intp),
                                        g_gain * delta, 1).T
        grads["week_context"] += sum_at(batch.week, g_gain, params.num_weeks).T
    for name, lam, jump, norms, new, x in (
            ("student_update", params.lambda_student, du, norm_u, u_new, xu),
            ("thread_update", params.lambda_thread, dp, norm_p, p_new, xp)):
        moved = norms > 0.0
        g_jump = model._unit_rows(jump[moved], norms[moved])
        g_pre = lam * g_jump * model._act_deriv(new[moved], params.activation)
        grads[name] += (x[moved, :, None] * g_pre[:, None, :]).sum(axis=0)
    return losses, u_new, p_new


class Lockstep:
    """One parameter set trained by batch_grads, clip_gradients and
    Adam.step, and a copy trained by the frozen dense path, with every loss,
    state, gradient entry, stepped row, clip norm, parameter and moment
    asserted equal at every t-batch."""

    def __init__(self, params, learning_rate, clip_norm):
        self.params, self.ref_params = params, params.copy()
        self.opt = Adam(self.params, learning_rate)
        self.ref = RefAdam(self.ref_params, learning_rate)
        self.grads = params.zero_grads()
        self.clip_norm = clip_norm

    def batch(self, batch, store, flags=AblationFlags(), negative_zero=None):
        """Run one t-batch; negative_zero, a (row, column) of the predictor
        the batch reaches, is set to -0.0 in both gradients before clipping."""
        got = batch_grads(batch, store, self.params, self.grads, flags)
        self.ref_grads = dense_zero_grads(self.params)
        ref = dense_batch_grads(batch, store, self.ref_params, self.ref_grads, flags)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        if negative_zero is not None:
            row, col = negative_zero
            at = np.searchsorted(self.grads["predictor"].rows, row)
            assert self.grads["predictor"].rows[at] == row
            self.grads["predictor"].values[at, col] = -0.0
            self.ref_grads["predictor"][row, col] = -0.0
        dense = dense_grads(self.grads)
        for name in TENSOR_NAMES:
            # bit for bit, so -0.0 stays -0.0
            assert np.array_equal(np.signbit(dense[name]), np.signbit(self.ref_grads[name]))
            assert np.array_equal(dense[name], self.ref_grads[name]), name
        rows = reference_rows(batch.student, batch.last_thread, self.params)
        assert np.array_equal(self.grads["predictor"].rows, rows)
        total, scale = clip_gradients(self.grads, self.clip_norm)
        assert (total, scale) == ref_clip_gradients(self.ref_grads, self.clip_norm)
        # clipping leaves the gradient as it was
        assert clip_gradients(self.grads, self.clip_norm) == (total, scale)
        before = {name: g.copy() for name, g in dense.items()}
        self.opt.step(self.params, self.grads, scale)
        self.ref.step(self.ref_params, self.ref_grads, rows)
        for name in TENSOR_NAMES:
            assert np.array_equal(self.params.tensor(name), self.ref_params.tensor(name)), name
            assert np.array_equal(self.opt.m[name], self.ref.m[name]), name
            assert np.array_equal(self.opt.v[name], self.ref.v[name]), name
            # the step left the gradient set as it was
            after = dense_grads(self.grads)[name]
            assert np.array_equal(after, before[name]), name
            assert np.array_equal(np.signbit(after), np.signbit(before[name])), name
        return got


def test_fit_matches_dense_gradient_path_on_acceptance_course(tmp_path):
    ds, _ = synth.generate(synth.algo_like(scale=0.1))
    docs = [ev.tokens for ev in ds.events] + ds.course.week_docs
    vocab = build_vocabulary(docs, min_count=10)
    lda = lda_fit([term_frequency(doc, vocab) for doc in docs], 9, iters=10, seed=1,
                  vocab_size=len(vocab))
    cfg = TrainConfig(epochs=2, topic_infer_iters=4)
    features = train.prepare_event_features(ds, lda, vocab, course_topics(ds.course, lda, vocab),
                                            cfg)
    log = tmp_path / "log.csv"
    params, _ = train.fit(features, cfg, log_path=log)

    feats = features.events
    init = ModelParams.init(np.random.default_rng(cfg.seed), cfg.embed_dim, lda.num_topics,
                            ds.course.num_weeks, ds.num_students, ds.num_threads,
                            init_std=cfg.init_std)
    run = Lockstep(init, cfg.learning_rate, cfg.clip_norm)
    store = copy.deepcopy(features.trackers)
    batches = [feats.take(b) for b in t_batch(feats.student.tolist(), feats.thread.tolist())]
    mean_losses = []
    for _ in range(cfg.epochs):
        store.student_vecs = np.zeros((ds.num_students, cfg.embed_dim))
        store.thread_vecs = np.zeros((ds.num_threads, cfg.embed_dim))
        epoch_loss = 0.0
        for batch in batches:
            losses, u_new, p_new = run.batch(batch, store)
            for loss in losses.tolist():
                epoch_loss += loss
            store.student_vecs[batch.student] = u_new
            store.thread_vecs[batch.thread] = p_new
        mean_losses.append(epoch_loss / len(feats))
    for name in TENSOR_NAMES:
        assert np.array_equal(params.tensor(name), run.params.tensor(name)), name
    logged = [line.split(",")[1] for line in log.read_text().splitlines()[1:]]
    assert logged == [repr(loss) for loss in mean_losses]


def _paper_batch(rng, params, size):
    """A random t-batch of size events at params' shape, no student or
    thread twice, previous threads repeating or -1."""
    k = params.num_topics
    return EventFeatures(
        student=rng.permutation(params.num_students)[:size],
        thread=rng.permutation(params.num_threads)[:size],
        last_thread=rng.integers(-1, params.num_threads, size),
        theta=rng.dirichlet(np.ones(k), size),
        delta_student=rng.uniform(0.0, 5.0, size),
        delta_thread=rng.uniform(0.0, 5.0, size),
        week=rng.integers(params.num_weeks, size=size),
        excitation_value=rng.uniform(0.0, 3.0, size),
        timestamp=np.zeros(size),
        post_id=np.arange(size))


def test_paper_shape_batches_match_dense_gradient_path():
    rng = np.random.default_rng(31)
    # 1,833 students and 1,323 threads: a 3,176 x 1,333 predictor
    params = ModelParams.init(rng, 10, 9, 9, 1833, 1323)
    store = DynamicStateStore(1833, 1323, 10, 9)
    batches = [_paper_batch(rng, params, size) for size in (150, 90, 120)]
    run = Lockstep(params, 0.01, 5.0)
    for batch in batches:
        store.student_vecs[:] = rng.uniform(-0.9, 0.9, store.student_vecs.shape)
        store.thread_vecs[:] = rng.uniform(-0.9, 0.9, store.thread_vecs.shape)
        run.batch(batch, store)


def _leaf_bounds(size):
    """The element offsets where _square_sum's pairwise leaves meet."""
    def node(lo, n):
        if n <= train._STEP_BLOCK:
            return []
        half = n // 2 - n // 2 % 8
        return node(lo, half) + [lo + half] + node(lo + half, n - half)
    return node(0, size)


def test_edge_rows_and_negative_zero_match_dense_gradient_path():
    rng = np.random.default_rng(32)
    params = _multi_slice_params(rng)
    d, m, n = params.embed_dim, params.num_students, params.num_threads
    rows, width = params.predictor.shape
    # a previous-thread row that a leaf boundary cuts, and the last row
    cut = next(b for b in _leaf_bounds(params.predictor.size)
               if b % width and b // width >= 2 * d + m)
    crossing = cut // width
    batch = _paper_batch(rng, params, 3)
    batch.last_thread[:] = [crossing - 2 * d - m, n - 1, -1]
    store = DynamicStateStore(m, n, d, params.num_topics)
    store.student_vecs[:] = rng.uniform(-0.9, 0.9, store.student_vecs.shape)
    store.thread_vecs[:] = rng.uniform(-0.9, 0.9, store.thread_vecs.shape)
    reached = predictor_rows(batch, params)
    assert reached[0] == 0 and reached[-1] == rows - 1 and crossing in reached
    run = Lockstep(params, 0.01, 1e-3)
    for col in (cut - crossing * width, 0):
        run.batch(batch, store, negative_zero=(crossing, col))


def test_fit_allocates_no_predictor_sized_gradient(batch_ds, monkeypatch):
    ds = replace(batch_ds, num_students=1200, num_threads=900, student_ids=list(range(1200)),
                 thread_ids=list(range(900)))
    _, _, _, cfg, features = _batched_features(ds)
    made = []
    zero_grads = ModelParams.zero_grads

    def kept(self, *args):
        made.append(zero_grads(self, *args))
        return made[-1]

    monkeypatch.setattr(ModelParams, "zero_grads", kept)
    opts = []
    adam_init = Adam.__init__

    def recorded(self, *args):
        adam_init(self, *args)
        opts.append(self)

    monkeypatch.setattr(Adam, "__init__", recorded)
    tracemalloc.start()
    try:
        params, _ = train.fit(features, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the moments, on mappings tracemalloc does not see, live through the fit
    (opt,) = opts
    peak += _moment_bytes(opt)
    predictor = params.predictor.nbytes
    batches = [features.events.take(b) for b in event_batches(ds.events)]
    max_rows = max(len(predictor_rows(b, params)) for b in batches)
    (grads,) = made
    assert grads["predictor"]._buf.nbytes <= max_rows * params.predictor.shape[1] * 8
    # parameters and two moments, a fourth predictor-sized array would pass 4x
    assert 3 * predictor < peak < 3 * predictor + predictor // 4, (peak, predictor)
