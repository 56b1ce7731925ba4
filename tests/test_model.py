import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from threadrec import model
from threadrec.corpus import ReplyHistory
from threadrec.model import (AblationFlags, DynamicStateStore, EventFeatures,
                             ModelParams, TENSOR_NAMES)
from threadrec.train import Adam, TrainConfig
from conftest import nearest_week_loop, random_batch


def zero_params(d=2, k=2, weeks=2, m=3, n=3, activation="sigmoid"):
    rng = np.random.default_rng(0)
    params = ModelParams.init(rng, d, k, weeks, m, n, activation=activation)
    for name in TENSOR_NAMES:
        params.tensor(name)[...] = 0.0
    return params


def theta(*probs):
    return np.array(probs, dtype=np.float64)


# update operation


def update(u_vec, p_vec, theta, delta_student, delta_thread, params):
    """The recurrent update kernel's pair of new embeddings for a t-batch
    of one post."""
    u_new, p_new, _, _ = model._update_kernel(
        np.asarray(u_vec, dtype=np.float64)[None], np.asarray(p_vec, dtype=np.float64)[None],
        theta[None], np.array([delta_student]), np.array([delta_thread]), params)
    return u_new[0], p_new[0]


def test_update_zero_weights_gives_midpoint_sigmoid():
    params = zero_params()
    u = np.array([0.2, 0.4])
    p = np.array([0.6, 0.1])
    u2, p2 = update(u, p, theta(0.5, 0.5), 1.0, 2.0, params)
    assert np.allclose(u2, 0.5) and np.allclose(p2, 0.5)


def test_update_zero_weights_gives_zero_tanh():
    params = zero_params(activation="tanh")
    u2, p2 = update(np.zeros(2), np.zeros(2), theta(1.0, 0.0), 0.0, 0.0, params)
    assert np.allclose(u2, 0.0) and np.allclose(p2, 0.0)


def test_sigmoid_is_scipy_expit_bit_for_bit():
    # the sigmoid uses the C library's exp, as expit does, so that no
    # command needs scipy; numpy's vectorized exp rounds some values otherwise
    from scipy.special import expit
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.standard_normal(170_000) * scale
                        for scale in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e3)])
    assert np.array_equal(model._act(x, "sigmoid"), expit(x))
    for shape in ((7,), (5, 7), (1, 7)):
        rows = rng.standard_normal(shape) * 4.0
        out = model._act(rows, "sigmoid")
        assert out.shape == shape and out.dtype == np.float64
        assert np.array_equal(out, expit(rows))
    edges = np.array([0.0, -0.0, 709.78, -709.78, 709.79, -709.79, 710.0, -710.0,
                      800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, np.nan])
    assert np.array_equal(model._act(edges, "sigmoid"), expit(edges), equal_nan=True)
    # and so do rows that hold no value whose exp(-v) overflows
    fast = np.concatenate([x[x > -700.0], edges[~(edges < -709.78)]])
    assert np.array_equal(model._act(fast, "sigmoid"), expit(fast), equal_nan=True)
    assert np.array_equal(model._act(x, "tanh"), np.tanh(x))


def _ref_sigmoid_checked(v):
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _ref_act(x, kind):
    """The activation as it was before the overflow mask: libm exp over the
    whole tensor, rerun one element at a time when an entry overflows. Kept
    as the reference the masked sigmoid must match bit for bit."""
    if kind == "sigmoid":
        try:
            e = np.fromiter(map(math.exp, (-x).ravel().tolist()), np.float64, x.size)
        except OverflowError:
            return np.array([_ref_sigmoid_checked(v) for v in x.ravel().tolist()]).reshape(x.shape)
        return (1.0 / (1.0 + e)).reshape(x.shape)
    return np.tanh(x)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sigmoid_matches_the_per_element_rerun_bit_for_bit():
    top = model._EXP_MAX
    assert math.isfinite(math.exp(top))
    with pytest.raises(OverflowError):
        math.exp(math.nextafter(top, math.inf))
    # the largest course-small and paper-size t-batches have 72 and 746 rows
    rng = np.random.default_rng(29)
    for shape in ((1, 10), (72, 10), (746, 10)):
        x = rng.standard_normal(shape) * 400.0
        assert _same_bits(model._act(x, "sigmoid"), _ref_act(x, "sigmoid")), shape
    # the threshold and its neighbours on both sides of zero, alone and
    # together
    near = [math.nextafter(top, 0.0), top, math.nextafter(top, math.inf)]
    edges = np.array(near + [-v for v in near] + [math.inf, -math.inf, math.nan, 0.0, -0.0])
    for x in [edges, edges.reshape(1, -1)] + [edges[i:i + 1] for i in range(len(edges))]:
        assert _same_bits(model._act(x, "sigmoid"), _ref_act(x, "sigmoid")), x


def test_update_single_weight_oracle():
    # route only the elapsed-time input to the first output coordinate
    params = zero_params()
    params.student_update[-1, 0] = 1.0
    u2, _ = update(np.zeros(2), np.zeros(2), theta(1.0, 0.0), 3.0, 0.0, params)
    assert u2[0] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), abs=1e-15)
    assert u2[1] == 0.5


def test_update_is_symmetric_in_construction():
    # swapping the roles swaps the results when both weight matrices match
    rng = np.random.default_rng(5)
    params = zero_params()
    w = rng.normal(size=params.student_update.shape)
    params.student_update[...] = w
    params.thread_update[...] = w
    u = rng.random(2)
    p = rng.random(2)
    th = theta(0.3, 0.7)
    u2, p2 = update(u, p, th, 1.5, 1.5, params)
    u3, p3 = update(p, u, th, 1.5, 1.5, params)
    assert np.allclose(u2, p3) and np.allclose(p2, u3)


def test_update_uses_pre_update_values():
    # the thread update must read the student's old embedding, not the new
    rng = np.random.default_rng(6)
    params = zero_params()
    params.student_update[...] = rng.normal(size=params.student_update.shape)
    params.thread_update[...] = rng.normal(size=params.thread_update.shape)
    u = np.array([0.9, 0.1])
    p = np.array([0.2, 0.8])
    th = theta(0.5, 0.5)
    _, p2 = update(u, p, th, 1.0, 1.0, params)
    xp = np.concatenate([p, u, [0.5, 0.5], [1.0]])
    expect = 1.0 / (1.0 + np.exp(-(xp @ params.thread_update)))
    assert np.allclose(p2, expect, atol=1e-14)


def test_update_validates_inputs():
    params = zero_params()
    good = np.zeros(2)
    with pytest.raises(ValueError):
        update(np.zeros(3), good, theta(1.0, 0.0), 1.0, 1.0, params)
    with pytest.raises(ValueError):
        update(good, good, theta(1.0, 0.0), -1.0, 1.0, params)
    with pytest.raises(ValueError):
        update(good, good, theta(1.0), 1.0, 1.0, params)


# student projection


def test_project_student_oracle():
    params = zero_params()
    params.time_context[:, 0] = [0.25, 0.0]
    params.week_context[:, 1] = [0.25, 0.0]
    out = model._project_student_kernel(np.array([1.0, 1.0]), 1.0, 1, params)
    assert np.array_equal(out, [1.5, 1.0])


def test_project_student_zero_context_is_identity():
    rng = np.random.default_rng(7)
    params = zero_params()
    vec = rng.random(2)
    out = model._project_student_kernel(vec, 123.0, 0, params)
    assert np.array_equal(out, vec)


# excitation


def test_excitation_zero_without_own_post():
    hist = ReplyHistory(None, [], [])
    assert model.excitation(hist, 10.0, 0.5, 0.001) == 0.0


def test_excitation_single_post_closed_form():
    hist = ReplyHistory(0.0, [2.0], [])
    z = model.excitation(hist, 3.0, 0.5, 0.001)
    assert abs(z - math.exp(-1.0)) < 1e-12


def test_excitation_post_and_reply_closed_form():
    hist = ReplyHistory(0.0, [2.0], [3.0])
    z = model.excitation(hist, 4.0, 0.5, 0.001)
    assert abs(z - (math.exp(-1.0) + math.exp(-0.003))) < 1e-12


def test_excitation_time_scale_divides_gaps():
    hist = ReplyHistory(0.0, [2.0], [])
    z = model.excitation(hist, 3.0, 0.5, 0.001, time_scale=2.0)
    assert abs(z - math.exp(-0.5)) < 1e-12


def test_excitation_rejects_bad_windows():
    with pytest.raises(ValueError):
        model.excitation(ReplyHistory(5.0, [4.0], []), 10.0, 0.5, 0.001)
    with pytest.raises(ValueError):
        model.excitation(ReplyHistory(0.0, [6.0], []), 6.0, 0.5, 0.001)


def test_excitation_refuses_a_time_scale_that_is_not_positive():
    with pytest.raises(ValueError, match="time_scale must be positive"):
        model.excitation(ReplyHistory(0.0, [2.0], []), 3.0, 0.5, 0.001, time_scale=0.0)


# thread projection


def test_project_thread_zero_excitation_is_bitwise_copy():
    u = np.array([0.123456789, 0.9])
    p = np.array([0.31415926535, 0.2])
    out = model.project_thread(u, p, 0.0)
    assert np.array_equal(out, p)
    out[0] = -1.0
    assert p[0] == 0.31415926535  # returned a copy, not a view


def test_project_thread_unit_excitation_is_exact_midpoint():
    u = np.array([1.0, 0.25])
    p = np.array([0.5, 0.75])
    out = model.project_thread(u, p, 1.0)
    assert np.array_equal(out, 0.5 * u + 0.5 * p)


def test_project_thread_oracle():
    out = model.project_thread(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 3.0)
    assert np.allclose(out, [0.75, 0.25], atol=1e-15)
    # plain sequences work as well
    assert np.array_equal(model.project_thread([1.0, 0.0], [0.0, 1.0], 3.0), out)


def test_project_thread_rejects_negative_excitation():
    with pytest.raises(ValueError):
        model.project_thread(np.zeros(2), np.zeros(2), -0.1)


# course topic assignment


def test_assign_course_topic_nearest_and_ties():
    weeks = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert model.assign_course_topic(np.array([0.9, 0.1]), weeks) == 0
    assert model.assign_course_topic(np.array([0.1, 0.9]), weeks) == 1
    # equidistant between weeks 0 and 1: smallest index wins
    assert model.assign_course_topic(np.array([0.5, 0.5]), weeks[:2]) == 0
    with pytest.raises(ValueError):
        model.assign_course_topic(np.array([1.0, 0.0]), np.empty((0, 2)))


def test_assign_course_topic_matches_norm_loop_with_exact_ties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        weeks = [theta(*row) for row in rng.dirichlet(np.ones(k), 4)]
        weeks += weeks[::-1]  # every week twice: exact ties
        matrix = np.array(weeks)
        for probs in list(rng.dirichlet(np.ones(k), 5)) + weeks[:2]:
            assert model.assign_course_topic(probs, matrix) == nearest_week_loop(probs, weeks)


# prediction head


def test_predict_next_matches_dense_formula():
    rng = np.random.default_rng(8)
    d, k, weeks, m, n = 3, 2, 2, 4, 5
    params = ModelParams.init(rng, d, k, weeks, m, n)
    u_hat = rng.normal(size=d)
    p_dyn = rng.normal(size=d)
    student, last_thread = 2, 3
    q = model._predict_kernel(u_hat, student, p_dyn, last_thread, params)
    dense_in = np.concatenate([u_hat, np.eye(m)[student], p_dyn, np.eye(n)[last_thread]])
    expect = dense_in @ params.predictor + params.predictor_bias
    assert np.allclose(q, expect, atol=1e-12)
    assert q.shape == (n + d,)


def test_predict_next_cold_start_omits_thread_blocks():
    rng = np.random.default_rng(9)
    d, k, weeks, m, n = 2, 2, 2, 3, 3
    params = ModelParams.init(rng, d, k, weeks, m, n)
    u_hat = rng.normal(size=d)
    q = model._predict_kernel(u_hat, 0, np.zeros(d), -1, params)
    dense_in = np.concatenate([u_hat, np.eye(m)[0], np.zeros(d), np.zeros(n)])
    expect = dense_in @ params.predictor + params.predictor_bias
    assert np.allclose(q, expect, atol=1e-12)


def test_predict_rows_match_single_predictions():
    # one implementation serves ranking (scalars) and training (rows)
    rng = np.random.default_rng(14)
    d, k, weeks, m, n = 3, 2, 2, 4, 5
    params = ModelParams.init(rng, d, k, weeks, m, n)
    store = DynamicStateStore(m, n, d, k)
    store.student_vecs[:] = rng.normal(size=(m, d))
    store.thread_vecs[:] = rng.normal(size=(n, d))
    student, delta = np.array([2, 0, 3]), np.array([0.5, 1.5, 0.0])
    week, last = np.array([1, 1, 0]), np.array([4, -1, 4])
    rows = model._predict_from_store(store, student, delta[:, None], week, last, params,
                                     AblationFlags())
    for i in range(3):
        one = model._predict_from_store(store, int(student[i]), float(delta[i]),
                                        int(week[i]), int(last[i]), params, AblationFlags())
        for got, want in zip(rows, one):
            assert np.array_equal(got[i], want)
    z = np.array([0.0, 0.5, 2.0])
    projected = model.project_thread(rows[1], store.thread_vecs[:3], z[:, None])
    for i in range(3):
        assert np.array_equal(projected[i],
                              model.project_thread(rows[1][i], store.thread_vecs[i], z[i]))


# loss


def loss_event(params, bias, u_vec, p_vec, thread):
    """A t-batch of one event: a zero-weight head predicts its bias; the
    event's student 0 and the target thread carry the given states, with no
    excitation."""
    params.predictor_bias[:] = bias
    store = DynamicStateStore(params.num_students, params.num_threads,
                              params.embed_dim, params.num_topics)
    store.student_vecs[0] = u_vec
    store.thread_vecs[thread] = p_vec
    batch = EventFeatures(student=np.array([0]), thread=np.array([thread]),
                          last_thread=np.array([-1]), theta=np.array([[0.5, 0.5]]),
                          delta_student=np.array([1.0]), delta_thread=np.array([1.0]),
                          week=np.array([0]), excitation_value=np.array([0.0]),
                          timestamp=np.array([1.0]), post_id=np.array([0]))
    return batch, store


def batch_loss(batch, store, params, flags=AblationFlags()):
    """The summed loss of a t-batch."""
    return model.batch_grads(batch, store, params, params.zero_grads(), flags)[0].sum()


def test_loss_pythagorean_oracle():
    params = zero_params(d=2, n=3)
    # prediction differs from the target [one-hot(2), p] by (3, 4) in the
    # one-hot block; the states equal what the zero-weight cells write
    u = np.full(2, 0.5)
    bias = np.array([3.0, 4.0, 1.0, 0.5, 0.5])
    ev, store = loss_event(params, bias, u, u, 2)
    value = batch_loss(ev, store, params)
    assert value == pytest.approx(5.0, abs=1e-12)


def test_loss_is_unsquared_distance_plus_penalties():
    params = zero_params(d=2, n=3)
    params.lambda_student = 2.0
    params.lambda_thread = 0.5
    # the zero-weight sigmoid cells write 0.5, so the jumps are (3, 4) and (0, 2)
    u_prev = np.array([-2.5, -3.5])
    p_prev = np.array([0.5, -1.5])
    bias = np.concatenate([np.zeros(3), p_prev])
    ev, store = loss_event(params, bias, u_prev, p_prev, 0)
    value = batch_loss(ev, store, params)
    # prediction residual is the bare one-hot: norm 1
    assert value == pytest.approx(1.0 + 2.0 * 5.0 + 0.5 * 2.0, abs=1e-12)


def test_loss_zero_at_perfect_prediction():
    params = zero_params(d=2, n=3)
    proj = np.array([0.25, 0.5])
    bias = np.concatenate([np.eye(3)[1], proj])
    ev, store = loss_event(params, bias, np.ones(2), proj, 1)
    frozen = AblationFlags.from_names(["no_dynamic_student", "no_dynamic_thread"])
    value = batch_loss(ev, store, params, frozen)
    assert value == 0.0


# ablation flags


def test_ablation_flags_from_names():
    flags = AblationFlags.from_names(["no_text_features"])
    assert flags.no_text_features and not flags.no_dynamic_student
    assert flags.active() == ["no_text_features"]
    with pytest.raises(ValueError):
        AblationFlags.from_names(["bogus"])


def test_ablation_flags_change_forward_pass(small_params):
    rng = np.random.default_rng(10)
    batch, store = random_batch(rng, small_params)
    base = batch_loss(batch, store, small_params, AblationFlags())
    for name in AblationFlags.NAMES:
        variant = batch_loss(batch, store, small_params, AblationFlags.from_names([name]))
        assert variant != base, name


def test_frozen_embedding_ablations_keep_states(small_params):
    rng = np.random.default_rng(11)
    batch, store = random_batch(rng, small_params)
    flags = AblationFlags.from_names(["no_dynamic_student", "no_dynamic_thread"])
    _, u_new, p_new = model.batch_grads(batch, store, small_params,
                                        small_params.zero_grads(), flags)
    assert np.array_equal(u_new, store.student_vecs[batch.student])
    assert np.array_equal(p_new, store.thread_vecs[batch.thread])


def test_batch_grads_past_the_sigmoid_overflow_match_the_per_element_rerun(monkeypatch):
    # paper-size elapsed times (delta_student p99 5,978) put some cell
    # pre-activations below -_EXP_MAX, where exp(-x) overflows
    rng = np.random.default_rng(31)
    params = ModelParams.init(rng, embed_dim=10, num_topics=9, num_weeks=10,
                              num_students=40, num_threads=30)
    batch, store = random_batch(rng, params)
    batch.delta_student[:] = rng.uniform(0.0, 6000.0, len(batch.student))
    batch.delta_thread[:] = rng.uniform(0.0, 6000.0, len(batch.thread))

    def run():
        grads = params.zero_grads()
        losses, u_new, p_new = model.batch_grads(batch, store, params, grads)
        dense = model.dense_grads(grads)
        return [losses, u_new, p_new] + [dense[name] for name in TENSOR_NAMES]

    got = run()
    overflowed = []

    def ref_act(x, kind):
        overflowed.append(np.count_nonzero(-x > model._EXP_MAX))
        return _ref_act(x, kind)

    monkeypatch.setattr(model, "_act", ref_act)
    want = run()
    assert sum(overflowed) > 0
    for name, a, b in zip(("losses", "u_new", "p_new") + TENSOR_NAMES, got, want):
        assert _same_bits(a, b), name


def test_batch_grads_write_a_reused_set_afresh(small_params):
    # a gradient set reused across t-batches, with or without an Adam step
    # between them, holds after each batch what a fresh set holds
    for step in (False, True):
        rng = np.random.default_rng(13)
        params = small_params.copy()
        batch, store = random_batch(rng, params)
        batch.last_thread[:] = [3, -1, 0]
        batches = [batch.take([0, 1]), batch.take([2]), batch, batch.take([1, 2])]
        shared = params.zero_grads()
        # whatever the set held before the first batch is overwritten too
        for name in TENSOR_NAMES:
            if name != "predictor":
                shared[name].fill(np.nan)
        shared["predictor"].start(np.arange(len(params.predictor)))
        shared["predictor"].values.fill(np.nan)
        opt = Adam(params, 0.01)
        for b in batches:
            model.batch_grads(b, store, params, shared)
            own = params.zero_grads()
            model.batch_grads(b, store, params, own)
            got, want = model.dense_grads(shared), model.dense_grads(own)
            for name in TENSOR_NAMES:
                assert np.array_equal(got[name], want[name]), (step, name)
                assert np.array_equal(np.signbit(got[name]), np.signbit(want[name])), (step, name)
            if step:
                opt.step(params, shared)


# parameter container


def test_params_init_shapes_and_bias():
    rng = np.random.default_rng(12)
    d, k, weeks, m, n = 4, 3, 5, 6, 7
    params = ModelParams.init(rng, d, k, weeks, m, n)
    assert params.student_update.shape == (2 * d + k + 1, d)
    assert params.thread_update.shape == (2 * d + k + 1, d)
    assert params.time_context.shape == (d, 1)
    assert params.week_context.shape == (d, weeks)
    assert params.predictor.shape == (m + n + 2 * d, n + d)
    assert params.predictor_bias.shape == (n + d,)
    assert np.all(params.predictor_bias == 0.0)


def test_params_copy_is_deep(small_params):
    dup = small_params.copy()
    dup.predictor[0, 0] += 1.0
    assert small_params.predictor[0, 0] != dup.predictor[0, 0]


def test_params_rejects_bad_activation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ModelParams.init(rng, 2, 2, 2, 2, 2, activation="relu")


@pytest.mark.parametrize("setting, value, message", [
    ("post_decay", -0.5, "decay rates must be nonnegative"),
    ("reply_decay", -1e-3, "decay rates must be nonnegative"),
    ("lambda_student", -1.0, "smoothness weights must be nonnegative"),
    ("lambda_thread", -0.25, "smoothness weights must be nonnegative"),
    ("activation", "relu", "activation must be 'sigmoid' or 'tanh'")])
def test_params_and_config_refuse_settings_no_model_takes(small_params, setting, value,
                                                          message):
    # one rule for the parameters, the training config and a checkpoint's
    # header scalars
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(small_params, **{setting: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{setting: value})


def test_params_refuse_a_tensor_of_another_shape(small_params):
    with pytest.raises(ValueError, match=re.escape("time_context has shape (2, 1), "
                                                   "expected (3, 1)")):
        replace(small_params, time_context=np.zeros((2, 1)))


def test_params_init_refuses_a_zero_dimension():
    with pytest.raises(ValueError, match="all dimensions must be >= 1"):
        ModelParams.init(np.random.default_rng(0), 2, 2, 2, 0, 2)


def test_params_tensor_names_only_tensors(small_params):
    # a field that is not a tensor, such as a dimension, is not handed out
    with pytest.raises(KeyError):
        small_params.tensor("embed_dim")


# state store and checkpointing


def test_state_store_initial_state():
    store = DynamicStateStore(2, 3, 4, 2)
    assert np.all(store.student_vecs == 0.0)
    assert np.all(store.thread_vecs == 0.0)
    assert not store.student_seen.any() and not store.thread_seen.any()
    assert store.student_last_thread[1] == -1
    assert np.array_equal(store.student_vecs[1], np.zeros(4))


def test_checkpoint_roundtrip(tmp_path, small_params):
    store = DynamicStateStore(3, 4, 3, 2, time_scale=7.5)
    store.student_vecs[1] = [0.1, 0.2, 0.3]
    store.student_seen[1] = True
    store.student_last_t[1] = 42.0
    store.student_last_theta[1] = [0.25, 0.75]
    store.student_last_thread[1] = 2
    weeks = np.array([[0.5, 0.5], [1.0, 0.0]])
    path = tmp_path / "ck.bin"
    meta = {"config": {"epochs": 3}, "note": "roundtrip"}
    model.save_checkpoint(path, small_params, store, weeks, meta)
    params2, store2, weeks2, meta2 = model.load_checkpoint(path)
    for name in TENSOR_NAMES:
        assert np.array_equal(params2.tensor(name), small_params.tensor(name))
    assert params2.activation == small_params.activation
    assert params2.lambda_student == small_params.lambda_student
    assert np.array_equal(store2.student_vecs, store.student_vecs)
    assert np.array_equal(store2.student_seen, store.student_seen)
    assert np.array_equal(store2.student_last_theta, store.student_last_theta)
    assert store2.student_last_thread[1] == 2
    assert store2.time_scale == 7.5
    assert len(weeks2) == 2
    assert np.array_equal(weeks2[1], weeks[1])
    assert meta2 == meta


def test_checkpoint_bytes_are_deterministic(tmp_path, small_params):
    store = DynamicStateStore(3, 4, 3, 2)
    weeks = np.full((2, 2), 0.5)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    model.save_checkpoint(a, small_params, store, weeks, {"k": 1})
    model.save_checkpoint(b, small_params, store, weeks, {"k": 1})
    assert a.read_bytes() == b.read_bytes()


def saved_checkpoint(tmp_path, num_week_topics=2, time_scale=1.0, last_thread=2):
    """A checkpoint of 3 students, 4 threads and 2 weeks, embed_dim 2."""
    params = ModelParams.init(np.random.default_rng(15), 2, 2, 2, 3, 4)
    store = DynamicStateStore(params.num_students, params.num_threads, params.embed_dim,
                              params.num_topics, time_scale=time_scale)
    store.student_last_thread[1] = last_thread
    weeks = np.full((num_week_topics, 2), 0.5)
    path = tmp_path / "ck.bin"
    model.save_checkpoint(path, params, store, weeks, {})
    return path


def rewrite_header(path, edit):
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    edit(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)


def test_checkpoint_rejects_bad_shapes_and_last_threads(tmp_path):
    # the head's one-hot rows are read without range checks, so a file may
    # bring in only students and previous threads of the trained course
    path = saved_checkpoint(tmp_path)
    model.load_checkpoint(path)

    def transpose_students(header):
        spec = next(a for a in header["arrays"] if a["name"] == "store.student_vecs")
        spec["shape"] = spec["shape"][::-1]  # same byte count
    rewrite_header(path, transpose_students)
    with pytest.raises(ValueError, match="store.student_vecs"):
        model.load_checkpoint(path)

    path = saved_checkpoint(tmp_path)
    rewrite_header(path, lambda h: h["scalars"].update(num_students=4))
    with pytest.raises(ValueError, match="params.predictor"):
        model.load_checkpoint(path)

    path = saved_checkpoint(tmp_path)
    rewrite_header(path, lambda h: h["arrays"].pop())
    with pytest.raises(ValueError, match="week_topics"):
        model.load_checkpoint(path)

    for last in (4, -2):
        path = saved_checkpoint(tmp_path, last_thread=last)
        with pytest.raises(ValueError, match="store.student_last_thread"):
            model.load_checkpoint(path)
    model.load_checkpoint(saved_checkpoint(tmp_path, last_thread=-1))


def replace_header(path, header):
    magic, _, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("scalars"), "header scalars must be an object"),
    (lambda h: h.update(scalars=[1, 2]), "header scalars must be an object"),
    (lambda h: h["scalars"].pop("activation"), "header scalars lack activation"),
    (lambda h: h["scalars"].pop("time_scale"), "header scalars lack time_scale"),
    (lambda h: h["scalars"].update(post_decay="0.5"), "post_decay must be a finite number"),
    (lambda h: h["scalars"].update(lambda_student=None), "lambda_student must be a finite"),
    (lambda h: h["scalars"].update(reply_decay=float("nan")), "reply_decay must be a finite"),
    (lambda h: h["scalars"].update(time_scale=True), "time_scale must be a finite number"),
    (lambda h: h.update(arrays=[1, 2, 3]), "header arrays must be a list of objects"),
    (lambda h: h.update(arrays={"name": "week_topics"}), "header arrays must be a list"),
    (lambda h: h.pop("arrays"), "header arrays must be a list of objects"),
    (lambda h: h.update(meta="notes"), "header meta must be an object"),
    (lambda h: h.pop("meta"), "header meta must be an object")],
    ids=["no-scalars", "scalars-list", "no-activation", "no-time-scale", "string-decay",
         "null-lambda", "nan-decay", "boolean-time-scale", "arrays-of-numbers",
         "arrays-object", "no-arrays", "meta-string", "no-meta"])
def test_checkpoint_rejects_headers_of_the_wrong_shape(tmp_path, edit, message):
    # valid JSON of another shape would end in a KeyError, AttributeError
    # or TypeError deep in the loader
    path = saved_checkpoint(tmp_path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=message):
        model.load_checkpoint(path)


@pytest.mark.parametrize("dim", ["embed_dim", "num_threads"])
def test_checkpoint_rejects_a_zero_dimension(tmp_path, dim):
    path = saved_checkpoint(tmp_path)
    rewrite_header(path, lambda h: h["scalars"].update({dim: 0}))
    with pytest.raises(ValueError, match="dimensions .* must be positive integers"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("header", [[], ["scalars"], "scalars", 7, None])
def test_checkpoint_rejects_a_header_that_is_not_an_object(tmp_path, header):
    path = saved_checkpoint(tmp_path)
    replace_header(path, header)
    with pytest.raises(ValueError, match="checkpoint header must be an object"):
        model.load_checkpoint(path)


def test_checkpoint_rejects_bad_time_scale_and_week_topics(tmp_path):
    # the projection takes the elapsed time over the time scale and the
    # week a student's last topics point to, without range checks
    with pytest.raises(ValueError, match="time_scale"):
        model.load_checkpoint(saved_checkpoint(tmp_path, time_scale=0.0))
    with pytest.raises(ValueError, match="time_scale"):
        model.load_checkpoint(saved_checkpoint(tmp_path, time_scale=-1.0))
    with pytest.raises(ValueError, match="week_topics"):
        model.load_checkpoint(saved_checkpoint(tmp_path, num_week_topics=3))


@pytest.mark.parametrize("row", [[-0.1, 1.1], [0.5, 0.8], [np.nan, np.nan], [np.nan, 1.0]])
def test_checkpoint_rejects_week_topics_off_the_simplex(tmp_path, row):
    # week_topics is the last array of the payload: 2 weeks of 2 topics
    path = saved_checkpoint(tmp_path)
    weeks = np.array([[0.5, 0.5], row], dtype="<f8")
    path.write_bytes(path.read_bytes()[:-weeks.nbytes] + weeks.tobytes())
    with pytest.raises(ValueError, match="week_topics"):
        model.load_checkpoint(path)


def test_checkpoint_rejects_truncated_and_trailing_payloads(tmp_path):
    path = saved_checkpoint(tmp_path)
    params, store, _, _ = model.load_checkpoint(path)
    # arrays come back writable, each in its own buffer
    assert params.predictor.flags.writeable and store.student_vecs.flags.writeable
    whole = path.read_bytes()
    path.write_bytes(whole[:-1])
    with pytest.raises(ValueError, match="truncated at array week_topics"):
        model.load_checkpoint(path)
    magic, header, _ = whole.split(b"\n", 2)
    path.write_bytes(magic + b"\n" + header + b"\n")
    with pytest.raises(ValueError, match="truncated at array params.student_update"):
        model.load_checkpoint(path)
    path.write_bytes(whole + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        model.load_checkpoint(path)


def test_checkpoint_refuses_a_header_too_deep_for_json(tmp_path):
    # json.loads exhausts the recursion limit on deep nesting
    path = saved_checkpoint(tmp_path)
    magic, _, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + b"[" * 100000 + b"\n" + payload)
    with pytest.raises(ValueError, match="checkpoint %s: the header is not JSON: "
                                         "maximum recursion depth" % re.escape(str(path))):
        model.load_checkpoint(path)


def test_checkpoint_refuses_settings_no_model_takes(tmp_path):
    path = saved_checkpoint(tmp_path)
    rewrite_header(path, lambda h: h["scalars"].update(lambda_thread=-1.0))
    with pytest.raises(ValueError, match="smoothness weights must be nonnegative"):
        model.load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint\n123")
    with pytest.raises(ValueError):
        model.load_checkpoint(path)
