import json
import math

import numpy as np
import pytest

from threadrec import model
from threadrec.corpus import ReplyHistory
from threadrec.model import (AblationFlags, DynamicStateStore, EventFeatures,
                             ModelParams, TENSOR_NAMES)
from threadrec.text import TopicDistribution

from conftest import random_batch


def zero_params(d=2, k=2, weeks=2, m=3, n=3, activation="sigmoid"):
    rng = np.random.default_rng(0)
    params = ModelParams.init(rng, d, k, weeks, m, n, activation=activation)
    for name in TENSOR_NAMES:
        params.tensor(name)[...] = 0.0
    return params


def theta(*probs):
    return TopicDistribution(np.array(probs, dtype=np.float64))


# update operation


def update(u_vec, p_vec, theta, delta_student, delta_thread, params):
    """The recurrent update kernel's pair of new embeddings for a t-batch
    of one post."""
    u_new, p_new, _, _ = model._update_kernel(
        np.asarray(u_vec, dtype=np.float64)[None], np.asarray(p_vec, dtype=np.float64)[None],
        theta.probs[None], np.array([delta_student]), np.array([delta_thread]), params)
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
        update(good, good, TopicDistribution(np.array([1.0])), 1.0, 1.0, params)


# student projection


def test_project_student_oracle():
    params = zero_params()
    params.time_context[:, 0] = [0.25, 0.0]
    params.week_context[:, 1] = [0.25, 0.0]
    out, _ = model._project_student_kernel(np.array([1.0, 1.0]), 1.0, 1, params)
    assert np.array_equal(out, [1.5, 1.0])


def test_project_student_zero_context_is_identity():
    rng = np.random.default_rng(7)
    params = zero_params()
    vec = rng.random(2)
    out, _ = model._project_student_kernel(vec, 123.0, 0, params)
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
    weeks = [theta(1.0, 0.0), theta(0.0, 1.0), theta(0.5, 0.5)]
    assert model.assign_course_topic(theta(0.9, 0.1), weeks) == 0
    assert model.assign_course_topic(theta(0.1, 0.9), weeks) == 1
    # equidistant between weeks 0 and 1: smallest index wins
    assert model.assign_course_topic(theta(0.5, 0.5), [theta(1.0, 0.0), theta(0.0, 1.0)]) == 0
    with pytest.raises(ValueError):
        model.assign_course_topic(theta(1.0, 0.0), [])


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


def test_batch_grads_add_into_shared_dict(small_params):
    rng = np.random.default_rng(13)
    batch, store = random_batch(rng, small_params)
    batch.last_thread[:] = [3, -1, 0]
    batches = [batch.take([0, 1]), batch.take([2]), batch]
    shared = small_params.zero_grads()
    separate = []
    for b in batches:
        model.batch_grads(b, store, small_params, shared)
        own = small_params.zero_grads()
        model.batch_grads(b, store, small_params, own)
        separate.append(own)
    for name in TENSOR_NAMES:
        total = separate[0][name] + separate[1][name] + separate[2][name]
        assert np.array_equal(shared[name], total), name


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
    weeks = [TopicDistribution(np.array([0.5, 0.5])), TopicDistribution(np.array([1.0, 0.0]))]
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
    assert np.array_equal(weeks2[1].probs, weeks[1].probs)
    assert meta2 == meta


def test_checkpoint_bytes_are_deterministic(tmp_path, small_params):
    store = DynamicStateStore(3, 4, 3, 2)
    weeks = [TopicDistribution(np.array([0.5, 0.5]))] * 2
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
    weeks = [TopicDistribution(np.array([0.5, 0.5]))] * num_week_topics
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


def test_checkpoint_rejects_bad_time_scale_and_week_topics(tmp_path):
    # the projection takes the elapsed time over the time scale and the
    # week a student's last topics point to, without range checks
    with pytest.raises(ValueError, match="time_scale"):
        model.load_checkpoint(saved_checkpoint(tmp_path, time_scale=0.0))
    with pytest.raises(ValueError, match="time_scale"):
        model.load_checkpoint(saved_checkpoint(tmp_path, time_scale=-1.0))
    with pytest.raises(ValueError, match="week_topics"):
        model.load_checkpoint(saved_checkpoint(tmp_path, num_week_topics=3))


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint\n123")
    with pytest.raises(ValueError):
        model.load_checkpoint(path)
