import hashlib
import json

import numpy as np
import pytest

from threadrec import corpus, synth
from threadrec.corpus import validate_dataset
from threadrec.synth import SynthConfig, algo_like, generate, stable_vocabulary
from threadrec.text import preprocess


def small_config(**overrides):
    base = dict(num_students=12, num_threads=8, num_weeks=3, num_topics=3,
                vocab_size=40, mean_posts_per_student=4, seed=5)
    base.update(overrides)
    return SynthConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(num_students=0)
    with pytest.raises(ValueError):
        small_config(drift_strength=1.5)
    with pytest.raises(ValueError):
        small_config(reply_prob=-0.1)
    with pytest.raises(ValueError):
        small_config(vocab_size=2)  # fewer words than topics
    with pytest.raises(ValueError):
        algo_like(scale=0.0)
    # scales whose student count is not finite; round() would overflow
    for scale in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="scale"):
            algo_like(scale=scale)


@pytest.mark.parametrize("setting, value, message", [
    ("revisit_boost", -1.0, "revisit_boost must be nonnegative"),
    ("reply_pull", -0.5, "reply_pull must be nonnegative"),
    ("week_seconds", 0.0, "week_seconds must be positive"),
    ("week_seconds", float("nan"), "week_seconds must be finite"),
    ("week_seconds", float("inf"), "week_seconds must be finite"),
    ("week_seconds", 1e308, "week_seconds must keep the course length"),
    ("reply_pull", float("nan"), "reply_pull must be finite"),
    ("revisit_boost", float("inf"), "revisit_boost must be finite"),
    ("drift_strength", float("nan"), "drift_strength must be finite")])
def test_config_refuses_each_setting_by_name(setting, value, message):
    # a NaN weight passes every range check and ends in numpy's "Probabilities
    # contain NaN"; an infinite week overflows the arrival times
    with pytest.raises(ValueError, match=message):
        small_config(**{setting: value})


def test_stable_vocabulary_refuses_more_words_than_its_candidates():
    # three letters after "zq" give 26**3 candidates, and preprocessing
    # changes some of them
    with pytest.raises(ValueError, match="vocabulary request too large"):
        stable_vocabulary(26 ** 3)


def test_algo_like_preset_scales():
    cfg = algo_like(scale=0.1)
    assert cfg.num_students == 183
    assert cfg.num_threads == 132
    assert cfg.num_weeks == 9
    assert cfg.num_topics == 9
    assert cfg.mean_posts_per_student == 5


def test_stable_vocabulary_words_survive_preprocessing():
    words = stable_vocabulary(50)
    assert len(words) == len(set(words)) == 50
    for w in words:
        assert preprocess(w) == [w]


def test_generate_is_deterministic():
    a, _ = generate(small_config())
    b, _ = generate(small_config())
    assert a.events == b.events
    assert a.course.week_docs == b.course.week_docs


def test_generate_passes_validation_and_shapes():
    cfg = small_config()
    ds, gt = generate(cfg)
    validate_dataset(ds)
    assert ds.num_students == cfg.num_students
    assert ds.num_threads == cfg.num_threads
    assert ds.course.num_weeks == cfg.num_weeks
    assert gt.student_interests.shape == (12, 3, 3)
    assert gt.thread_mixtures.shape == (8, 3)
    assert gt.topic_words.shape == (3, 40)
    assert np.allclose(gt.student_interests.sum(axis=2), 1.0)
    assert np.allclose(gt.thread_mixtures.sum(axis=1), 1.0)


def test_generate_text_round_trips_through_preprocess():
    ds, _ = generate(small_config())
    for ev in ds.events[:20]:
        assert preprocess(" ".join(ev.tokens)) == ev.tokens
    for doc in ds.course.week_docs:
        assert preprocess(" ".join(doc)) == doc


def test_written_posts_keep_their_bytes(tmp_path):
    # events carry the raw text and write it out as is; the file is the
    # one written when events carried tokens and joined them with spaces
    path = tmp_path / "posts.jsonl"
    corpus.write_jsonl(generate(small_config())[0], path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "349e4457ec2c6ba5a2be4568b80ad45405c183cccefc0d30823cd173d8311679"


DENSE = dict(num_students=500, num_threads=30, mean_posts_per_student=8,
             reply_prob=0.8, revisit_boost=40)


@pytest.mark.parametrize("cfg, digests", [
    # the acceptance course
    (algo_like(scale=0.1), {
        "posts.jsonl": "f27f9030c6337a500baa583431f3ede48ae8e1ede42b5699e85e1d5bbbf6833c",
        "schedule.json": "ce5ede4fe9afe7a837c53297a1807c574d96e5f23566cbe47684d8519bb303c4",
        "ground_truth.json": "40013475f59d597fcd40f90a19f811a4e9c1bfb7dae5cadfa9de148fc4c2c8bc"}),
    # few, long threads: many revisit boosts and replies per draw
    (SynthConfig(**DENSE), {
        "posts.jsonl": "39a2706f04ef7b2fdd6af90bbb8150fd4069ef14ce30767c40ab91997c53164b",
        "schedule.json": "6698d40eb9b56bf9705589bbdbcd3740868d0019b2ec5bda6fead2cd15ae85ae",
        "ground_truth.json": "7fd8ac4f910213301f7d1b9717495bd3d0819f19725d1e725de3697c2543b4df"}),
], ids=["algo_like_0.1", "dense"])
def test_written_courses_keep_their_bytes(tmp_path, cfg, digests):
    # every draw, and so every byte of the three files, is frozen
    ds, gt = generate(cfg)
    corpus.write_jsonl(ds, tmp_path / "posts.jsonl")
    corpus.write_schedule(ds.course, tmp_path / "schedule.json")
    synth.write_ground_truth(gt, tmp_path / "ground_truth.json")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def _weights(n, zeros, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(n)
    p[rng.permutation(n)[:zeros]] = 0.0
    return p / p.sum()


@pytest.mark.parametrize("p", [
    _weights(1, 0, 1),
    _weights(9, 4, 2),  # zero entries, as in a post's topic mix
    _weights(1323, 0, 3),  # the paper-size thread count
    _weights(1323, 600, 4),
], ids=["one", "zeros", "paper", "paper_zeros"])
@pytest.mark.parametrize("size", [None, 1, 17])
def test_choice_draws_what_generator_choice_draws(p, size):
    # the installed numpy's own choice is the oracle: the same indices, and
    # the stream left where choice leaves it
    for seed in range(20):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth._choice(ours, p, size)
        want = theirs.choice(len(p), size=size, p=p)
        if size is None:
            assert int(got) == int(want)
        else:
            assert got.tolist() == want.tolist()
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("overrides", [
    # a weight of inf, whose inf / inf would be NaN
    dict(num_students=30, num_threads=5, seed=1, reply_pull=1e308),
    # finite weights whose sum overflows, which would warn
    dict(num_students=10, num_threads=3, num_topics=1, reply_prob=0.9,
         revisit_boost=0.0, reply_pull=6e307, seed=0),
], ids=["inf_weight", "inf_total"])
def test_generate_refuses_thread_weights_that_overflow(overrides):
    # the settings are finite, so SynthConfig takes them; the overflow is
    # refused before the division, by name and without a warning
    with pytest.raises(ValueError, match="revisit_boost and reply_pull overflow"):
        generate(SynthConfig(**overrides))


def test_generate_post_ids_follow_time_order():
    ds, _ = generate(small_config())
    ids = [ev.post_id for ev in ds.events]
    assert ids == list(range(len(ds.events)))
    times = [ev.timestamp for ev in ds.events]
    assert times == sorted(times)


def test_reply_probability_extremes():
    ds_none, _ = generate(small_config(reply_prob=0.0))
    assert all(ev.parent_post_id is None for ev in ds_none.events)

    ds_all, _ = generate(small_config(reply_prob=1.0, revisit_boost=20.0))
    seen_threads = set()
    for ev in ds_all.events:
        if ev.thread_id in seen_threads:
            assert ev.parent_post_id is not None
        seen_threads.add(ev.thread_id)


def test_parents_reference_earlier_same_thread_posts():
    ds, _ = generate(small_config(reply_prob=0.8))
    by_id = {ev.post_id: ev for ev in ds.events}
    replies = [ev for ev in ds.events if ev.parent_post_id is not None]
    assert replies, "expected some replies at reply_prob=0.8"
    for ev in replies:
        parent = by_id[ev.parent_post_id]
        assert parent.thread_id == ev.thread_id
        assert parent.timestamp < ev.timestamp


def test_revisit_boost_concentrates_posts():
    def revisit_fraction(boost):
        ds, _ = generate(small_config(revisit_boost=boost,
                                      mean_posts_per_student=8, seed=11))
        seen = set()
        repeats = 0
        for ev in ds.events:
            key = (ev.student_id, ev.thread_id)
            if key in seen:
                repeats += 1
            seen.add(key)
        return repeats / len(ds.events)

    assert revisit_fraction(25.0) > revisit_fraction(0.0) + 0.1


def test_drift_pulls_interests_toward_schedule():
    cfg = small_config(drift_strength=0.9)
    _, gt = generate(cfg)
    # by the last week interests should be dominated by that week's topic
    last_week_topic = (cfg.num_weeks - 1) % cfg.num_topics
    dominant = np.argmax(gt.student_interests[:, -1, :], axis=1)
    assert (dominant == last_week_topic).mean() > 0.9


def test_write_ground_truth(tmp_path):
    _, gt = generate(small_config())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    synth.write_ground_truth(gt, a)
    synth.write_ground_truth(gt, b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert set(payload) == {"student_interests", "thread_mixtures",
                            "topic_words", "vocab_words"}
    assert len(payload["vocab_words"]) == 40
