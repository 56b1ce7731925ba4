"""The benchmark's own tests: a smoke run of every stage and check on a tiny
course, and for each output check a corrupted output that it must reject.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They are not part of the repository's test suite (pyproject.toml points
pytest at tests/) and take about a minute.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

TINY = bench.WORKLOADS["tiny"]
TRAIN_END, TEST_END = TINY.train_end_days * bench.DAY, TINY.test_end_days * bench.DAY


def _bench(out: Path, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--keep", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, _bench(out, trace=1)


@pytest.fixture(scope="module")
def outputs(traced):
    out = traced[0]
    plain = out / "plain"
    course = checks.read_course(out / "data", TRAIN_END, TEST_END)
    header, arrays = checks.read_checkpoint(plain / "train" / "checkpoint.bin")
    reports = {name: json.loads((plain / name / "report.json").read_text())
               for name in ("eval", "eval_per_event")}
    served = json.loads((out / "rank-plain.json").read_text())
    return {"out": out, "course": course, "header": header,
            "arrays": {k: v.copy() for k, v in arrays.items()},
            "reports": reports, "served": served}


def _declared():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_smoke_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = _bench(tmp_path, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 1 + sum(TINY.rounds.values())
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared == bench.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())

    # every later round wrote what the first did; an altered output is caught
    assert bench.check_rounds(tmp_path) == []
    ckpt = tmp_path / "round2" / "train" / "checkpoint.bin"
    raw = bytearray(ckpt.read_bytes())
    raw[-1] ^= 1
    ckpt.write_bytes(bytes(raw))
    assert bench.check_rounds(tmp_path)
    ckpt.unlink()
    log = tmp_path / "round2" / "train" / "training_log.csv"
    lines = log.read_text().splitlines()
    lines[-1] = lines[-1].replace(",", ",9", 1)
    log.write_text("\n".join(lines) + "\n")
    assert len(bench.check_rounds(tmp_path)) == 2


def test_smoke_traced_run_reports_every_per_layer_metric(traced):
    _, result = traced
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    zero = [k for k, v in result["metrics"].items()
            if v["value"] == 0 and not k.startswith("trace.")]
    assert zero == []


def test_speed_sampler_samples_while_the_process_works():
    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    sampler.stop()
    # one sample at start, then one per INTERVAL of CPU time
    assert len(sampler.samples_ns) >= 10
    assert sampler.spent_ns > sum(sampler.samples_ns) > 0
    # the slowest 5% are left out of the mean
    assert speed.snippet_s([1000] * 19 + [10 ** 9]) == 1e-6


def test_scaled_time_takes_out_the_sampling_and_scales_to_the_reference():
    proc = bench.Proc(wall_s=2.0, cpu_s=2.0, rss_mb=1.0, spawn=0.0,
                      speed={"samples_ns": [50000] * 20, "spent_ns": 10 ** 8})
    assert proc.scaled_s() == pytest.approx(1.9 * bench.REFERENCE_SNIPPET_S / 50e-6)


def test_declared_workloads_exist():
    for w in _declared()["workloads"]:
        assert w["name"] in bench.WORKLOADS


def test_counts_reject_wrong_user_count(outputs):
    course, header, reports = outputs["course"], outputs["header"], outputs["reports"]
    assert checks.check_counts(course, header, reports) == []

    bad = json.loads(json.dumps(reports))
    bad["eval"]["users_evaluated"] += 1
    assert checks.check_counts(course, header, bad)

    bad = json.loads(json.dumps(reports))
    bad["eval_per_event"]["per_user_ap"].popitem()
    assert checks.check_counts(course, header, bad)

    bad_header = json.loads(json.dumps(header))
    bad_header["scalars"]["num_threads"] -= 1
    assert checks.check_counts(course, bad_header, reports)


def _one_ranking(outputs):
    student, ranked = sorted(outputs["served"]["rankings"].items())[0]
    return int(student), list(ranked["thread_ids"]), list(ranked["distances"])


def test_ranking_rejects_permuted_or_incomplete_order(outputs):
    course, header, arrays = outputs["course"], outputs["header"], outputs["arrays"]
    student, ids, dists = _one_ranking(outputs)
    assert checks.check_ranking(course.train_threads, ids, dists) == []

    # threads swapped, distances left in place: the distances no longer
    # belong to their threads
    own = course.own_threads.get(student, set())
    i, j = [k for k, c in enumerate(ids) if c not in own][:2]
    swapped = ids[:]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert checks.check_distances(course, header, arrays, student, TRAIN_END, swapped, dists)[0]
    # threads swapped with their distances: out of order
    assert checks.check_ranking(course.train_threads, ids[::-1], dists[::-1])
    assert checks.check_ranking(course.train_threads, ids[:-1], dists[:-1])
    assert checks.check_ranking(course.train_threads, ids[:1] + ids[:-1], dists)
    # equal distances must be ordered by the smaller thread id
    lo, hi = sorted(ids[:2])
    tie = [hi, lo] + ids[2:]
    assert checks.check_ranking(course.train_threads, tie, [dists[0], dists[0]] + dists[2:])


def test_distances_reject_an_altered_distance(outputs):
    course, header, arrays = outputs["course"], outputs["header"], outputs["arrays"]
    student, ids, dists = _one_ranking(outputs)
    problems, compared, worst = checks.check_distances(
        course, header, arrays, student, TRAIN_END, ids, dists)
    assert problems == [] and compared > 0 and worst < 1e-12

    own = course.own_threads.get(student, set())
    i = next(i for i, c in enumerate(ids) if c not in own)
    bad = dists[:]
    bad[i] *= 1.0 + 1e-6
    assert checks.check_distances(course, header, arrays, student, TRAIN_END, ids, bad)[0]


def test_ap_rejects_an_altered_value(outputs):
    course, served = outputs["course"], outputs["served"]
    report = outputs["reports"]["eval"]
    assert checks.check_ap(course, served["rankings"], report) == []

    bad = json.loads(json.dumps(report))
    key = sorted(bad["per_user_ap"])[0]
    bad["per_user_ap"][key] += 0.125
    assert checks.check_ap(course, served["rankings"], bad)


def test_embeddings_reject_out_of_range_and_wrong_seen_flags(outputs):
    course, header, arrays = outputs["course"], outputs["header"], outputs["arrays"]
    assert checks.check_embeddings(course, header, arrays) == []

    for name, value in (("store.student_vecs", 1.0 + 1e-12), ("store.thread_vecs", -1e-12)):
        bad = dict(arrays)
        bad[name] = arrays[name].copy()
        bad[name][0, 0] = value
        assert checks.check_embeddings(course, header, bad)

    bad = dict(arrays)
    bad["store.thread_seen"] = arrays["store.thread_seen"].copy()
    bad["store.thread_seen"][0] = not bad["store.thread_seen"][0]
    assert checks.check_embeddings(course, header, bad)


def test_loss_rejects_flat_and_non_finite_logs(outputs):
    losses = checks.read_training_log(outputs["out"] / "plain" / "train" / "training_log.csv")
    assert checks.check_loss(losses, must_fall=True) == []
    assert checks.check_loss([losses[0]] * len(losses), must_fall=True)
    assert checks.check_loss(losses[:-1] + [math.nan], must_fall=False)
    assert checks.check_loss([], must_fall=False)


def test_topics_reject_misplaced_week_vectors(outputs):
    out = outputs["out"]
    topics = checks.read_topic_outputs(out / "data", out / "plain" / "lda")
    assert checks.check_topics(topics) == []

    # each week gets the next week's vector
    rolled = np.roll(topics["weeks"], 1, axis=0)
    assert checks.check_topics(dict(topics, weeks=rolled))
    # topics fitted to nothing: the topic-word rows are shuffled words
    rng = np.random.default_rng(0)
    shuffled = np.array([rng.permutation(row) for row in topics["lda"]])
    assert checks.check_topics(dict(topics, lda=shuffled))


def test_trace_reports_a_missing_function_as_absent(tmp_path):
    # in a child process, so that no wrapper outlives the test
    spans = tmp_path / "spans.npz"
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % str(BENCH),
        "import tracing",
        "from threadrec import model, train",
        "del model.event_grads, train.event_grads",
        "rec = tracing.Recorder()",
        "tracing.install(rec)",
        "rec.dump(%r)" % str(spans),
        "print(rec.absent)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['model.event_grads']"
    trace = tracing.Trace(spans)
    assert trace.calls("model.event_grads") == 0 and trace.total("model.event_grads") == 0.0
