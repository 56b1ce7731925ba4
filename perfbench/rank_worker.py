"""Ranking process of the benchmark.

Builds one ranker from a trained checkpoint, the way `threadrec eval` does at
the split, then serves bursts of ranking requests in a closed loop with one
caller: each request (one student, all candidates) is sent after the previous
one returned. The harness asks for a burst by writing a line with its length
in seconds to standard input; the burst goes on cycling over the test-window
students in id order from where the last one stopped, until the time is up,
and answers with one JSON line of latencies on standard output.
Between bursts the process waits on its input and uses no CPU, so bursts can
be spread over a run while the pipeline's commands still run one at a time.
An `end` line makes it write its result and exit.

    python3 perfbench/rank_worker.py DATA CHECKPOINT TRAIN_END TEST_END \
        RESULT_JSON [SPANS_OUT]

A request's latency is taken twice, as wall time and as the CPU time of the
thread (the process's CPU clock is only updated at scheduler ticks while the
sampler's timer runs; BLAS runs on this one thread), and the host's speed is sampled during each burst (speed.py; see
README.md, Steadiness). The result holds the ranking served to each student
in the first round and how many later responses differed from it.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402

def main(argv: list[str]) -> int:
    data, checkpoint, train_end, test_end, result_path = argv[:5]
    spans_out = argv[5] if len(argv) > 5 else None
    rec = None
    if spans_out:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
    from threadrec import corpus, model, recommend

    ds = corpus.ingest_jsonl(Path(data) / "posts.jsonl", Path(data) / "schedule.json")
    spec = corpus.SplitSpec(float(train_end), float(test_end))
    train_ds, test_ds = corpus.split_by_time(ds, spec)
    params, store, week_topics, meta = model.load_checkpoint(checkpoint)
    flags = model.AblationFlags(**{
        name: bool(meta.get("config", {}).get(name, False))
        for name in model.AblationFlags.NAMES})
    started = time.perf_counter()
    rank = recommend.build_model_ranker(params, store, week_topics, train_ds,
                                        spec.train_end, flags=flags)
    build_s = time.perf_counter() - started
    students = sorted({ev.student_id for ev in test_ds.events})
    if not students:
        print("test window holds no posts to rank for", file=sys.stderr)
        return 1

    request_nid = rec.name_id("bench.rank_request") if rec else None
    first: dict[int, tuple[list[int], list[float]]] = {}
    changed = 0
    failed = 0
    tried = 0
    print("ready", flush=True)

    for line in sys.stdin:
        if line.strip() == "end":
            break
        budget = float(line)
        cpu_ns: list[int] = []
        wall_ns: list[int] = []
        burst_failed = 0
        sampler = speed.Sampler()
        sampler.start()
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < budget or not (wall_ns or burst_failed):
            student = students[tried % len(students)]
            tried += 1
            span = rec.begin(request_nid) if rec else None
            spent = sampler.spent_ns
            t0, c0 = time.perf_counter_ns(), time.thread_time_ns()
            try:
                ranked = rank(student)
            except (recommend.EvaluationError, ValueError) as exc:
                burst_failed += 1
                print("rank request for student %d failed: %s" % (student, exc),
                      file=sys.stderr)
                continue
            finally:
                c1, t1 = time.thread_time_ns(), time.perf_counter_ns()
                if rec:
                    rec.end(span)
            # without the speed samples taken during the request
            spent = sampler.spent_ns - spent
            wall_ns.append(t1 - t0 - spent)
            cpu_ns.append(c1 - c0 - spent)
            got = (ranked.thread_ids, ranked.distances)
            if student not in first:
                first[student] = got
            elif got != first[student]:
                changed += 1
        sampler.stop()
        failed += burst_failed
        print(json.dumps({"cpu_ns": cpu_ns, "wall_ns": wall_ns, "samples_ns": sampler.samples_ns,
                          "failed": burst_failed, "unserved": max(0, len(students) - tried)}),
              flush=True)

    result = {
        "build_model_ranker_s": build_s,
        "students": students,
        "failed": failed,
        "changed": changed,
        "rankings": {str(s): {"thread_ids": ids, "distances": dists}
                     for s, (ids, dists) in first.items()},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if rec:
        rec.dump(spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
