"""Layered benchmark of the threadrec pipeline.

    python3 perfbench/run.py --workload course-small --seed 0 --seconds 4 --trace 0

Set-up writes the workload's course with `threadrec synth`. The user's
pipeline then runs one command at a time, each as its own process: `lda`,
`train`, `eval --checkpoint`, `eval --checkpoint --per-event`, in rounds,
each command in as many rounds as the workload says. Once the first `train`
has written its checkpoint, a ranking process builds one ranker from it and,
after that and each later command, serves a burst of ranking requests in a
closed loop with one caller; the bursts together last `--seconds` seconds.
Times are CPU times scaled to a reference host speed (speed.py); a command's
is the median of its rounds, and the latency percentiles are taken over all
requests (README.md, Steadiness). Every output is checked by `checks.py`,
which does not import threadrec.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run of the same pipeline (see tracing.py) and the tracing overhead
against an untraced run made first. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One BLAS thread everywhere, set before numpy loads here or in a child.
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(SINGLE_THREAD)

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

DAY = 86400.0
# Ranking requests in a run at the least, so that ten latencies lie beyond
# the 90th percentile.
MIN_REQUESTS = 110
# The calibration snippet's time on the reference host, about its median on
# the 2-vCPU host of README.md; measured times are scaled to it.
REFERENCE_SNIPPET_S = 25e-6


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]      # threadrec synth arguments besides --out/--seed
    train_end_days: int
    test_end_days: int
    lda: tuple[str, ...]        # threadrec lda arguments
    train: tuple[str, ...]      # threadrec train --set overrides
    rounds: dict                # runs of each command in an untraced run; the fastest is reported
    loss_must_fall: bool = False
    topics: bool = False
    register_all: bool = False  # give every generated student and thread a post
    # (train, test) post counts: split after the course's first `train`
    # posts and test on the next `test`, instead of at fixed days
    split_posts: tuple[int, int] | None = None

    def split(self, data: Path) -> tuple[float, float]:
        """The train end and test end, in seconds from the course start."""
        if self.split_posts is None:
            return self.train_end_days * DAY, self.test_end_days * DAY
        with open(data / "posts.jsonl") as fh:
            times = sorted(json.loads(line)["timestamp"] for line in fh)
        n_train, n_test = self.split_posts

        def between(k):
            return (times[k - 1] + times[k]) / 2
        return between(n_train), between(n_train + n_test)


_LDA = ("--min-count", "10")
WORKLOADS = {
    # The acceptance course. It keeps the 60 LDA sweeps the topic check
    # needs, and runs them once; epochs and fold-in sweeps are cut to fit
    # the run budget (see README.md). The eval commands, under a second
    # each, run in five rounds.
    "course-small": Workload(
        ("--preset", "algo-like", "--scale", "0.1"), 56, 57,
        ("--iters", "60") + _LDA,
        ("epochs=12", "topic_infer_iters=10", "embed_dim=10"),
        {"lda": 1, "train": 3, "eval": 5, "eval_per_event": 5},
        loss_must_fall=True, topics=True),
    # Every student and thread of the paper-size course is registered, so
    # every tensor has paper shape; training is one epoch over the first 420
    # posts (about three days), and the test window the next 135 (about a
    # day), so that the work does not change much with the seed.
    "course-paper": Workload(
        ("--preset", "algo-like", "--scale", "1.0"), 3, 4,
        ("--iters", "2") + _LDA,
        ("epochs=1", "topic_infer_iters=4", "embed_dim=10"),
        {"lda": 1, "train": 2, "eval": 2, "eval_per_event": 2}, register_all=True,
        split_posts=(420, 135)),
    # Few long threads and many replies: small t-batches, dense excitation.
    # Runnable by name, but not in BENCHMARK.json (see README.md).
    "course-dense": Workload(
        ("--set", "num_students=500", "--set", "num_threads=30",
         "--set", "mean_posts_per_student=8", "--set", "reply_prob=0.8",
         "--set", "revisit_boost=40"), 56, 63,
        ("--iters", "2") + _LDA,
        ("epochs=2", "topic_infer_iters=4", "embed_dim=10"),
        {"lda": 2, "train": 2, "eval": 3, "eval_per_event": 3}),
    # Not a benchmark workload: the smoke test's course.
    "tiny": Workload(
        ("--preset", "algo-like", "--scale", "0.05"), 56, 60,
        ("--iters", "20", "--min-count", "5"),
        ("epochs=6", "topic_infer_iters=4", "embed_dim=6"),
        {"lda": 1, "train": 2, "eval": 2, "eval_per_event": 2},
        loss_must_fall=True, topics=True),
}

END_TO_END_UNITS = {
    "setup_s": "s", "lda_s": "s", "train_s": "s", "eval_s": "s",
    "eval_per_event_s": "s", "rank_p50_ms": "ms", "rank_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
COMMANDS = ("synth", "lda", "train", "eval", "eval_per_event")
STAGES = COMMANDS[1:]


def _calibration_loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i
    return s


def faster_cpu() -> int | None:
    """The CPU of this process's set that runs a short calibration loop
    fastest just now, or None when there is only one. Each vCPU of the host
    switches by itself between speeds up to 2x apart, for seconds at a time
    and independently of the other (README.md, Steadiness)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    best = None
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            took = []
            for _ in range(3):
                t0 = time.perf_counter()
                _calibration_loop()
                took.append(time.perf_counter() - t0)
            if best is None or min(took) < best[0]:
                best = (min(took), cpu)
    finally:
        os.sched_setaffinity(0, cpus)
    return best[1]


def pin(pid: int, cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


class Failure(Exception):
    """A command or request of the pipeline failed; no metrics follow."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float    # user + system time of the process
    rss_mb: float
    spawn: float
    speed: dict | None = None   # the host-speed samples of speed.py

    def scaled_s(self) -> float:
        """CPU time without the sampling's, at the reference host speed."""
        own = self.cpu_s - self.speed["spent_ns"] / 1e9
        return own * REFERENCE_SNIPPET_S / speed.snippet_s(self.speed["samples_ns"])


class Runner:
    """Runs one process at a time and keeps its times and peak RSS."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.rss_mb: list[float] = []

    def run(self, label: str, argv: list[str], count: bool = True) -> Proc:
        log = self.workdir / ("%s.log" % label)
        if count:
            self.attempted += 1
        with open(log, "w") as fh:
            cpu = faster_cpu()
            spawn = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.workdir)
            pin(proc.pid, cpu)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted or terminated: take the child down with us
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - spawn
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.finished(label, proc.returncode, usage, log, count)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, spawn)

    def finished(self, label: str, returncode: int, usage, log: Path, count: bool) -> None:
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        if returncode != 0:
            if count:
                self.failed += 1
            tail = log.read_text()[-2000:]
            raise Failure("%s exited with %d:\n%s" % (label, returncode, tail))

    def threadrec(self, label: str, args: list[str], spans: Path | None = None,
                  sampled: bool = False) -> Proc:
        """A threadrec command; traced into `spans` if given, or with the
        host's speed sampled (speed.py) if `sampled`."""
        samples = self.workdir / ("%s.speed.json" % label)
        if spans is not None:
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), "--"] + args
        elif sampled:
            argv = [sys.executable, str(BENCH / "speed.py"), str(samples), "--"] + args
        else:
            argv = [sys.executable, "-m", "threadrec.cli"] + args
        proc = self.run(label, argv)
        if sampled:
            with open(samples) as fh:
                proc.speed = json.load(fh)
        return proc


def add_registration_posts(data: Path) -> None:
    """Append one post after the end of the course for every generated
    student and thread that has none, so the model's tensors have the
    generated shape whatever the seed. The posts fall after every window
    the pipeline reads, so they change shapes and nothing else."""
    with open(data / "manifest.json") as fh:
        config = json.load(fh)["config"]
    students, threads = set(), set()
    last_t, last_id = 0.0, -1
    with open(data / "posts.jsonl") as fh:
        for line in fh:
            r = json.loads(line)
            students.add(r["student_id"])
            threads.add(r["thread_id"])
            last_t = max(last_t, r["timestamp"])
            last_id = max(last_id, r["post_id"])
    lone_students = [s for s in range(config["num_students"]) if s not in students]
    lone_threads = [t for t in range(config["num_threads"]) if t not in threads]
    with open(data / "posts.jsonl", "a") as fh:
        for i in range(max(len(lone_students), len(lone_threads))):
            post = {"post_id": last_id + 1 + i, "timestamp": last_t + 1.0 + i, "text": "",
                    "student_id": lone_students[i] if i < len(lone_students) else 0,
                    "thread_id": lone_threads[i] if i < len(lone_threads) else 0}
            fh.write(json.dumps(post, sort_keys=True) + "\n")


def set_up(runner: Runner, w: Workload, data: Path, seed: int, spans: Path | None = None) -> Proc:
    proc = runner.threadrec("synth" if spans is None else "traced-synth",
                            ["synth", "--out", str(data), "--seed", str(seed)] + list(w.synth),
                            spans)
    if w.register_all:
        add_registration_posts(data)
    return proc


def stage_args(w: Workload, split: tuple[float, float], seed: int, data: Path, out: Path,
               lda_from: Path | None = None,
               train_from: Path | None = None) -> list[tuple[str, list[str]]]:
    """The pipeline's commands, in order, writing under `out`; `train` reads
    the `lda` outputs under `lda_from` and `eval` the checkpoint under
    `train_from` (both default to `out`)."""
    lda_from = lda_from or out
    train_from = train_from or out
    train_end, test_end = repr(split[0]), repr(split[1])
    seed_arg = ["--seed", str(seed)]
    sets = [a for kv in w.train for a in ("--set", kv)]
    ckpt = str(train_from / "train" / "checkpoint.bin")
    eval_args = ["eval", "--data", str(data), "--checkpoint", ckpt,
                 "--train-end", train_end, "--test-end", test_end] + seed_arg
    return [
        ("lda", ["lda", "--data", str(data), "--out", str(out / "lda"),
                 "--train-end", train_end] + list(w.lda) + seed_arg),
        ("train", ["train", "--data", str(data), "--lda", str(lda_from / "lda"),
                   "--out", str(out / "train"), "--train-end", train_end]
         + sets + seed_arg),
        ("eval", eval_args + ["--out", str(out / "eval")]),
        ("eval_per_event", eval_args + ["--out", str(out / "eval_per_event"), "--per-event"]),
    ]


class Ranker:
    """The ranking process (rank_worker.py): started once from a checkpoint,
    asked for bursts of requests, then ended. Used as a context manager, so
    that the process is stopped and waited for on every way out."""

    def __init__(self, runner: Runner, split: tuple[float, float], data: Path, ckpt: Path,
                 result: Path, spans: Path | None = None):
        self.runner, self.result = runner, result
        self.log_path = runner.workdir / ("%s.log" % result.stem)
        argv = [sys.executable, str(BENCH / "rank_worker.py"), str(data), str(ckpt),
                repr(split[0]), repr(split[1]),
                str(result)] + ([str(spans)] if spans else [])
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=runner.env, cwd=runner.workdir,
                                     text=True)
        self.bursts: list[dict] = []
        self.requests = 0
        self.unserved = 1

    def __enter__(self) -> "Ranker":
        if self.proc.stdout.readline().strip() != "ready":
            self._fail()
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def burst(self, seconds: float) -> None:
        pin(self.proc.pid, faster_cpu())
        try:
            self.proc.stdin.write("%r\n" % seconds)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self._fail()
        line = self.proc.stdout.readline()
        if not line:
            self._fail()
        served = json.loads(line)
        self.bursts.append(served)
        self.requests += len(served["cpu_ns"]) + served["failed"]
        self.unserved = served["unserved"]
        self.runner.attempted += len(served["cpu_ns"]) + served["failed"]
        self.runner.failed += served["failed"]

    def close(self) -> dict:
        self.proc.stdin.write("end\n")
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.flush()
        self.runner.finished(self.result.stem, self.proc.returncode, usage,
                             self.log_path, count=False)
        with open(self.result) as fh:
            served = json.load(fh)
        served["bursts"] = self.bursts
        return served

    def _fail(self):
        self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status) or 1
        self.log.flush()
        self.runner.finished(self.result.stem, self.proc.returncode, usage,
                             self.log_path, count=False)


def measure(runner: Runner, w: Workload, split: tuple[float, float], seed: int, data: Path,
            workdir: Path, seconds: int) -> tuple[dict[str, list[Proc]], dict]:
    """Rounds of the pipeline, each command run in as many rounds as the
    workload says, the first round writing to workdir/plain and round r to
    workdir/round<r>; a command reads the outputs of its own round where
    that round ran the command before it, and those of the first
    otherwise. The ranking process, built from the first checkpoint, serves
    a burst after each command from then on, the bursts together lasting
    `seconds`. Returns the processes by stage and what was served."""
    times: dict[str, list[Proc]] = {}
    order = [(r, stage) for r in range(max(w.rounds.values()))
             for stage in STAGES if w.rounds[stage] > r]
    bursts = len(order) - order.index((0, "train"))
    plain = workdir / "plain"
    ranker = None
    with contextlib.ExitStack() as stack:
        for r, stage in order:
            out = plain if r == 0 else workdir / ("round%d" % (r + 1))
            out.mkdir(parents=True, exist_ok=True)
            lda_from = out if w.rounds["lda"] > r else plain
            train_from = out if w.rounds["train"] > r else plain
            args = dict(stage_args(w, split, seed, data, out, lda_from, train_from))[stage]
            times.setdefault(stage, []).append(
                runner.threadrec("%s-%s" % (out.name, stage), args, sampled=True))
            if ranker is None and stage == "train":
                ranker = stack.enter_context(
                    Ranker(runner, split, data, out / "train" / "checkpoint.bin",
                           workdir / "rank-plain.json"))
            if ranker is not None:
                ranker.burst(seconds / bursts)
        while ranker.requests < MIN_REQUESTS or ranker.unserved:
            ranker.burst(0.0)
        served = ranker.close()
    return times, served


def single_pass(runner: Runner, w: Workload, split: tuple[float, float], seed: int, data: Path,
                out: Path, seconds: int, result: Path, trace: bool) -> tuple[dict[str, Proc], dict]:
    """One round of the pipeline, traced or not, then one burst of ranking
    requests lasting `seconds`."""
    out.mkdir(parents=True, exist_ok=True)
    procs = {}
    for stage, args in stage_args(w, split, seed, data, out):
        spans = out / ("%s.npz" % stage) if trace else None
        procs[stage] = runner.threadrec("%s-%s" % (out.name, stage), args, spans)
    with Ranker(runner, split, data, out / "train" / "checkpoint.bin", result,
                out / "rank.npz" if trace else None) as ranker:
        ranker.burst(seconds)
        while ranker.requests < MIN_REQUESTS or ranker.unserved:
            ranker.burst(0.0)
        served = ranker.close()
    return procs, served


def check_outputs(w: Workload, split: tuple[float, float], data: Path, out: Path,
                  served: dict) -> tuple[list[str], dict]:
    """Every output check; returns (problems, facts about the course)."""
    t_query = split[0]
    course = checks.read_course(data, t_query, split[1])
    header, arrays = checks.read_checkpoint(out / "train" / "checkpoint.bin")
    reports = {}
    for name in ("eval", "eval_per_event"):
        with open(out / name / "report.json") as fh:
            reports[name] = json.load(fh)

    problems = checks.check_counts(course, header, reports)
    config = header["meta"].get("config", {})
    flags = [k for k, v in config.items() if k.startswith("no_") and v]
    if flags:
        problems.append("checkpoint trained with ablation flags %s" % flags)
    if served["changed"]:
        problems.append("%d ranking responses differ from the student's first" % served["changed"])
    if sorted(served["students"]) != sorted(course.relevant):
        problems.append("ranking process served other students than the test window's")
    compared, worst = 0, 0.0
    for s, ranked in served["rankings"].items():
        problems += checks.check_ranking(course.train_threads, ranked["thread_ids"],
                                         ranked["distances"])
        p, n, rel = checks.check_distances(course, header, arrays, int(s), t_query,
                                           ranked["thread_ids"], ranked["distances"])
        problems += p
        compared += n
        worst = max(worst, rel)
    problems += checks.check_ap(course, served["rankings"], reports["eval"])
    problems += checks.check_embeddings(course, header, arrays)
    problems += checks.check_loss(checks.read_training_log(out / "train" / "training_log.csv"),
                                  w.loss_must_fall)
    topics = checks.read_topic_outputs(data, out / "lda")
    likely, recovered = checks.topic_weeks(topics)
    if w.topics:
        problems += checks.check_topics(topics)
    facts = {"posts": course.posts, "students": course.num_students,
             "threads": course.num_threads, "train_posts": course.train_posts,
             "candidates": len(course.train_threads),
             "test_students": len(course.relevant), "test_posts": course.test_posts,
             "distances_compared": compared, "distance_max_rel_err": worst,
             "weeks_on_likeliest_topic": len(likely),
             "weeks_on_planted_topic": len(recovered)}
    return problems, facts


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentiles_ms(latencies_ns: list[int]) -> tuple[float, float]:
    q = statistics.quantiles(latencies_ns, n=10, method="inclusive")
    return statistics.median(latencies_ns) / 1e6, q[8] / 1e6


def latencies_ns(served: dict) -> list[int]:
    return [ns for b in served["bursts"] for ns in b["cpu_ns"]]


def scaled_latencies_ns(bursts: list[dict]) -> list[float]:
    """The CPU latency of every request, at the reference host speed of its
    burst."""
    out = []
    for b in bursts:
        scale = REFERENCE_SNIPPET_S / speed.snippet_s(b["samples_ns"])
        out += [ns * scale for ns in b["cpu_ns"]]
    return out


def end_to_end(setup_s: float, times: dict[str, list[Proc]], served: dict,
               rss_mb: list[float]) -> dict[str, float]:
    """The median over rounds of each command's scaled CPU time, and the
    percentiles of the scaled request latencies."""
    cmd = {stage: statistics.median(p.scaled_s() for p in procs)
           for stage, procs in times.items()}
    p50, p90 = percentiles_ms(scaled_latencies_ns(served["bursts"]))
    return {"setup_s": setup_s, "lda_s": cmd["lda"], "train_s": cmd["train"],
            "eval_s": cmd["eval"], "eval_per_event_s": cmd["eval_per_event"],
            "rank_p50_ms": p50, "rank_p90_ms": p90, "peak_rss_mb": max(rss_mb)}


def per_layer(traces: dict[str, tracing.Trace], procs: dict[str, Proc],
              rank: tracing.Trace, plain: dict[str, float], plain_p50: float,
              traced_p50: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced processes; see README.md for the
    layer map and what each metric should move."""
    pipe = [traces[c] for c in COMMANDS]

    def tot(name):
        return sum(t.total(name) for t in pipe)

    def calls(name):
        return sum(t.calls(name) for t in pipe)

    def cnt(key):
        return sum(t.count(key) for t in pipe)

    syn, lda, trn = traces["synth"], traces["lda"], traces["train"]
    fit_s = trn.total("train.fit")
    features_s = trn.total("train.prepare_event_features")
    batches = trn.count("train.t_batch.batches")
    m = {
        "synth.generate_s": (syn.total("synth.generate"), "s"),
        "corpus.ingest_s": (_ratio(tot("corpus.ingest_jsonl"), calls("corpus.ingest_jsonl")), "s"),
        "corpus.ingest_posts_per_s": (_ratio(cnt("corpus.ingest_jsonl.posts"),
                                             tot("corpus.ingest_jsonl")), "1/s"),
        "corpus.history_calls": (calls("corpus.ThreadEventIndex.history"), "count"),
        "corpus.history_us": (1e6 * _ratio(tot("corpus.ThreadEventIndex.history"),
                                           calls("corpus.ThreadEventIndex.history")), "us"),
        "corpus.history_owned_share": (_ratio(cnt("corpus.ThreadEventIndex.history.owned"),
                                              calls("corpus.ThreadEventIndex.history")), "share"),
        "text.preprocess_s": (_ratio(sum(t.total_under("text.preprocess", "corpus.ingest_jsonl")
                                         for t in pipe), calls("corpus.ingest_jsonl")), "s"),
        "text.lda_fit_s": (lda.total("text.lda_fit"), "s"),
        "text.lda_token_steps_per_s": (_ratio(lda.count("text.lda_fit.token_steps"),
                                              lda.total("text.lda_fit")), "1/s"),
        "text.lda_infer_calls": (calls("text.lda_infer"), "count"),
        "text.lda_infer_ms": (1e3 * _ratio(tot("text.lda_infer"), calls("text.lda_infer")), "ms"),
        "text.course_topics_s": (lda.total("text.course_topics"), "s"),
        "train.prepare_event_features_s": (features_s, "s"),
        "train.features_posts_per_s": (_ratio(trn.count("train.prepare_event_features.posts"),
                                              features_s), "1/s"),
        "train.t_batch_s": (trn.total("train.t_batch"), "s"),
        "train.batches": (batches, "count"),
        "train.events_per_batch": (_ratio(trn.count("train.t_batch.events"), batches), "count"),
        "train.fit_self_s": (trn.self_time("train.fit"), "s"),
        "train.fit_events_per_s": (_ratio(trn.count("train.fit.event_steps"),
                                          fit_s - features_s), "1/s"),
        "train.clip_gradients_s": (trn.total("train.clip_gradients"), "s"),
        "train.adam_step_s": (trn.total("train.Adam.step"), "s"),
        "model.event_grads_calls": (calls("model.event_grads"), "count"),
        "model.event_grads_us": (1e6 * _ratio(tot("model.event_grads"),
                                              calls("model.event_grads")), "us"),
        "model.excitation_calls": (calls("model.excitation"), "count"),
        "model.excitation_nonzero_share": (_ratio(cnt("model.excitation.nonzero"),
                                                  calls("model.excitation")), "share"),
        "model.save_checkpoint_s": (trn.total("model.save_checkpoint"), "s"),
        "model.load_checkpoint_s": (_ratio(tot("model.load_checkpoint"),
                                           calls("model.load_checkpoint")), "s"),
        "model.checkpoint_mb": (trn.count("model.save_checkpoint.bytes") / 1e6, "MB"),
        "recommend.build_model_ranker_s": (rank.total("recommend.build_model_ranker"), "s"),
        "recommend.rank_threads_ms": (1e3 * _ratio(rank.total("recommend.rank_threads"),
                                                   rank.calls("recommend.rank_threads")), "ms"),
        "recommend.candidates_per_request": (
            _ratio(rank.count("recommend.rank_threads.candidates"),
                   rank.calls("recommend.rank_threads")), "count"),
        "recommend.evaluate_s": (traces["eval"].total("recommend.evaluate"), "s"),
        "recommend.evaluate_per_event_s": (
            traces["eval_per_event"].total("recommend.evaluate_per_event"), "s"),
        "cli.write_manifest_s": (_ratio(tot("cli.write_manifest"), calls("cli.write_manifest")), "s"),
    }
    startups = []
    for c in COMMANDS:
        cmd = "cli.cmd_" + ("eval" if c == "eval_per_event" else c)
        first = traces[c].first_start(cmd)
        if first is not None:
            startups.append(first - procs[c].spawn)
        m["cli.%s.self_s" % c] = (traces[c].self_time(cmd), "s")
        m["cli.%s.peak_rss_mb" % c] = (procs[c].rss_mb, "MB")
    m["cli.startup_s"] = (statistics.mean(startups) if startups else 0.0, "s")
    plain_total = sum(plain[c] for c in COMMANDS)
    traced_total = sum(procs[c].cpu_s for c in COMMANDS)
    m["trace.overhead_share"] = (traced_total / plain_total - 1.0, "share")
    m["trace.rank_overhead_share"] = (traced_p50 / plain_p50 - 1.0, "share")
    return m


def check_rounds(workdir: Path) -> list[str]:
    """Every later round must write what the first wrote, byte for byte;
    manifests aside, and of the training log only the losses, since both
    also hold times."""
    problems = []
    plain = workdir / "plain"
    for other in sorted(workdir.glob("round*")):
        for path in sorted(plain.glob("*/*")):
            rel = path.relative_to(plain)
            twin = other / rel
            if path.name == "manifest.json" or not twin.parent.is_dir():
                continue   # a command this round did not run
            if not twin.is_file():
                same = False
            elif path.name == "training_log.csv":
                same = checks.read_training_log(path) == checks.read_training_log(twin)
            else:
                same = _sha256(path) == _sha256(twin)
            if not same:
                problems.append("%s wrote another %s than the first round" % (other.name, rel))
    return problems


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    w = WORKLOADS[workload]
    runner = Runner(workdir)
    data = workdir / "data"
    synth = set_up(runner, w, data, seed)
    # CPU time from the start of this process, plus that of synth
    setup_s = time.process_time() + synth.cpu_s
    split = w.split(data)

    plain = workdir / "plain"
    if trace:
        plain_procs, served = single_pass(runner, w, split, seed, data, plain, seconds,
                                          workdir / "rank-plain.json", trace=False)
    else:
        times, served = measure(runner, w, split, seed, data, workdir, seconds)
    problems, facts = check_outputs(w, split, data, plain, served)
    print("make-up: " + json.dumps(facts))

    if not trace:
        problems += check_rounds(workdir)
        print("rounds: " + json.dumps({
            stage: {"wall_s": [round(p.wall_s, 4) for p in procs],
                    "cpu_s": [round(p.cpu_s, 4) for p in procs],
                    "snippet_us": [round(1e6 * speed.snippet_s(p.speed["samples_ns"]), 2)
                                   for p in procs],
                    "scaled_s": [round(p.scaled_s(), 4) for p in procs]}
            for stage, procs in times.items()}))
        print("bursts: " + json.dumps({
            "requests": [len(b["cpu_ns"]) for b in served["bursts"]],
            "p50_wall_ms": [round(statistics.median(b["wall_ns"]) / 1e6, 4)
                            for b in served["bursts"]],
            "p50_cpu_ms": [round(statistics.median(b["cpu_ns"]) / 1e6, 4)
                           for b in served["bursts"]],
            "snippet_us": [round(1e6 * speed.snippet_s(b["samples_ns"]), 2)
                           for b in served["bursts"]],
            "p50_scaled_ms": [round(statistics.median(scaled_latencies_ns([b])) / 1e6, 4)
                              for b in served["bursts"]]}))
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(setup_s, times, served, runner.rss_mb).items()}
    else:
        tdir = workdir / "traced"
        tdir.mkdir()
        procs = {"synth": set_up(runner, w, tdir / "data", seed, tdir / "synth.npz")}
        traced_procs, tserved = single_pass(runner, w, split, seed, data, tdir, seconds,
                                            workdir / "rank-traced.json", trace=True)
        procs.update(traced_procs)
        for rel in ("data/posts.jsonl", "train/checkpoint.bin", "eval/report.json",
                    "eval_per_event/report.json"):
            src = (data / "posts.jsonl") if rel.startswith("data/") else plain / rel
            if _sha256(src) != _sha256(tdir / rel):
                problems.append("traced run changed %s" % rel)
        traces = {c: tracing.Trace(tdir / ("%s.npz" % c)) for c in COMMANDS}
        rank = tracing.Trace(tdir / "rank.npz")
        absent = sorted(set().union(*(t.absent for t in traces.values())))
        hook_errors = sum(t.hook_errors for t in traces.values()) + rank.hook_errors
        plain_cpu = {stage: p.cpu_s for stage, p in plain_procs.items()}
        plain_cpu["synth"] = synth.cpu_s
        metrics = per_layer(traces, procs, rank, plain_cpu,
                            percentiles_ms(latencies_ns(served))[0],
                            percentiles_ms(latencies_ns(tserved))[0])
        print("trace: absent functions %s, counter errors %d, t-batches %d, lda tokens %d"
              % (absent or "none", hook_errors, metrics["train.batches"][0],
                 traces["lda"].count("text.lda_fit.tokens")))

    for p in problems:
        print("check failed: " + p, file=sys.stderr)
    return {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="total length of the bursts of ranking requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", metavar="DIR",
                        help="write run outputs to DIR and keep them")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "threadrec" / "cli.py").is_file():
        print("error: no threadrec sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.keep:
        workdir = Path(args.keep).resolve()
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = ROOT / ".perfbench-work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Failure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
