"""Command line pipeline: synth -> lda -> train -> eval / ablate / recommend.

A thin layer over the library: each subcommand parses only the flags its
handler reads, and imports only the modules it runs; corpus and text,
which every command uses, are imported here. synth, train and ablate take
config overrides (--config and --set), which become a SynthConfig or
TrainConfig through one parser, and eval and recommend open a checkpoint
through one gate.

Every run writes a manifest.json into its output directory recording the
command, the effective config, the seed, and sha256 checksums of inputs and
outputs, so results can be audited later. Timing logs are listed in the
manifest but not checksummed, since wall time varies between runs; the
stage timings and, for train, the peak resident set are recorded but not
checksummed either.

Exit codes: 0 success, 1 runtime failure, 2 bad usage or config.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus, text

POSTS_FILE = "posts.jsonl"
SCHEDULE_FILE = "schedule.json"
GROUND_TRUTH_FILE = "ground_truth.json"
VOCAB_FILE = "vocab.csv"
LDA_FILE = "lda_model.csv"
COURSE_TOPICS_FILE = "course_topics.csv"
CHECKPOINT_FILE = "checkpoint.bin"
TRAIN_LOG_FILE = "training_log.csv"
TRAJECTORIES_FILE = "trajectories.csv"
REPORT_FILE = "report.json"
ABLATION_JSON = "ablation.json"
MANIFEST_FILE = "manifest.json"
DATA_FILES = (POSTS_FILE, SCHEDULE_FILE)
LDA_FILES = (VOCAB_FILE, LDA_FILE, COURSE_TOPICS_FILE)

# Fixed per-stage seed offsets so one --seed reproduces a whole pipeline
# without the stages sharing RNG streams.
SEED_OFFSETS = {"synth": 0, "lda": 1, "train": 2, "ablate": 4}


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


_DURATION_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(s|min|h|d|w)?\s*$")
_DURATION_UNITS = {None: 1.0, "s": 1.0, "min": 60.0, "h": 3600.0,
                   "d": 86400.0, "w": 604800.0}


def parse_duration(value: str) -> float:
    """Seconds from '3600', '45min', '8h', '2d', or '8w'; a count of
    seconds beyond a float's range is refused."""
    m = _DURATION_RE.match(str(value))
    if not m:
        raise UsageError("cannot parse duration %r" % (value,))
    seconds = float(m.group(1)) * _DURATION_UNITS[m.group(2)]
    if not math.isfinite(seconds):
        raise UsageError("duration %r is not a finite number of seconds" % (value,))
    return seconds


def _positive(kind):
    """argparse type: a finite number of the given kind above zero."""
    def parse(value: str):
        number = kind(value)
        if not (number > 0 and math.isfinite(number)):
            raise argparse.ArgumentTypeError("must be finite and > 0, got %s" % value)
        return number
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def read_config_file(path) -> dict[str, str]:
    """Flat 'key = value' file in UTF-8; '#' starts a comment."""
    mapping: dict[str, str] = {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read config file %s: %s" % (path, exc))
    for line_no, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s line %d: expected key = value" % (path, line_no))
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _collect_overrides(args) -> dict[str, str]:
    mapping = read_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError("--set expects key=value, got %r" % (item,))
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_bool(value: str) -> bool:
    word = value.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


_COERCE = {"bool": _parse_bool, "int": int, "float": float}


def _config(base, overrides: dict[str, str]):
    """Copy of the dataclass config base with string overrides, each
    coerced by its field's type. An unknown key, a value that does not
    parse and a config the dataclass rejects are usage errors."""
    kinds = {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(base)}
    changes = {}
    for key, value in overrides.items():
        if key not in kinds:
            raise UsageError("unknown config key %r" % (key,))
        try:
            changes[key] = _COERCE.get(kinds[key], str)(value)
        except ValueError:
            raise UsageError("bad value %r for config key %r" % (value, key))
    try:
        return dataclasses.replace(base, **changes)
    except ValueError as exc:
        raise UsageError(str(exc))


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, seed, config: dict,
                   inputs: list[Path], outputs: list[Path],
                   logs: list[Path], seconds: float, timings: dict[str, float],
                   features: dict | None = None,
                   peak_rss_mb: float | None = None) -> Path:
    """timings holds the seconds of each stage of the command; features, if
    given, describes the event features it trained on, and peak_rss_mb the
    process's peak resident set."""
    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _file_sha256(Path(p)) for p in inputs},
        "outputs": {Path(p).name: _file_sha256(Path(p)) for p in outputs},
        "logs": [Path(p).name for p in logs],
        "seconds": round(seconds, 3),
        "timings": {name: round(value, 3) for name, value in timings.items()},
    }
    if features is not None:
        manifest["features"] = features
    if peak_rss_mb is not None:
        manifest["peak_rss_mb"] = round(peak_rss_mb, 1)
    path = out_dir / MANIFEST_FILE
    corpus.write_json(manifest, path)
    return path


def verify_manifest(manifest_path) -> list[str]:
    """Recompute output checksums; returns a list of mismatch descriptions."""
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    problems = []
    for name, expected in manifest.get("outputs", {}).items():
        target = manifest_path.parent / name
        if not target.exists():
            problems.append("missing output %s" % name)
        elif _file_sha256(target) != expected:
            problems.append("checksum mismatch for %s" % name)
    return problems


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_spec(args) -> corpus.SplitSpec:
    """The --train-end and --test-end split; a reversed or empty window
    is bad usage."""
    try:
        return corpus.SplitSpec(parse_duration(args.train_end), parse_duration(args.test_end))
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_dataset(data_dir) -> corpus.Dataset:
    data = Path(data_dir)
    return corpus.ingest_jsonl(data / POSTS_FILE, data / SCHEDULE_FILE)


def _prepare_features(lda_dir, window: corpus.Dataset, cfg) -> train.PreparedFeatures:
    """The event features of window under the lda command's artifacts."""
    from . import train
    lda_dir = Path(lda_dir)
    return train.prepare_event_features(
        window, text.load_lda(lda_dir / LDA_FILE), text.load_vocabulary(lda_dir / VOCAB_FILE),
        text.load_topic_distributions(lda_dir / COURSE_TOPICS_FILE), cfg)


def _open_checkpoint(path, ds: corpus.Dataset, t_query: float, flag: str):
    """Load a checkpoint to rank on ds at t_query, the time given by flag.
    Its meta must hold its times as null or finite numbers and its config
    as an object, whose ablation flags, where present, are booleans. A
    checkpoint answers only for the course shape it was trained on. Its
    states hold every training post, so a query at or before the last of
    them would score posts the model has already seen.
    Returns (params, store, week_topics, meta, flags), flags being the
    ablation flags it was trained with."""
    from . import model
    params, store, week_topics, meta = model.load_checkpoint(path)
    for key in ("last_post_time", "train_end"):
        value = meta.get(key)
        if value is not None and corpus.number_fault(value):
            raise ValueError("the checkpoint's %s must be null or a finite number, not %r"
                             % (key, value))
    config = meta.get("config", {})
    if not isinstance(config, dict):
        raise ValueError("the checkpoint's config must be an object, not %r" % (config,))
    flags = {name: config.get(name, False) for name in model.AblationFlags.NAMES}
    for name, value in flags.items():
        if not isinstance(value, bool):  # "false" would read as true
            raise ValueError("the checkpoint's config %s must be true or false, not %r"
                             % (name, value))
    trained = (params.num_students, params.num_threads, params.num_weeks)
    given = (ds.num_students, ds.num_threads, ds.course.num_weeks)
    if trained != given:
        raise UsageError("the checkpoint has %d students, %d threads and %d weeks, "
                         "the data %d, %d and %d" % (trained + given))
    last_post = meta.get("last_post_time")
    if last_post is not None and t_query <= last_post:
        raise UsageError("%s %r is at or before the checkpoint's last training post at %r"
                         % (flag, t_query, last_post))
    return params, store, week_topics, meta, model.AblationFlags(**flags)


def cmd_synth(args) -> int:
    from . import synth
    started = time.perf_counter()
    if args.scale is not None and not args.preset:
        raise UsageError("--scale needs a --preset to scale")
    base = synth.algo_like(scale=args.scale or 1.0) if args.preset else synth.SynthConfig()
    cfg = _config(base, _collect_overrides(args))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed + SEED_OFFSETS["synth"])
    t_generate = time.perf_counter()
    ds, gt = synth.generate(cfg)
    t_write = time.perf_counter()
    out = _out_dir(args)
    corpus.write_jsonl(ds, out / POSTS_FILE)
    corpus.write_schedule(ds.course, out / SCHEDULE_FILE)
    synth.write_ground_truth(gt, out / GROUND_TRUTH_FILE)
    timings = {"generate_s": t_write - t_generate, "write_s": time.perf_counter() - t_write}

    outputs = [out / POSTS_FILE, out / SCHEDULE_FILE, out / GROUND_TRUTH_FILE]
    write_manifest(out, "synth", cfg.seed, dataclasses.asdict(cfg), [], outputs, [],
                   time.perf_counter() - started, timings)
    print("synth: %d posts, %d students, %d threads -> %s"
          % (len(ds.events), ds.num_students, ds.num_threads, out))
    return 0


def cmd_lda(args) -> int:
    started = time.perf_counter()
    train_end = parse_duration(args.train_end) if args.train_end else None
    data = Path(args.data)
    ds = _load_dataset(data)
    window = ds if train_end is None else corpus.events_before(ds, train_end)

    num_topics = args.num_topics or ds.course.num_weeks
    seed = (args.seed if args.seed is not None else 0) + SEED_OFFSETS["lda"]
    # one topic model over the window's posts and the week descriptions
    docs = [ev.tokens for ev in window.events] + ds.course.week_docs

    t_vocab = time.perf_counter()
    vocab = text.build_vocabulary(docs, min_count=args.min_count)
    tf = [text.term_frequency(doc, vocab) for doc in docs]
    t_fit = time.perf_counter()
    lda = text.lda_fit(tf, num_topics, iters=args.iters, seed=seed, vocab_size=len(vocab))
    t_topics = time.perf_counter()
    week_topics = text.course_topics(ds.course, lda, vocab)
    timings = {"vocabulary_s": t_fit - t_vocab, "lda_fit_s": t_topics - t_fit,
               "lda_sweep_s": (t_topics - t_fit) / args.iters,
               "course_topics_s": time.perf_counter() - t_topics}

    out = _out_dir(args)
    text.save_vocabulary(vocab, out / VOCAB_FILE)
    text.save_lda(lda, out / LDA_FILE)
    text.save_topic_distributions(week_topics, out / COURSE_TOPICS_FILE)

    config = {"num_topics": num_topics, "iters": args.iters,
              "min_count": args.min_count, "train_end": train_end}
    inputs = [data / n for n in DATA_FILES]
    outputs = [out / n for n in LDA_FILES]
    write_manifest(out, "lda", seed, config, inputs, outputs, [],
                   time.perf_counter() - started, timings)
    print("lda: %d topics over %d terms, final log-likelihood %.2f -> %s"
          % (num_topics, lda.topic_word.shape[1], lda.loglik_history[-1], out))
    return 0


def cmd_train(args) -> int:
    from . import model, recommend, train
    started = time.perf_counter()
    cfg = _config(train.TrainConfig(), _collect_overrides(args))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed + SEED_OFFSETS["train"])
    train_end = parse_duration(args.train_end) if args.train_end else None
    data = Path(args.data)
    ds = _load_dataset(data)
    window = ds if train_end is None else corpus.events_before(ds, train_end)

    t_features = time.perf_counter()
    features = _prepare_features(args.lda, window, cfg)
    out = _out_dir(args)
    t_fit = time.perf_counter()
    sink = [] if args.export_trajectories else None
    params, store = train.fit(features, cfg, log_path=out / TRAIN_LOG_FILE,
                              trajectory_sink=sink)
    t_save = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    # the data enter by content, so the bytes do not depend on where it lives;
    # the last post time bounds the queries the trained states can answer
    meta = {"config": dataclasses.asdict(cfg), "train_end": train_end,
            "data_sha256": {name: _file_sha256(data / name) for name in DATA_FILES},
            "last_post_time": window.events[-1].timestamp,
            "num_events": len(window.events)}
    model.save_checkpoint(out / CHECKPOINT_FILE, params, store, features.week_topics, meta)
    outputs = [out / CHECKPOINT_FILE]
    logs = [out / TRAIN_LOG_FILE]
    if sink is not None:
        recommend.write_trajectories(sink, out / TRAJECTORIES_FILE)
        outputs.append(out / TRAJECTORIES_FILE)
    timings = {"ingest_s": t_features - started, "features_s": t_fit - t_features,
               "fit_s": t_save - t_fit, "save_s": time.perf_counter() - t_save}

    events = features.events
    coverage = {"events": len(events), "excitation_nonzero_share":
                np.count_nonzero(events.excitation_value) / len(events),
                "time_scale": features.trackers.time_scale}
    for name in ("delta_student", "delta_thread"):  # elapsed times in time_scale units
        coverage[name] = dict(zip(("p50", "p99", "max"),
                                  recommend.percentiles(getattr(events, name), (50, 99, 100))))
    inputs = [data / n for n in DATA_FILES] + [Path(args.lda) / n for n in LDA_FILES]
    write_manifest(out, "train", cfg.seed, dataclasses.asdict(cfg), inputs, outputs, logs,
                   time.perf_counter() - started, timings, coverage, peak_rss_mb)
    print("train: %d events, %d epochs -> %s" % (len(window.events), cfg.epochs, out))
    return 0


def _baseline_rank_fn(name: str, train_ds: corpus.Dataset):
    from . import recommend
    if name == "user-rec":
        return lambda student, t: recommend.baseline_user_rec(train_ds, student)
    ranking = (recommend.baseline_pop if name == "pop" else recommend.baseline_rec)(train_ds)
    return lambda student, t: ranking


def cmd_eval(args) -> int:
    from . import recommend
    started = time.perf_counter()
    if args.baseline and args.per_event:
        raise UsageError("--per-event re-ranks with a --checkpoint, not a --baseline")
    spec = _split_spec(args)
    data = Path(args.data)
    ds = _load_dataset(data)
    train_ds, test_ds = corpus.split_by_time(ds, spec)
    timings = {"ingest_s": time.perf_counter() - started}

    inputs = [data / n for n in DATA_FILES]
    queries = (recommend.event_queries(test_ds) if args.per_event
               else recommend.split_queries(test_ds, spec.train_end))
    if args.baseline:
        t_rank = time.perf_counter()
        report = recommend.evaluate(_baseline_rank_fn(args.baseline, train_ds), queries,
                                    n_cutoff=args.n_cutoff, method=args.baseline)
    else:
        inputs.append(Path(args.checkpoint))
        t_load = time.perf_counter()
        params, store, week_topics, meta, flags = _open_checkpoint(
            args.checkpoint, ds, spec.train_end, "--train-end")
        t_rank = time.perf_counter()
        timings["load_checkpoint_s"] = t_rank - t_load
        trained_to = meta.get("train_end")
        if trained_to is not None and trained_to != spec.train_end:
            raise UsageError("--train-end %r differs from the checkpoint's train_end %r"
                             % (spec.train_end, trained_to))
        rank_fn = recommend.build_model_ranker(params, store, week_topics,
                                               corpus.events_before(ds, spec.test_end),
                                               spec.train_end, flags=flags)
        report = recommend.evaluate(rank_fn, queries, n_cutoff=args.n_cutoff,
                                    method="model-per-event" if args.per_event else "model")
    timings["rank_s"] = time.perf_counter() - t_rank

    out = _out_dir(args)
    recommend.write_report_json(report, out / REPORT_FILE)
    config = {"train_end": spec.train_end, "test_end": spec.test_end,
              "n_cutoff": args.n_cutoff, "method": report.method,
              "per_event": args.per_event}
    write_manifest(out, "eval", args.seed, config, inputs, [out / REPORT_FILE], [],
                   time.perf_counter() - started, timings)
    print("eval: MAP@%d = %.6f, 95%% CI [%.6f, %.6f], over %d students, %.0f%% with "
          "non-zero AP (%s)" % (report.n_cutoff, report.map_at_n, *report.map_ci95,
                                report.users_evaluated, 100 * report.nonzero_ap_share,
                                report.method))
    return 0


_ablate_inputs = None  # what every ablation job shares, set by the pool initializer


def _set_ablate_inputs(inputs) -> None:
    global _ablate_inputs
    _ablate_inputs = inputs


def _ablate_job(job, shared=None):
    from . import recommend, train
    base_cfg, train_ds, queries, features, train_end, n_cutoff = shared or _ablate_inputs
    variant, seed = job
    cfg = train.ablation_variant(dataclasses.replace(base_cfg, seed=seed), variant)
    params, store = train.fit(features, cfg)
    rank_fn = recommend.build_model_ranker(params, store, features.week_topics, train_ds,
                                           train_end, flags=cfg.flags)
    report = recommend.evaluate(rank_fn, queries, n_cutoff=n_cutoff, method=variant)
    return report.map_at_n, list(report.per_user_ap.values())


def cmd_ablate(args) -> int:
    from . import recommend, train
    started = time.perf_counter()
    base_cfg = _config(train.TrainConfig(), _collect_overrides(args))
    base_seed = (args.seed + SEED_OFFSETS["ablate"]
                 if args.seed is not None else base_cfg.seed)
    spec = _split_spec(args)
    seeds = [base_seed + i for i in range(args.seeds)]

    # the features depend on neither the flags nor the seed
    train_ds, test_ds = corpus.split_by_time(_load_dataset(args.data), spec)
    t_features = time.perf_counter()
    features = _prepare_features(args.lda, train_ds, base_cfg)
    t_fits = time.perf_counter()
    queries = recommend.split_queries(test_ds, spec.train_end)
    shared = (base_cfg, train_ds, queries, features, spec.train_end, args.n_cutoff)
    jobs = [(variant, seed) for variant in train.ABLATION_VARIANTS for seed in seeds]
    # a pool starts all its workers at once, so it gets no more than there are jobs
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only ablate starts processes
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_ablate_inputs,
                                 initargs=(shared,)) as pool:
            results = list(pool.map(_ablate_job, jobs))
    else:
        results = [_ablate_job(job, shared) for job in jobs]
    timings = {"ingest_s": t_features - started, "features_s": t_fits - t_features,
               "fits_s": time.perf_counter() - t_fits}

    # results come in job order: every seed of one variant, then the next;
    # a variant's students are paired with full's by their AP averaged over
    # the seeds
    variants, student_means = {}, {}
    for i, variant in enumerate(train.ABLATION_VARIANTS):
        runs = results[i * len(seeds):(i + 1) * len(seeds)]
        scores = [map_at_n for map_at_n, _ in runs]
        student_means[variant] = np.array([recommend.mean(student_aps)
                                           for student_aps in zip(*(aps for _, aps in runs))])
        row = variants[variant] = {"per_seed": scores, "mean": recommend.mean(scores),
                                   "min": min(scores), "max": max(scores)}
        if variant != "full":
            diff = student_means[variant] - student_means["full"]
            row["diff_from_full"] = recommend.mean(diff.tolist())
            row["diff_ci95"] = recommend.bootstrap_interval(diff)

    out = _out_dir(args)
    corpus.write_json({"n_cutoff": args.n_cutoff, "seeds": seeds,
                       "users_evaluated": len(student_means["full"]), "variants": variants},
                      out / ABLATION_JSON)

    width = max(len(v) for v in train.ABLATION_VARIANTS)
    print("variant".ljust(width) + "  MAP@%d (mean, min-max of %d seed%s)  minus full [95%% CI]"
          % (args.n_cutoff, len(seeds), "" if len(seeds) == 1 else "s"))
    for variant, row in variants.items():
        line = "%s  %.6f  %.4f-%.4f" % (variant.ljust(width), row["mean"], row["min"], row["max"])
        if "diff_from_full" in row:
            line += "  %+.4f [%+.4f, %+.4f]" % (row["diff_from_full"], *row["diff_ci95"])
        print(line)

    inputs = ([Path(args.data) / n for n in DATA_FILES]
              + [Path(args.lda) / n for n in LDA_FILES])
    config = {**dataclasses.asdict(dataclasses.replace(base_cfg, seed=base_seed)),
              "train_end": spec.train_end, "test_end": spec.test_end,
              "n_cutoff": args.n_cutoff, "seeds": args.seeds}
    write_manifest(out, "ablate", base_seed, config, inputs, [out / ABLATION_JSON], [],
                   time.perf_counter() - started, timings)
    return 0


def cmd_recommend(args) -> int:
    from . import recommend
    t_query = parse_duration(args.at)
    ds = _load_dataset(args.data)
    params, store, week_topics, meta, flags = _open_checkpoint(args.checkpoint, ds, t_query,
                                                               "--at")
    trained_to = meta.get("train_end")
    if trained_to is not None and t_query < trained_to:
        # the trained states already hold the posts between the two times
        raise UsageError("--at %r is before the checkpoint's train_end %r"
                         % (t_query, trained_to))
    window = corpus.events_before(ds, t_query)
    try:
        student = ds.student_ids.index(args.student)
    except ValueError:
        raise UsageError("unknown student id %r" % (args.student,))
    rank_fn = recommend.build_model_ranker(params, store, week_topics, window,
                                           t_query, flags=flags, top_k=args.top_k)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ranked = rank_fn(student)
    if not all(map(math.isfinite, ranked.distances)):
        # the student's projection overflows this far past its last post
        raise UsageError("--at %r is too far ahead: the distances to the threads "
                         "are not finite" % (args.at,))
    print("top threads for student %s at t=%s:" % (args.student, args.at))
    for rank, (thread, dist) in enumerate(zip(ranked.thread_ids, ranked.distances),
                                          start=1):
        print("%3d. thread %s  distance %.6f" % (rank, ds.thread_ids[thread], dist))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadrec",
        description="Dynamic thread recommendation for course forums.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, overrides=True):
        p.add_argument("--seed", type=int, help="base seed; each stage adds a fixed offset")
        if overrides:
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key (repeatable)")

    p = sub.add_parser("synth", help="generate a synthetic forum dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=["algo-like"])
    p.add_argument("--scale", type=_positive(float))
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("lda", help="fit the topic model and course-week topics")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num-topics", type=_positive(int))
    p.add_argument("--iters", type=_positive(int), default=500)
    p.add_argument("--min-count", type=_positive(int), default=10)
    p.add_argument("--train-end", help="fit on posts before this time (e.g. 8w)")
    common(p, overrides=False)
    p.set_defaults(func=cmd_lda)

    p = sub.add_parser("train", help="train the recommendation model")
    p.add_argument("--data", required=True)
    p.add_argument("--lda", required=True, help="directory from the lda command")
    p.add_argument("--out", required=True)
    p.add_argument("--train-end", help="train on posts before this time")
    p.add_argument("--export-trajectories", action="store_true")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank held-out posts and report MAP")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    method = p.add_mutually_exclusive_group(required=True)
    method.add_argument("--checkpoint")
    method.add_argument("--baseline", choices=["pop", "rec", "user-rec"])
    p.add_argument("--train-end", required=True)
    p.add_argument("--test-end", required=True)
    p.add_argument("--n-cutoff", type=_positive(int), default=5)
    p.add_argument("--per-event", action="store_true",
                   help="re-rank before every held-out post instead of once")
    common(p, overrides=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate every ablation variant")
    p.add_argument("--data", required=True)
    p.add_argument("--lda", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-end", required=True)
    p.add_argument("--test-end", required=True)
    p.add_argument("--n-cutoff", type=_positive(int), default=5)
    p.add_argument("--seeds", type=_positive(int), default=1,
                   help="number of seeds to average")
    p.add_argument("--jobs", type=_positive(int), default=1,
                   help="parallel worker processes")
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("recommend", help="print ranked threads for one student")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--student", type=int, required=True,
                   help="student id as it appears in the source data")
    p.add_argument("--at", required=True, help="query time (e.g. 8w)")
    p.add_argument("--top-k", type=_positive(int), default=5)
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _runtime_failures() as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _runtime_failures() -> tuple[type[Exception], ...]:
    """What main reports as a runtime failure, exit 1: an OSError, a
    ValueError (ParseError, IntegrityError, EmptyDatasetError and
    EvaluationError are ValueErrors) and a diverged fit. Only a command
    that has imported train can have raised the last, so it is looked up
    and never imported."""
    train = sys.modules.get(__package__ + ".train")
    return (OSError, ValueError) + ((train.TrainingDiverged,) if train else ())


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
