"""Command line pipeline: synth -> lda -> train -> eval / ablate / recommend.

Every run writes a manifest.json into its output directory recording the
command, the effective config, the seed, and sha256 checksums of inputs and
outputs, so results can be audited later. Timing logs are listed in the
manifest but not checksummed, since wall time varies between runs.

Exit codes: 0 success, 1 runtime failure, 2 bad usage or config.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import corpus, model, recommend, synth, text, train

POSTS_FILE = "posts.jsonl"
SCHEDULE_FILE = "schedule.json"
GROUND_TRUTH_FILE = "ground_truth.json"
ID_MAP_FILE = "id_map.csv"
VOCAB_FILE = "vocab.csv"
LDA_FILE = "lda_model.csv"
COURSE_TOPICS_FILE = "course_topics.csv"
CHECKPOINT_FILE = "checkpoint.bin"
TRAIN_LOG_FILE = "training_log.csv"
TRAJECTORIES_FILE = "trajectories.csv"
REPORT_FILE = "report.json"
PER_USER_FILE = "per_user_ap.csv"
ABLATION_CSV = "ablation.csv"
ABLATION_JSON = "ablation.json"
MANIFEST_FILE = "manifest.json"

# Fixed per-stage seed offsets so one --seed reproduces a whole pipeline
# without the stages sharing RNG streams.
SEED_OFFSETS = {"synth": 0, "lda": 1, "train": 2, "eval": 3, "ablate": 4}


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


_DURATION_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(s|min|h|d|w)?\s*$")
_DURATION_UNITS = {None: 1.0, "s": 1.0, "min": 60.0, "h": 3600.0,
                   "d": 86400.0, "w": 604800.0}


def parse_duration(value: str) -> float:
    """Seconds from '3600', '45min', '8h', '2d', or '8w'."""
    m = _DURATION_RE.match(str(value))
    if not m:
        raise UsageError("cannot parse duration %r" % (value,))
    return float(m.group(1)) * _DURATION_UNITS[m.group(2)]


def _positive(kind):
    """argparse type: a number of the given kind above zero."""
    def parse(value: str):
        number = kind(value)
        if not number > 0:
            raise argparse.ArgumentTypeError("must be > 0, got %s" % value)
        return number
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def read_config_file(path) -> dict[str, str]:
    """Flat 'key = value' file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    try:
        raw = Path(path).read_text()
    except OSError as exc:
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
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        mapping.update(read_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError("--set expects key=value, got %r" % (item,))
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, seed, config: dict,
                   inputs: list[Path], outputs: list[Path],
                   logs: list[Path], seconds: float,
                   timings: dict[str, float] | None = None) -> Path:
    """timings, if given, holds the seconds of each stage of the command."""
    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _file_sha256(Path(p)) for p in inputs},
        "outputs": {Path(p).name: _file_sha256(Path(p)) for p in outputs},
        "logs": [Path(p).name for p in logs],
        "seconds": round(seconds, 3),
    }
    if timings is not None:
        manifest["timings"] = {name: round(value, 3) for name, value in timings.items()}
    path = out_dir / MANIFEST_FILE
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
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


def _load_dataset(data_dir) -> corpus.Dataset:
    data = Path(data_dir)
    schedule = corpus.load_schedule(data / SCHEDULE_FILE)
    return corpus.ingest_jsonl(data / POSTS_FILE, schedule)


def _load_text_artifacts(lda_dir):
    lda_dir = Path(lda_dir)
    vocab = text.load_vocabulary(lda_dir / VOCAB_FILE)
    lda = text.load_lda(lda_dir / LDA_FILE)
    week_topics = text.load_topic_distributions(lda_dir / COURSE_TOPICS_FILE)
    return lda, vocab, week_topics


def _checkpoint_flags(meta: dict) -> model.AblationFlags:
    """Ablation flags the checkpoint was trained with, from its metadata."""
    config = meta.get("config", {})
    return model.AblationFlags(**{name: bool(config.get(name, False))
                                  for name in model.AblationFlags.NAMES})


def _check_checkpoint(params: model.ModelParams, meta: dict, ds: corpus.Dataset,
                      t_query: float, flag: str) -> None:
    """A checkpoint answers only for the course shape it was trained on. Its
    states hold every training post, so a query at or before the last of
    them would score posts the model has already seen."""
    trained = (params.num_students, params.num_threads, params.num_weeks)
    given = (ds.num_students, ds.num_threads, ds.course.num_weeks)
    if trained != given:
        raise UsageError("the checkpoint has %d students, %d threads and %d weeks, "
                         "the data %d, %d and %d" % (trained + given))
    last_post = meta.get("last_post_time")
    if last_post is not None and t_query <= last_post:
        raise UsageError("%s %r is at or before the checkpoint's last training post at %r"
                         % (flag, t_query, last_post))


def cmd_synth(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    if args.preset is not None:  # argparse allows only algo-like
        base = synth.algo_like(scale=args.scale)
    else:
        base = synth.SynthConfig()
    mapping = base.as_dict()
    for key, value in _collect_overrides(args).items():
        if key not in mapping:
            raise UsageError("unknown synth option %r" % (key,))
        kind = type(mapping[key])
        try:
            mapping[key] = kind(float(value)) if kind is int else kind(value)
        except ValueError:
            raise UsageError("bad value %r for synth option %r" % (value, key))
    if args.seed is not None:
        mapping["seed"] = args.seed + SEED_OFFSETS["synth"]
    try:
        cfg = synth.SynthConfig(**mapping)
    except ValueError as exc:
        raise UsageError(str(exc))

    ds, gt = synth.generate(cfg)
    corpus.write_jsonl(ds, out / POSTS_FILE)
    corpus.write_schedule(ds.course, out / SCHEDULE_FILE)
    corpus.write_id_map(ds, out / ID_MAP_FILE)
    synth.write_ground_truth(gt, out / GROUND_TRUTH_FILE)

    outputs = [out / POSTS_FILE, out / SCHEDULE_FILE, out / ID_MAP_FILE,
               out / GROUND_TRUTH_FILE]
    write_manifest(out, "synth", cfg.seed, cfg.as_dict(), [], outputs, [],
                   time.perf_counter() - started)
    print("synth: %d posts, %d students, %d threads -> %s"
          % (len(ds.events), ds.num_students, ds.num_threads, out))
    return 0


def cmd_lda(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    data = Path(args.data)
    ds = _load_dataset(data)
    train_end = parse_duration(args.train_end) if args.train_end else None
    window = ds if train_end is None else corpus.events_before(ds, train_end)

    num_topics = args.num_topics or ds.course.num_weeks
    seed = (args.seed if args.seed is not None else 0) + SEED_OFFSETS["lda"]
    post_docs = [ev.tokens for ev in window.events]
    week_docs = ds.course.week_docs

    t_vocab = time.perf_counter()
    vocab = text.build_vocabulary(post_docs + week_docs, min_count=args.min_count)
    vocab_size = len(vocab.word_to_index)
    post_tf = [text.term_frequency(doc, vocab) for doc in post_docs]
    week_tf = [text.term_frequency(doc, vocab) for doc in week_docs]
    t_fit = time.perf_counter()
    if args.separate_course_model:
        lda = text.lda_fit(post_tf, num_topics, iters=args.iters, seed=seed,
                           vocab_size=vocab_size)
        course_lda = text.lda_fit(week_tf, num_topics, iters=args.iters,
                                  seed=seed + 1, vocab_size=vocab_size)
    else:
        lda = text.lda_fit(post_tf + week_tf, num_topics, iters=args.iters,
                           seed=seed, vocab_size=vocab_size)
        course_lda = lda
    t_topics = time.perf_counter()
    week_topics = text.course_topics(ds.course, course_lda, vocab)
    timings = {"vocabulary_s": t_fit - t_vocab, "lda_fit_s": t_topics - t_fit,
               "course_topics_s": time.perf_counter() - t_topics}

    text.save_vocabulary(vocab, out / VOCAB_FILE)
    text.save_lda(lda, out / LDA_FILE)
    text.save_topic_distributions(week_topics, out / COURSE_TOPICS_FILE)

    config = {"num_topics": num_topics, "iters": args.iters,
              "min_count": args.min_count, "train_end": train_end,
              "separate_course_model": bool(args.separate_course_model)}
    inputs = [data / POSTS_FILE, data / SCHEDULE_FILE]
    outputs = [out / VOCAB_FILE, out / LDA_FILE, out / COURSE_TOPICS_FILE]
    write_manifest(out, "lda", seed, config, inputs, outputs, [],
                   time.perf_counter() - started, timings)
    print("lda: %d topics over %d terms, final log-likelihood %.2f -> %s"
          % (num_topics, lda.topic_word.shape[1], lda.loglik_history[-1], out))
    return 0


def _build_train_config(args) -> train.TrainConfig:
    mapping = _collect_overrides(args)
    try:
        cfg = train.TrainConfig.from_mapping(mapping)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed + SEED_OFFSETS["train"])
    return cfg


def cmd_train(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    data = Path(args.data)
    ds = _load_dataset(data)
    lda, vocab, week_topics = _load_text_artifacts(args.lda)
    train_end = parse_duration(args.train_end) if args.train_end else None
    window = ds if train_end is None else corpus.events_before(ds, train_end)
    cfg = _build_train_config(args)

    t_fit = time.perf_counter()
    sink = [] if args.export_trajectories else None
    params, store = train.fit(window, lda, vocab, week_topics, cfg,
                              log_path=out / TRAIN_LOG_FILE,
                              trajectory_sink=sink)
    t_save = time.perf_counter()
    # the data enter by content, so the bytes do not depend on where it lives;
    # the last post time bounds the queries the trained states can answer
    meta = {"config": cfg.as_dict(), "train_end": train_end,
            "data_sha256": {name: _file_sha256(data / name)
                            for name in (POSTS_FILE, SCHEDULE_FILE)},
            "last_post_time": window.events[-1].timestamp,
            "num_events": len(window.events)}
    model.save_checkpoint(out / CHECKPOINT_FILE, params, store, week_topics, meta)
    outputs = [out / CHECKPOINT_FILE]
    logs = [out / TRAIN_LOG_FILE]
    if sink is not None:
        recommend.write_trajectories(sink, out / TRAJECTORIES_FILE)
        outputs.append(out / TRAJECTORIES_FILE)
    timings = {"ingest_s": t_fit - started, "fit_s": t_save - t_fit,
               "save_s": time.perf_counter() - t_save}

    inputs = [data / POSTS_FILE, data / SCHEDULE_FILE,
              Path(args.lda) / VOCAB_FILE, Path(args.lda) / LDA_FILE,
              Path(args.lda) / COURSE_TOPICS_FILE]
    write_manifest(out, "train", cfg.seed, cfg.as_dict(), inputs, outputs, logs,
                   time.perf_counter() - started, timings)
    print("train: %d events, %d epochs -> %s" % (len(window.events), cfg.epochs, out))
    return 0


def _baseline_rank_fn(name: str, train_ds: corpus.Dataset, ascending: bool):
    if name == "pop":
        ranking = recommend.baseline_pop(train_ds)
        return lambda student: ranking
    if name == "rec":
        ranking = recommend.baseline_rec(train_ds, ascending=ascending)
        return lambda student: ranking
    if name == "user-rec":
        return lambda student: recommend.baseline_user_rec(train_ds, student,
                                                           ascending=ascending)
    raise UsageError("unknown baseline %r" % (name,))


def cmd_eval(args) -> int:
    started = time.perf_counter()
    data = Path(args.data)
    ds = _load_dataset(data)
    spec = corpus.SplitSpec(parse_duration(args.train_end), parse_duration(args.test_end))
    train_ds, test_ds = corpus.split_by_time(ds, spec)
    timings = {"ingest_s": time.perf_counter() - started}

    inputs = [data / POSTS_FILE, data / SCHEDULE_FILE]
    if args.baseline:
        method = args.baseline
        t_rank = time.perf_counter()
        rank_fn = _baseline_rank_fn(args.baseline, train_ds, args.rec_ascending)
        report = recommend.evaluate(rank_fn, test_ds, n_cutoff=args.n_cutoff,
                                    method=method)
    else:
        if not args.checkpoint:
            raise UsageError("need --checkpoint or --baseline")
        inputs.append(Path(args.checkpoint))
        t_load = time.perf_counter()
        params, store, week_topics, meta = model.load_checkpoint(args.checkpoint)
        t_rank = time.perf_counter()
        timings["load_checkpoint_s"] = t_rank - t_load
        trained_to = meta.get("train_end")
        if trained_to is not None and trained_to != spec.train_end:
            raise UsageError("--train-end %r differs from the checkpoint's train_end %r"
                             % (spec.train_end, trained_to))
        _check_checkpoint(params, meta, ds, spec.train_end, "--train-end")
        flags = _checkpoint_flags(meta)
        if args.per_event:
            report = recommend.evaluate_per_event(params, store, week_topics,
                                                  train_ds, test_ds,
                                                  n_cutoff=args.n_cutoff, flags=flags)
        else:
            rank_fn = recommend.build_model_ranker(params, store, week_topics,
                                                   train_ds, spec.train_end,
                                                   flags=flags)
            report = recommend.evaluate(rank_fn, test_ds, n_cutoff=args.n_cutoff)
    timings["rank_s"] = time.perf_counter() - t_rank

    out = _out_dir(args)
    recommend.write_report_json(report, out / REPORT_FILE)
    recommend.write_report_csv(report, out / PER_USER_FILE)
    config = {"train_end": spec.train_end, "test_end": spec.test_end,
              "n_cutoff": args.n_cutoff, "method": report.method,
              "per_event": bool(args.per_event),
              "rec_ascending": bool(args.rec_ascending)}
    write_manifest(out, "eval", args.seed, config, inputs,
                   [out / REPORT_FILE, out / PER_USER_FILE], [],
                   time.perf_counter() - started, timings)
    print("eval: MAP@%d = %.6f over %d students (%s)"
          % (report.n_cutoff, report.map_at_n, report.users_evaluated, report.method))
    return 0


_ablate_inputs = None  # what every ablation job shares, set by the pool initializer


def _set_ablate_inputs(inputs) -> None:
    global _ablate_inputs
    _ablate_inputs = inputs


def _ablate_job(job, shared=None):
    base_cfg, train_ds, test_ds, lda, vocab, week_topics, features, train_end, n_cutoff = (
        shared or _ablate_inputs)
    variant, seed = job
    cfg = train.ablation_variant(dataclasses.replace(base_cfg, seed=seed), variant)
    params, store = train.fit(train_ds, lda, vocab, week_topics, cfg, features=features)
    rank_fn = recommend.build_model_ranker(params, store, week_topics, train_ds,
                                           train_end, flags=cfg.flags)
    report = recommend.evaluate(rank_fn, test_ds, n_cutoff=n_cutoff, method=variant)
    return report.map_at_n, report.users_evaluated


def cmd_ablate(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    cfg_map = _collect_overrides(args)
    try:
        base_cfg = train.TrainConfig.from_mapping(cfg_map)
    except ValueError as exc:
        raise UsageError(str(exc))
    base_seed = (args.seed + SEED_OFFSETS["ablate"]
                 if args.seed is not None else base_cfg.seed)
    train_end = parse_duration(args.train_end)
    test_end = parse_duration(args.test_end)
    seeds = [base_seed + i for i in range(args.seeds)]

    # the features depend on neither the flags nor the seed
    train_ds, test_ds = corpus.split_by_time(_load_dataset(args.data),
                                             corpus.SplitSpec(train_end, test_end))
    lda, vocab, week_topics = _load_text_artifacts(args.lda)
    t_features = time.perf_counter()
    features = train.prepare_event_features(train_ds, lda, vocab, week_topics, base_cfg)
    t_fits = time.perf_counter()
    shared = (base_cfg, train_ds, test_ds, lda, vocab, week_topics, features, train_end,
              args.n_cutoff)
    jobs = [(variant, seed) for variant in train.ABLATION_VARIANTS for seed in seeds]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_set_ablate_inputs,
                                 initargs=(shared,)) as pool:
            results = list(pool.map(_ablate_job, jobs))
    else:
        results = [_ablate_job(job, shared) for job in jobs]
    timings = {"ingest_s": t_features - started, "features_s": t_fits - t_features,
               "fits_s": time.perf_counter() - t_fits}

    # results come in job order: every seed of one variant, then the next
    rows = []
    for i, variant in enumerate(train.ABLATION_VARIANTS):
        scores = [map_at_n for map_at_n, _ in results[i * len(seeds):(i + 1) * len(seeds)]]
        rows.append((variant, scores, sum(scores) / len(scores)))
    users = results[-1][1]

    with open(out / ABLATION_CSV, "w") as fh:
        fh.write("variant," + ",".join("seed_%d" % s for s in seeds) + ",mean\n")
        for variant, scores, mean in rows:
            fh.write(variant + "," + ",".join(repr(float(v)) for v in scores)
                     + "," + repr(float(mean)) + "\n")
    payload = {"n_cutoff": args.n_cutoff, "seeds": seeds, "users_evaluated": users,
               "variants": {variant: {"per_seed": scores, "mean": mean}
                            for variant, scores, mean in rows}}
    with open(out / ABLATION_JSON, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")

    width = max(len(v) for v in train.ABLATION_VARIANTS)
    print("variant".ljust(width) + "  MAP@%d (mean of %d seed%s)"
          % (args.n_cutoff, len(seeds), "" if len(seeds) == 1 else "s"))
    for variant, _, mean in rows:
        print(variant.ljust(width) + "  %.6f" % mean)

    inputs = [Path(args.data) / POSTS_FILE, Path(args.data) / SCHEDULE_FILE,
              Path(args.lda) / VOCAB_FILE, Path(args.lda) / LDA_FILE,
              Path(args.lda) / COURSE_TOPICS_FILE]
    config = dict(cfg_map)
    config.update({"train_end": train_end, "test_end": test_end,
                   "n_cutoff": args.n_cutoff, "seeds": args.seeds})
    write_manifest(out, "ablate", base_seed, config, inputs,
                   [out / ABLATION_CSV, out / ABLATION_JSON], [],
                   time.perf_counter() - started, timings)
    return 0


def cmd_recommend(args) -> int:
    data = Path(args.data)
    ds = _load_dataset(data)
    params, store, week_topics, meta = model.load_checkpoint(args.checkpoint)
    flags = _checkpoint_flags(meta)
    t_query = parse_duration(args.at)
    trained_to = meta.get("train_end")
    if trained_to is not None and t_query < trained_to:
        # the trained states already hold the posts between the two times
        raise UsageError("--at %r is before the checkpoint's train_end %r"
                         % (t_query, trained_to))
    _check_checkpoint(params, meta, ds, t_query, "--at")
    window = corpus.events_before(ds, t_query)
    try:
        student = ds.student_ids.index(args.student)
    except ValueError:
        raise UsageError("unknown student id %r" % (args.student,))
    rank_fn = recommend.build_model_ranker(params, store, week_topics, window,
                                           t_query, flags=flags, top_k=args.top_k)
    ranked = rank_fn(student)
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

    def common(p, seed_default=None):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="base seed; each stage adds a fixed offset")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("synth", help="generate a synthetic forum dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=["algo-like"])
    p.add_argument("--scale", type=_positive(float), default=1.0)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("lda", help="fit the topic model and course-week topics")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num-topics", type=_positive(int))
    p.add_argument("--iters", type=_positive(int), default=500)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--train-end", help="fit on posts before this time (e.g. 8w)")
    p.add_argument("--separate-course-model", action="store_true",
                   help="fit week descriptions with their own topic model")
    common(p)
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
    p.add_argument("--checkpoint")
    p.add_argument("--baseline", choices=["pop", "rec", "user-rec"])
    p.add_argument("--train-end", required=True)
    p.add_argument("--test-end", required=True)
    p.add_argument("--n-cutoff", type=_positive(int), default=5)
    p.add_argument("--rec-ascending", action="store_true",
                   help="order the recency baseline oldest first")
    p.add_argument("--per-event", action="store_true",
                   help="re-rank before every held-out post instead of once")
    common(p)
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
    common(p)
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
    except (OSError, ValueError, train.TrainingDiverged) as exc:
        # ParseError, IntegrityError, EmptyDatasetError and EvaluationError
        # are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
