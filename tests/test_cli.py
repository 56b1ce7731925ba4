import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from threadrec import cli, corpus, model, synth
from threadrec.cli import (UsageError, main, parse_duration, read_config_file,
                           verify_manifest)
from threadrec.recommend import bootstrap_interval, mean, percentiles
from threadrec.synth import SynthConfig
from threadrec.train import TrainConfig, mean_event_gap


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_parse_duration_units():
    assert parse_duration("3600") == 3600.0
    assert parse_duration("45min") == 2700.0
    assert parse_duration("2h") == 7200.0
    assert parse_duration("1.5d") == 129600.0
    assert parse_duration("8w") == 4838400.0
    with pytest.raises(UsageError):
        parse_duration("8 weeks")
    with pytest.raises(UsageError):
        parse_duration("")


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nepochs = 12\n\nlearning_rate=0.01 # inline\n")
    assert read_config_file(cfg) == {"epochs": "12", "learning_rate": "0.01"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs\n")
    with pytest.raises(UsageError, match="line 1"):
        read_config_file(bad)
    with pytest.raises(UsageError):
        read_config_file(tmp_path / "missing.cfg")


def test_read_config_file_reads_utf8_and_names_a_file_that_is_not(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("# réglages\nepochs = 3\n".encode("utf-8"))
    assert read_config_file(cfg) == {"epochs": "3"}
    cfg.write_bytes(b"epochs = 3 # \xff\n")
    with pytest.raises(UsageError, match="cannot read config file %s: 'utf-8' codec"
                                         % re.escape(str(cfg))):
        read_config_file(cfg)


def test_config_coerces_types():
    cfg = cli._config(TrainConfig(), {"epochs": "7", "learning_rate": "0.01",
                                      "no_text_features": "true", "seed": "3"})
    assert cfg.epochs == 7
    assert cfg.learning_rate == 0.01
    assert cfg.no_text_features is True
    assert cfg.seed == 3
    with pytest.raises(UsageError):
        cli._config(TrainConfig(), {"not_a_key": "1"})
    with pytest.raises(UsageError):
        cli._config(TrainConfig(), {"no_text_features": "maybe"})
    with pytest.raises(UsageError):  # refused by TrainConfig itself
        cli._config(TrainConfig(), {"epochs": "0"})
    synth = cli._config(SynthConfig(), {"num_students": "15", "drift_strength": "0.25"})
    assert synth.num_students == 15 and type(synth.num_students) is int
    assert synth.drift_strength == 0.25
    with pytest.raises(UsageError):
        cli._config(SynthConfig(), {"num_students": "15.7"})


def test_config_reads_false_words_as_false():
    for word in ("0", "false", "No", "off"):
        cfg = cli._config(TrainConfig(no_text_features=True), {"no_text_features": word})
        assert cfg.no_text_features is False, word


def test_durations_beyond_a_float_are_refused():
    # 400 nines read as inf; times inf would turn every distance to nan
    for value in ("9" * 400, "9" * 305 + "w"):
        with pytest.raises(UsageError, match="not a finite number of seconds"):
            parse_duration(value)


def test_each_command_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for action in p._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, p in sub.choices.items()}
    overrides = {"--seed", "--config", "--set"}
    assert flags == {
        "synth": {"--out", "--preset", "--scale"} | overrides,
        "lda": {"--data", "--out", "--num-topics", "--iters", "--min-count",
                "--train-end", "--seed"},
        "train": {"--data", "--lda", "--out", "--train-end",
                  "--export-trajectories"} | overrides,
        "eval": {"--data", "--out", "--checkpoint", "--baseline", "--train-end",
                 "--test-end", "--n-cutoff", "--per-event", "--seed"},
        "ablate": {"--data", "--lda", "--out", "--train-end", "--test-end", "--n-cutoff",
                   "--seeds", "--jobs"} | overrides,
        "recommend": {"--data", "--checkpoint", "--student", "--at", "--top-k"},
    }
    assert sum(map(len, flags.values())) == 46


SYNTH_ARGS = ["--set", "num_students=15", "--set", "num_threads=10",
              "--set", "num_weeks=3", "--set", "num_topics=3",
              "--set", "vocab_size=50", "--set", "mean_posts_per_student=6"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data, lda, run = root / "data", root / "lda", root / "run"
    assert main(["synth", "--out", str(data), "--seed", "2"] + SYNTH_ARGS) == 0
    assert main(["lda", "--data", str(data), "--out", str(lda),
                 "--iters", "40", "--min-count", "2", "--seed", "2"]) == 0
    assert main(["train", "--data", str(data), "--lda", str(lda),
                 "--out", str(run), "--train-end", "2w", "--seed", "2",
                 "--set", "epochs=2", "--set", "embed_dim=4",
                 "--export-trajectories"]) == 0
    return {"root": root, "data": data, "lda": lda, "run": run}


def test_synth_outputs(pipeline):
    data = pipeline["data"]
    for name in ("posts.jsonl", "schedule.json", "ground_truth.json", "manifest.json"):
        assert (data / name).exists(), name
    assert verify_manifest(data / "manifest.json") == []
    timings = json.loads((data / "manifest.json").read_text())["timings"]
    assert set(timings) == {"generate_s", "write_s"}
    assert all(seconds >= 0 for seconds in timings.values())


def test_lda_outputs(pipeline):
    lda = pipeline["lda"]
    for name in ("vocab.csv", "lda_model.csv", "course_topics.csv", "manifest.json"):
        assert (lda / name).exists(), name
    assert verify_manifest(lda / "manifest.json") == []
    manifest = json.loads((lda / "manifest.json").read_text())
    assert manifest["command"] == "lda"
    assert manifest["seed"] == 3  # base 2 plus the lda stage offset
    timings = manifest["timings"]
    assert set(timings) == {"vocabulary_s", "lda_fit_s", "lda_sweep_s", "course_topics_s"}
    assert all(seconds >= 0 for seconds in timings.values())
    # each value is rounded on its own, so a sweep's share may round up by half a millisecond
    assert timings["lda_sweep_s"] <= timings["lda_fit_s"] / manifest["config"]["iters"] + 5e-4


def test_train_outputs(pipeline):
    run = pipeline["run"]
    for name in ("checkpoint.bin", "training_log.csv", "trajectories.csv",
                 "manifest.json"):
        assert (run / name).exists(), name
    manifest = json.loads((run / "manifest.json").read_text())
    # timing log is listed but never checksummed
    assert "training_log.csv" in manifest["logs"]
    assert "training_log.csv" not in manifest["outputs"]
    assert "checkpoint.bin" in manifest["outputs"]
    assert verify_manifest(run / "manifest.json") == []
    timings = manifest["timings"]
    assert set(timings) == {"ingest_s", "features_s", "fit_s", "save_s"}
    assert all(seconds >= 0 for seconds in timings.values())
    # excitation coverage is that of the features the run trained on
    coverage = manifest["features"]
    ds = cli._load_dataset(pipeline["data"])
    window = corpus.events_before(ds, parse_duration("2w"))
    events = cli._prepare_features(pipeline["lda"], window,
                                   TrainConfig(**manifest["config"])).events
    assert coverage["events"] == len(events) == len(window.events)
    share = coverage["excitation_nonzero_share"]
    assert 0.0 <= share <= 1.0
    assert share == np.count_nonzero(events.excitation_value) / len(events)
    # elapsed times are reported in units of the time scale they were divided by
    assert coverage["time_scale"] == mean_event_gap(window.events) > 0
    for name in ("delta_student", "delta_thread"):
        values = getattr(events, name)
        spread = coverage[name]
        assert set(spread) == {"p50", "p99", "max"}
        assert spread["p50"] == float(np.percentile(values, 50))
        assert spread["p99"] == float(np.percentile(values, 99))
        assert spread["max"] == float(values.max())
        assert 0.0 <= spread["p50"] <= spread["p99"] <= spread["max"]


def test_eval_model_and_baselines(pipeline, capsys):
    args = ["--data", str(pipeline["data"]), "--train-end", "2w",
            "--test-end", "3w"]
    out = pipeline["root"] / "eval-model"
    assert main(["eval", "--out", str(out),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin")] + args) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "model"
    assert 0.0 <= report["map_at_n"] <= 1.0
    # timings live in the manifest only, so reports stay byte-deterministic
    assert "timings" not in report
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert set(timings) == {"ingest_s", "load_checkpoint_s", "rank_s"}
    assert all(seconds >= 0 for seconds in timings.values())

    for baseline in ("pop", "rec", "user-rec"):
        bout = pipeline["root"] / ("eval-" + baseline)
        assert main(["eval", "--out", str(bout), "--baseline", baseline] + args) == 0
        payload = json.loads((bout / "report.json").read_text())
        assert payload["method"] == baseline
        timings = json.loads((bout / "manifest.json").read_text())["timings"]
        assert set(timings) == {"ingest_s", "rank_s"}
    capsys.readouterr()


def test_eval_per_event(pipeline):
    out = pipeline["root"] / "eval-pe"
    assert main(["eval", "--data", str(pipeline["data"]), "--out", str(out),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
                 "--train-end", "2w", "--test-end", "3w", "--per-event"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "model-per-event"


def test_eval_requires_a_method(pipeline):
    out = pipeline["root"] / "eval-none"
    rc = main(["eval", "--data", str(pipeline["data"]), "--out", str(out),
               "--train-end", "2w", "--test-end", "3w"])
    assert rc == 2


def test_train_determinism_same_seed(pipeline):
    a = pipeline["root"] / "det-a"
    b = pipeline["root"] / "det-b"
    for out in (a, b):
        assert main(["train", "--data", str(pipeline["data"]),
                     "--lda", str(pipeline["lda"]), "--out", str(out),
                     "--train-end", "2w", "--seed", "5",
                     "--set", "epochs=2", "--set", "embed_dim=4"]) == 0
    assert sha(a / "checkpoint.bin") == sha(b / "checkpoint.bin")


def test_recommend_prints_ranking(pipeline, capsys):
    rc = main(["recommend", "--data", str(pipeline["data"]),
               "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
               "--student", "0", "--at", "2w", "--top-k", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "student 0" in lines[0]
    assert len(lines) == 4
    assert all("distance" in line for line in lines[1:])


def test_recommend_unknown_student(pipeline, capsys):
    rc = main(["recommend", "--data", str(pipeline["data"]),
               "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
               "--student", "999", "--at", "2w"])
    assert rc == 2
    capsys.readouterr()


def test_ablate_writes_table(pipeline, capsys):
    out = pipeline["root"] / "ablate"
    rc = main(["ablate", "--data", str(pipeline["data"]),
               "--lda", str(pipeline["lda"]), "--out", str(out),
               "--train-end", "2w", "--test-end", "3w", "--seed", "2",
               "--set", "epochs=1", "--set", "embed_dim=3"])
    assert rc == 0
    table = capsys.readouterr().out
    payload = json.loads((out / "ablation.json").read_text())
    assert set(payload["variants"]) == {"full", "no_dynamic_student",
                                        "no_dynamic_thread", "no_student_projection",
                                        "no_thread_projection", "no_text_features"}
    assert payload["seeds"] == [6]  # base 2 plus the ablate stage offset
    for row in payload["variants"].values():
        assert len(row["per_seed"]) == 1 and row["mean"] == row["per_seed"][0]
        assert row["min"] == row["max"] == row["mean"]
    for variant in payload["variants"]:
        assert variant in table
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert set(timings) == {"ingest_s", "features_s", "fits_s"}
    assert all(seconds >= 0 for seconds in timings.values())
    # two worker processes write the same bytes
    pool_out = pipeline["root"] / "ablate-pool"
    assert main(["ablate", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(pool_out),
                 "--train-end", "2w", "--test-end", "3w", "--seed", "2", "--jobs", "2",
                 "--set", "epochs=1", "--set", "embed_dim=3"]) == 0
    assert (pool_out / "ablation.json").read_bytes() == (out / "ablation.json").read_bytes()
    capsys.readouterr()


def test_ablate_adds_the_seed_scores_left_to_right(pipeline, tmp_path, monkeypatch, capsys):
    # Python 3.12's sum() makes the mean of these six scores 0.4222222222222222
    scores = [0.7000000000000001, 0.24444444444444446, 0.27777777777777773, 0.45, 0.75,
              0.1111111111111111]
    monkeypatch.setattr(cli, "_ablate_job",
                        lambda job, shared=None: (scores[job[1] - 6], [scores[job[1] - 6]] * 3))
    out = tmp_path / "ablate"
    assert main(["ablate", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
                 "--out", str(out), "--train-end", "2w", "--test-end", "3w", "--seed", "2",
                 "--seeds", "6"]) == 0
    variants = json.loads((out / "ablation.json").read_text())["variants"]
    assert {row["mean"] for row in variants.values()} == {0.4222222222222223}
    capsys.readouterr()


def test_ablate_reports_the_seed_spread_and_the_paired_difference(pipeline, tmp_path,
                                                                  monkeypatch, capsys):
    # three students; every variant but no_text_features scores as full
    # does, and no_text_features adds 0.5 at student 1 in seed 7 only
    full = {6: [0.5, 0.0, 1.0], 7: [0.0, 0.0, 1.0]}

    def job(job, shared=None):
        variant, seed = job
        aps = list(full[seed])
        if variant == "no_text_features" and seed == 7:
            aps[1] = 0.5
        return mean(aps), aps

    monkeypatch.setattr(cli, "_ablate_job", job)
    out = tmp_path / "ablate"
    assert main(["ablate", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
                 "--out", str(out), "--train-end", "2w", "--test-end", "3w", "--seed", "2",
                 "--seeds", "2"]) == 0
    payload = json.loads((out / "ablation.json").read_text())
    assert payload["users_evaluated"] == 3
    rows = payload["variants"]
    assert rows["full"] == {"per_seed": [0.5, 1 / 3], "mean": 0.41666666666666663,
                            "min": 1 / 3, "max": 0.5}
    for variant in ("no_dynamic_student", "no_thread_projection"):
        assert rows[variant]["diff_from_full"] == 0.0
        assert rows[variant]["diff_ci95"] == [0.0, 0.0]
    # student 1's seed-mean AP rises by 0.25, the others' not at all
    text = rows["no_text_features"]
    assert (text["min"], text["max"]) == (0.5, 0.5)
    assert text["diff_from_full"] == mean([0.0, 0.25, 0.0])
    assert text["diff_ci95"] == bootstrap_interval([0.0, 0.25, 0.0])
    assert text["diff_ci95"][0] == 0.0 < text["diff_ci95"][1]
    table = capsys.readouterr().out.splitlines()
    assert table[0].startswith("variant") and "minus full [95% CI]" in table[0]
    assert table[1].split() == ["full", "0.416667", "0.3333-0.5000"]
    assert table[-1].split() == ["no_text_features", "0.500000", "0.5000-0.5000",
                                 "+0.0833", "[+0.0000,", "+0.2500]"]


def test_ablate_pool_starts_no_more_workers_than_jobs(pipeline, tmp_path, monkeypatch,
                                                     capsys):
    # a pool starts all its workers at once, and ablate has six variants
    # times --seeds jobs; the stand-in pool runs the jobs here and starts
    # no process
    import concurrent.futures
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            cli._set_ablate_inputs(None)

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    args = ["ablate", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
            "--train-end", "2w", "--test-end", "3w", "--seed", "2",
            "--set", "epochs=1", "--set", "embed_dim=3"]
    for jobs, seeds, workers in ((1, 1, []), (64, 1, [6]), (5, 2, [5])):
        out = tmp_path / ("jobs-%d-seeds-%d" % (jobs, seeds))
        assert main(args + ["--out", str(out), "--jobs", str(jobs), "--seeds", str(seeds)]) == 0
        assert started == workers, jobs
        started.clear()
    assert ((tmp_path / "jobs-64-seeds-1" / "ablation.json").read_bytes()
            == (tmp_path / "jobs-1-seeds-1" / "ablation.json").read_bytes())
    capsys.readouterr()


def test_every_output_directory_holds_exactly_its_manifest(pipeline, tmp_path, capsys):
    data, ckpt = str(pipeline["data"]), str(pipeline["run"] / "checkpoint.bin")
    split = ["--train-end", "2w", "--test-end", "3w"]
    eval_out, per_event_out, ablate_out = (tmp_path / "eval", tmp_path / "per-event",
                                           tmp_path / "ablate")
    assert main(["eval", "--data", data, "--out", str(eval_out), "--checkpoint", ckpt]
                + split) == 0
    assert main(["eval", "--data", data, "--out", str(per_event_out), "--checkpoint", ckpt,
                 "--per-event"] + split) == 0
    assert main(["ablate", "--data", data, "--lda", str(pipeline["lda"]),
                 "--out", str(ablate_out), "--set", "epochs=1", "--set", "embed_dim=3"]
                + split) == 0
    for out, command in ((pipeline["data"], "synth"), (pipeline["lda"], "lda"),
                         (pipeline["run"], "train"), (eval_out, "eval"),
                         (per_event_out, "eval"), (ablate_out, "ablate")):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0, out
        listed = set(manifest["outputs"]) | set(manifest["logs"]) | {"manifest.json"}
        assert {path.name for path in out.iterdir()} == listed, out
        assert verify_manifest(out / "manifest.json") == [], out
    capsys.readouterr()


def test_checkpoint_gates_refuse_a_split_or_query_it_was_not_trained_for(pipeline, tmp_path,
                                                                         capsys):
    # the checkpoint was trained on the posts before 2w; after its last
    # training post, an eval split at another time, or a query before 2w,
    # would read states that miss or already hold the posts in between
    data, ckpt = str(pipeline["data"]), str(pipeline["run"] / "checkpoint.bin")
    meta = model.load_checkpoint(ckpt)[3]
    out = tmp_path / "eval"
    assert main(["eval", "--data", data, "--out", str(out), "--checkpoint", ckpt,
                 "--train-end", "17d", "--test-end", "3w"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert ("error: --train-end %r differs from the checkpoint's train_end %r"
            % (parse_duration("17d"), meta["train_end"])) in captured.err
    at = (meta["last_post_time"] + meta["train_end"]) / 2
    assert meta["last_post_time"] < at < meta["train_end"]
    assert main(["recommend", "--data", data, "--checkpoint", ckpt, "--student", "0",
                 "--at", repr(at)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: --at %r is before the checkpoint's train_end %r"
            % (at, meta["train_end"])) in captured.err


def test_ablate_manifest_records_the_effective_config(pipeline, capsys):
    out = pipeline["root"] / "ablate-config"
    assert main(["ablate", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(out),
                 "--train-end", "2w", "--test-end", "3w", "--seed", "2",
                 "--set", "epochs=3", "--set", "embed_dim=3"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["epochs"] == 3 and type(config["epochs"]) is int
    assert config["learning_rate"] == TrainConfig().learning_rate  # a default
    assert config["seed"] == 6  # base 2 plus the ablate stage offset
    assert config["train_end"] == parse_duration("2w")
    assert config["test_end"] == parse_duration("3w")
    assert config["n_cutoff"] == 5 and config["seeds"] == 1
    capsys.readouterr()


def _modules_loaded_after(commands, modules):
    """Which of modules are imported once a fresh interpreter has run the
    CLI commands, each asserted to exit 0."""
    import threadrec
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(threadrec.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    script = ("import json, sys\n"
              "import threadrec, threadrec.cli\n"
              "codes = [threadrec.cli.main(a) for a in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, [m for m in %r if m in sys.modules]]))\n"
              % (tuple(modules),))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, check=True)
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(commands)
    return loaded


def test_lda_and_read_only_commands_leave_scipy_and_process_pools_unloaded(pipeline):
    # no command imports scipy, and only ablate starts processes; no other
    # command pays for importing them, nor for the package modules it does
    # not run
    heavy = ("scipy", "scipy.special", "concurrent.futures.process")
    data, ckpt = str(pipeline["data"]), str(pipeline["run"] / "checkpoint.bin")
    commands = [
        ["eval", "--data", data, "--out", str(pipeline["root"] / "lean-eval"),
         "--checkpoint", ckpt, "--train-end", "2w", "--test-end", "3w"],
        ["eval", "--data", data, "--out", str(pipeline["root"] / "lean-pe"),
         "--checkpoint", ckpt, "--train-end", "2w", "--test-end", "3w", "--per-event"],
        ["recommend", "--data", data, "--checkpoint", ckpt, "--student", "0",
         "--at", "2w"],
    ]
    assert _modules_loaded_after([], heavy) == []
    assert _modules_loaded_after(commands, heavy + ("threadrec.train", "threadrec.synth")) == []
    lda = ["lda", "--data", data, "--out", str(pipeline["root"] / "lean-lda"),
           "--iters", "2", "--min-count", "2"]
    assert _modules_loaded_after([lda], heavy + ("threadrec.model", "threadrec.train",
                                                 "threadrec.recommend",
                                                 "threadrec.synth")) == []


def test_train_leaves_numpy_ma_unloaded(pipeline):
    # the manifest's elapsed-time percentiles are computed without np.percentile
    train = ["train", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
             "--out", str(pipeline["root"] / "lean-train"), "--train-end", "2w",
             "--set", "epochs=1", "--set", "embed_dim=4"]
    assert _modules_loaded_after([train], ("numpy.ma",)) == []


def test_eval_leaves_numpy_ma_unloaded(pipeline):
    # the bootstrap interval next to MAP is computed without np.percentile
    evaluate = ["eval", "--data", str(pipeline["data"]), "--out", str(pipeline["root"] / "lean-ci"),
                "--checkpoint", str(pipeline["run"] / "checkpoint.bin"), "--train-end", "2w",
                "--test-end", "3w"]
    assert _modules_loaded_after([evaluate], ("numpy.ma",)) == []


@pytest.mark.parametrize("values", [
    [3.5], [0.1, 0.7], [0.1, 0.7, 0.3], [1 / 3, 2 / 7, 5 / 9], [0.25, 7.0, 0.25],
    np.random.default_rng(4).exponential(size=797).tolist(),
    np.random.default_rng(5).integers(0, 6, size=797).astype(float).tolist(),
])
def test_percentiles_are_numpy_percentile(values):
    # every half percent: on these values both of _lerp's branches give
    # results the other would round differently
    values = np.array(values)
    percents = np.arange(201) / 2
    assert percentiles(values, percents.tolist()) == np.percentile(values, percents).tolist()


def test_usage_errors_exit_two(pipeline, tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--set", "not_a_knob=3"]) == 2
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--set", "num_students=abc"]) == 2
    assert main(["train", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(tmp_path / "y"),
                 "--set", "epochs=zero"]) == 2
    assert main(["eval", "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "z"), "--baseline", "pop",
                 "--train-end", "oops", "--test-end", "3w"]) == 2
    assert main(["ablate", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(tmp_path / "a"),
                 "--train-end", "2w", "--test-end", "3w", "--seeds", "0"]) == 2
    assert not (tmp_path / "a").exists()
    # a checkpoint trained through 2w: an eval split at another time, or a
    # ranking query before 2w, would read states that hold later posts
    assert main(["eval", "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "b"),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
                 "--train-end", "1w", "--test-end", "3w"]) == 2
    assert not (tmp_path / "b").exists()
    assert main(["recommend", "--data", str(pipeline["data"]),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
                 "--student", "0", "--at", "1w"]) == 2
    # a checkpoint trained on every post records no train_end; queries at
    # or before its last training post are refused all the same
    whole = tmp_path / "whole"
    assert main(["train", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(whole),
                 "--seed", "2", "--set", "epochs=1", "--set", "embed_dim=4"]) == 0
    assert main(["eval", "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "c"),
                 "--checkpoint", str(whole / "checkpoint.bin"),
                 "--train-end", "1w", "--test-end", "2w"]) == 2
    assert not (tmp_path / "c").exists()
    assert main(["recommend", "--data", str(pipeline["data"]),
                 "--checkpoint", str(whole / "checkpoint.bin"),
                 "--student", "0", "--at", "1w"]) == 2
    # a checkpoint scored against another course: seed 5 has one thread more
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--seed", "5"] + SYNTH_ARGS) == 0
    assert main(["eval", "--data", str(other), "--out", str(tmp_path / "d"),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
                 "--train-end", "2w", "--test-end", "3w"]) == 2
    assert not (tmp_path / "d").exists()
    assert main(["recommend", "--data", str(other),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
                 "--student", "0", "--at", "2w"]) == 2
    # a reversed or empty split window is refused before the data are read
    for test_end in ("1w", "2w"):
        assert main(["eval", "--data", str(pipeline["data"]), "--out", str(tmp_path / "r"),
                     "--baseline", "pop", "--train-end", "2w", "--test-end", test_end]) == 2
        assert "need 0 < train_end < test_end" in capsys.readouterr().err
        assert main(["ablate", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
                     "--out", str(tmp_path / "r"), "--train-end", "2w",
                     "--test-end", test_end]) == 2
        assert "need 0 < train_end < test_end" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
    # argparse's own rejections surface as exit code 2 as well
    assert main(["eval"]) == 2
    assert main(["not-a-command"]) == 2
    # counts and sizes below one are refused before anything runs
    data, lda, ckpt = (str(pipeline["data"]), str(pipeline["lda"]),
                       str(pipeline["run"] / "checkpoint.bin"))
    refused = tmp_path / "refused"
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("n_cutoff = 3\n")
    pop = ["eval", "--data", data, "--out", str(refused), "--baseline", "pop",
           "--train-end", "2w", "--test-end", "3w"]
    for argv in (
            # flags a command does not read, and flags that are gone
            ["lda", "--data", data, "--out", str(refused), "--set", "x=1"],
            pop + ["--config", str(cfg)],
            ["recommend", "--data", data, "--checkpoint", ckpt, "--student", "0",
             "--at", "2w", "--seed", "1"],
            ["lda", "--data", data, "--out", str(refused), "--separate-course-model"],
            pop + ["--rec-ascending"],
            # a baseline scores neither a checkpoint nor per event
            pop + ["--checkpoint", ckpt],
            pop + ["--per-event"],
            # synth integers parse as train integers do
            ["synth", "--out", str(refused), "--set", "num_students=15.7"]):
        assert main(argv) == 2, argv
    for argv in (["lda", "--data", data, "--out", str(refused), "--num-topics", "0"],
                 ["lda", "--data", data, "--out", str(refused), "--iters", "0"],
                 ["lda", "--data", data, "--out", str(refused), "--min-count", "0"],
                 ["eval", "--data", data, "--out", str(refused), "--checkpoint", ckpt,
                  "--train-end", "2w", "--test-end", "3w", "--n-cutoff", "0"],
                 ["recommend", "--data", data, "--checkpoint", ckpt, "--student", "0",
                  "--at", "2w", "--top-k", "0"],
                 ["synth", "--out", str(refused), "--preset", "algo-like", "--scale", "0"],
                 ["ablate", "--data", data, "--lda", lda, "--out", str(refused),
                  "--train-end", "2w", "--test-end", "3w", "--jobs", "0"]):
        assert main(argv) == 2, argv
    assert not refused.exists()
    capsys.readouterr()


def test_runtime_errors_exit_one(pipeline, tmp_path, capsys):
    # missing data directory
    assert main(["lda", "--data", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "o")]) == 1
    # training window beyond the data: split leaves nothing to train on
    assert main(["eval", "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "e"), "--baseline", "pop",
                 "--train-end", "0.001", "--test-end", "3w"]) == 1
    # course topics one column wide are on the simplex but not the topic
    # model's width: training refuses them and writes no checkpoint
    lda = tmp_path / "lda-narrow"
    shutil.copytree(pipeline["lda"], lda)
    weeks = len((lda / "course_topics.csv").read_text().splitlines())
    (lda / "course_topics.csv").write_text("1.0\n" * weeks)
    out = tmp_path / "narrow"
    assert main(["train", "--data", str(pipeline["data"]), "--lda", str(lda),
                 "--out", str(out), "--train-end", "2w", "--set", "epochs=1"]) == 1
    assert "course topics" in capsys.readouterr().err
    assert not out.exists()
    # a week of NaN topics is off the simplex, not a week every student nears
    rows = (pipeline["lda"] / "course_topics.csv").read_text().splitlines()
    rows[0] = " ".join(["nan"] * len(rows[0].split()))
    (lda / "course_topics.csv").write_text("\n".join(rows) + "\n")
    assert main(["train", "--data", str(pipeline["data"]), "--lda", str(lda),
                 "--out", str(out), "--train-end", "2w", "--set", "epochs=1"]) == 1
    assert "course_topics.csv must be nonnegative" in capsys.readouterr().err
    assert not out.exists()
    # a NaN topic-word row, and a vocabulary cut to half its rows, with a
    # row cut short or with a repeated word, each of which would map words
    # to the wrong columns of the topic model
    for i, (name, edit, message) in enumerate((
            ("lda_model.csv", lambda rows: rows[:1] + [" ".join(["nan"] + rows[1].split()[1:])]
             + rows[2:], "lda_model.csv must be nonnegative"),
            ("vocab.csv", lambda rows: rows[:len(rows) // 2], "vocabulary has"),
            ("vocab.csv", lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0]] + rows[3:],
             "vocabulary line 3 has 2 fields, not 3"),
            ("vocab.csv", lambda rows: rows[:-1] + ["%d,%s,1" % (len(rows) - 2,
                                                                 rows[1].split(",")[1])],
             "repeats the word"))):
        bad = tmp_path / ("lda-bad-%d" % i)
        shutil.copytree(pipeline["lda"], bad)
        rows = edit((bad / name).read_text().splitlines())
        (bad / name).write_text("\n".join(rows) + "\n")
        assert main(["train", "--data", str(pipeline["data"]), "--lda", str(bad),
                     "--out", str(out), "--train-end", "2w", "--set", "epochs=1"]) == 1, message
        err = capsys.readouterr().err
        assert "error: " in err and message in err, message
        assert not out.exists(), message
    # checkpoint headers that are valid JSON of another shape, and meta
    # times and config of another type
    magic, header, payload = (pipeline["run"] / "checkpoint.bin").read_bytes().split(b"\n", 2)
    good = json.loads(header)
    ckpt = tmp_path / "checkpoint.bin"
    for bad, message in (
            ({k: v for k, v in good.items() if k != "scalars"},
             "checkpoint header scalars must be an object"),
            ({**good, "arrays": [1, 2, 3]}, "checkpoint header arrays must be a list of objects"),
            ([good], "checkpoint header must be an object"),
            ({**good, "meta": {**good["meta"], "last_post_time": "1w"}},
             "last_post_time must be null or a finite number, not '1w'"),
            ({**good, "meta": {**good["meta"], "train_end": True}},
             "train_end must be null or a finite number, not True"),
            ({**good, "meta": {**good["meta"], "config": "full"}},
             "config must be an object, not 'full'")):
        ckpt.write_bytes(magic + b"\n" + json.dumps(bad).encode() + b"\n" + payload)
        for argv in (["eval", "--data", str(pipeline["data"]), "--out", str(out),
                      "--checkpoint", str(ckpt), "--train-end", "2w", "--test-end", "3w"],
                     ["recommend", "--data", str(pipeline["data"]), "--checkpoint", str(ckpt),
                      "--student", "0", "--at", "2w"]):
            assert main(argv) == 1, (argv[0], message)
            err = capsys.readouterr().err
            assert "error: " in err and message in err, (argv[0], message)
            assert "Traceback" not in err and not out.exists()
    # a command refused after reading its inputs leaves no output directory
    for argv, message in (
            (["synth", "--set", "num_students=1", "--set", "mean_posts_per_student=1",
              "--seed", "0"], "generated no posts"),
            (["lda", "--data", str(pipeline["data"]), "--min-count", "100000"],
             "vocabulary is empty"),
            (["lda", "--data", str(pipeline["data"]), "--num-topics", "100000"],
             "exceeds vocabulary size"),
            (["train", "--data", str(pipeline["data"]), "--lda", str(tmp_path / "nowhere")],
             "nowhere"),
            (["ablate", "--data", str(pipeline["data"]), "--lda", str(tmp_path / "nowhere"),
              "--train-end", "2w", "--test-end", "3w"], "nowhere")):
        assert main(argv + ["--out", str(out)]) == 1, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv
    # a schedule whose top level is a list, not an object
    bad = tmp_path / "schedule-list"
    shutil.copytree(pipeline["data"], bad)
    (bad / "schedule.json").write_text("[]\n")
    assert main(["lda", "--data", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: schedule %s must be a JSON object, not list" % (bad / "schedule.json") in err
    assert "Traceback" not in err and not out.exists()


def test_checkpoint_ablation_flags_must_be_booleans(pipeline, tmp_path, capsys):
    # a flag that is present must be a JSON boolean: "false" is truthy and
    # would rank without thread projection; an absent flag means false
    magic, header, payload = (pipeline["run"] / "checkpoint.bin").read_bytes().split(b"\n", 2)
    good = json.loads(header)
    ckpt, out = tmp_path / "checkpoint.bin", tmp_path / "out"
    argvs = (["eval", "--data", str(pipeline["data"]), "--out", str(out),
              "--checkpoint", str(ckpt), "--train-end", "2w", "--test-end", "3w"],
             ["recommend", "--data", str(pipeline["data"]), "--checkpoint", str(ckpt),
              "--student", "0", "--at", "2w"])

    absent = object()

    def write(value):
        config = {k: v for k, v in good["meta"]["config"].items() if k != "no_thread_projection"}
        if value is not absent:
            config["no_thread_projection"] = value
        meta = {**good["meta"], "config": config}
        ckpt.write_bytes(magic + b"\n" + json.dumps({**good, "meta": meta}).encode() + b"\n"
                         + payload)

    for value, shown in (("false", "'false'"), (1, "1"), (None, "None")):
        write(value)
        for argv in argvs:
            assert main(argv) == 1, (argv[0], value)
            err = capsys.readouterr().err
            assert ("error: the checkpoint's config no_thread_projection must be true or "
                    "false, not %s" % shown in err), (argv[0], value)
            assert "Traceback" not in err and not out.exists()
    ds = cli._load_dataset(pipeline["data"])
    for value, expected in ((True, True), (False, False), (absent, False)):
        write(value)
        flags = cli._open_checkpoint(ckpt, ds, parse_duration("2w"), "--at")[4]
        assert flags == model.AblationFlags(no_thread_projection=expected), value
        for argv in argvs:
            assert main(argv) == 0, (argv[0], value)
        shutil.rmtree(out)


def test_unreadable_inputs_name_their_file(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    # a checkpoint whose header line is not JSON
    magic, _, payload = (pipeline["run"] / "checkpoint.bin").read_bytes().split(b"\n", 2)
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(magic + b"\n{oops\n" + payload)
    for argv in (["eval", "--data", str(pipeline["data"]), "--out", str(out),
                  "--checkpoint", str(ckpt), "--train-end", "2w", "--test-end", "3w"],
                 ["recommend", "--data", str(pipeline["data"]), "--checkpoint", str(ckpt),
                  "--student", "0", "--at", "2w"]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert ("error: checkpoint %s: the header is not JSON: Expecting property name" % ckpt
                in err), argv[0]
        assert not out.exists()
    # a vocabulary row whose index is not an integer
    lda = tmp_path / "lda"
    shutil.copytree(pipeline["lda"], lda)
    rows = (lda / "vocab.csv").read_text().splitlines()
    rows[2] = "x," + rows[2].split(",", 1)[1]
    (lda / "vocab.csv").write_text("\n".join(rows) + "\n")
    assert main(["train", "--data", str(pipeline["data"]), "--lda", str(lda),
                 "--out", str(out), "--train-end", "2w", "--set", "epochs=1"]) == 1
    err = capsys.readouterr().err
    assert ("error: vocabulary %s line 3: index and count must be integers, got ['x', "
            % (lda / "vocab.csv") in err)
    assert not out.exists()


def test_unparsable_inputs_name_their_file_or_line(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    # topic artifacts with a field that is not a number
    for name, edit, message in (
            ("lda_model.csv", lambda rows: rows[:1] + ["abc " + rows[1].split(" ", 1)[1]]
             + rows[2:], "line 2: could not convert string to float: 'abc'"),
            ("lda_model.csv", lambda rows: [rows[0].replace("K=", "K=x", 1)] + rows[1:],
             "line 1: invalid literal for int() with base 10: 'x"),
            ("course_topics.csv", lambda rows: rows[:1] + ["x " + rows[1].split(" ", 1)[1]]
             + rows[2:], "line 2: could not convert string to float: 'x'")):
        lda = tmp_path / ("lda-%s-%d" % (name, len(message)))
        shutil.copytree(pipeline["lda"], lda)
        rows = edit((lda / name).read_text().splitlines())
        (lda / name).write_text("\n".join(rows) + "\n")
        assert main(["train", "--data", str(pipeline["data"]), "--lda", str(lda),
                     "--out", str(out), "--train-end", "2w", "--set", "epochs=1"]) == 1, message
        err = capsys.readouterr().err
        assert "error: %s %s" % (lda / name, message) in err, message
        assert not out.exists(), message
    # a post line json cannot read, and a schedule that is not JSON
    first = (pipeline["data"] / "posts.jsonl").read_text().splitlines()[0]
    for posts, schedule, message in (
            (first + '\n{"student_id": %s}\n' % ("9" * 5001), None,
             "error: line 2: invalid JSON (Exceeds the limit (4300 digits)"),
            (first + "\n" + "[" * 100000 + "\n", None,
             "error: line 2: invalid JSON (maximum recursion depth exceeded"),
            (None, '{"weeks":\n', "is not JSON: Expecting value")):
        data = tmp_path / ("data-%d" % len(message))
        shutil.copytree(pipeline["data"], data)
        if posts is not None:
            (data / "posts.jsonl").write_text(posts)
        if schedule is not None:
            (data / "schedule.json").write_text(schedule)
            message = "error: schedule %s %s" % (data / "schedule.json", message)
        assert main(["lda", "--data", str(data), "--out", str(out)]) == 1, message
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, message
        assert not out.exists(), message


def test_set_without_a_value_exits_two(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
                 "--out", str(out), "--set", "epochs"]) == 2
    assert "error: --set expects key=value, got 'epochs'" in capsys.readouterr().err
    assert not out.exists()


def test_synth_scale_needs_a_preset(tmp_path, capsys):
    # --scale shrinks the preset; alone it would be ignored
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--scale", "0.05", "--seed", "1"]) == 2
    assert "error: --scale" in capsys.readouterr().err
    assert not out.exists()
    assert main(["synth", "--out", str(out), "--preset", "algo-like", "--scale", "0.05",
                 "--seed", "1"]) == 0
    ds, _ = synth.generate(synth.algo_like(scale=0.05, seed=1))
    corpus.write_jsonl(ds, tmp_path / "posts.jsonl")
    assert (out / "posts.jsonl").read_bytes() == (tmp_path / "posts.jsonl").read_bytes()


def test_non_finite_inputs_exit_one_and_write_nothing(pipeline, tmp_path, capsys):
    # json reads NaN and Infinity; a post or a week at such a time is refused
    # by line or week before any command writes, as is a week whose text is
    # a number, which str() would read as an empty week
    data = pipeline["data"]
    lines = (data / "posts.jsonl").read_text().splitlines()
    weeks = json.loads((data / "schedule.json").read_text())
    bad_text = tmp_path / "schedule-text"
    shutil.copytree(data, bad_text)
    (bad_text / "schedule.json").write_text(json.dumps(
        {"weeks": [weeks["weeks"][0], {**weeks["weeks"][1], "text": 12345}]}))
    cases = [(bad_text, "week 1 malformed in schedule: text must be a string, not 12345")]
    for value in (float("nan"), float("inf")):
        bad_posts = tmp_path / ("posts-%s" % value)
        shutil.copytree(data, bad_posts)
        record = json.loads(lines[2])
        record["timestamp"] = value
        (bad_posts / "posts.jsonl").write_text(
            "\n".join(lines[:2] + [json.dumps(record)] + lines[3:]) + "\n")
        bad_weeks = tmp_path / ("schedule-%s" % value)
        shutil.copytree(data, bad_weeks)
        weeks["weeks"][1]["start_ts"] = value
        (bad_weeks / "schedule.json").write_text(json.dumps(weeks))
        cases += [(bad_posts, "line 3: timestamp must be finite"),
                  (bad_weeks, "week 1 malformed in schedule: start_ts must be finite")]
    for bad, message in cases:
        out = tmp_path / "out"
        for argv in (["lda", "--data", str(bad), "--out", str(out)],
                     ["train", "--data", str(bad), "--lda", str(pipeline["lda"]),
                      "--out", str(out), "--set", "epochs=1"],
                     ["eval", "--data", str(bad), "--out", str(out), "--baseline", "pop",
                      "--train-end", "2w", "--test-end", "3w"],
                     ["ablate", "--data", str(bad), "--lda", str(pipeline["lda"]),
                      "--out", str(out), "--train-end", "2w", "--test-end", "3w",
                      "--set", "epochs=1"]):
            assert main(argv) == 1, argv
            assert message in capsys.readouterr().err, argv
            assert not out.exists(), argv


def test_non_finite_numbers_end_in_an_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    # a NaN clip norm would train unclipped: 0 < nan < total is False
    for key in ("clip_norm", "learning_rate", "init_std", "post_decay", "lambda_thread"):
        for value in ("nan", "inf"):
            assert main(["train", "--data", str(tmp_path), "--lda", str(tmp_path),
                         "--out", str(out), "--set", "%s=%s" % (key, value)]) == 2
            assert "error: %s must be finite" % key in capsys.readouterr().err
    # an infinite scale is refused as an argument, one that overflows the
    # preset's counts by the preset
    for scale, code in (("inf", 2), ("nan", 2), ("1e308", 1)):
        assert main(["synth", "--out", str(out), "--preset", "algo-like",
                     "--scale", scale]) == code, scale
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, scale
    assert not out.exists()


def test_checkpoint_header_too_deep_for_json_exits_one(pipeline, tmp_path, capsys):
    magic, _, payload = (pipeline["run"] / "checkpoint.bin").read_bytes().split(b"\n", 2)
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(magic + b"\n" + b"[" * 100000 + b"\n" + payload)
    out = tmp_path / "out"
    for argv in (["eval", "--data", str(pipeline["data"]), "--out", str(out),
                  "--checkpoint", str(ckpt), "--train-end", "2w", "--test-end", "3w"],
                 ["recommend", "--data", str(pipeline["data"]), "--checkpoint", str(ckpt),
                  "--student", "0", "--at", "2w"]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert ("error: checkpoint %s: the header is not JSON: maximum recursion depth" % ckpt
                in err), argv[0]
        assert "Traceback" not in err and not out.exists(), argv[0]


def test_durations_that_are_not_finite_exit_two(pipeline, tmp_path, capsys):
    # at the parent lda and train wrote Infinity into their JSON, and
    # recommend ranked by nan distances
    huge = "9" * 400
    data, lda, ckpt = (str(pipeline["data"]), str(pipeline["lda"]),
                       str(pipeline["run"] / "checkpoint.bin"))
    out = tmp_path / "out"
    for argv in (["lda", "--data", data, "--out", str(out), "--train-end", huge],
                 ["train", "--data", data, "--lda", lda, "--out", str(out),
                  "--train-end", huge, "--set", "epochs=1"],
                 ["eval", "--data", data, "--out", str(out), "--checkpoint", ckpt,
                  "--train-end", "2w", "--test-end", huge],
                 ["eval", "--data", data, "--out", str(out), "--baseline", "pop",
                  "--train-end", huge + "d", "--test-end", huge + "w"],
                 ["recommend", "--data", data, "--checkpoint", ckpt, "--student", "0",
                  "--at", huge]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error: duration '%s" % huge in err and "not a finite number" in err, argv
        assert not out.exists(), argv


def test_negative_seeds_exit_two_before_any_work(pipeline, tmp_path, capsys):
    # numpy's generators refuse a negative seed only once the command has
    # read its data; the refusal is bad usage, made before any work
    data, lda = str(pipeline["data"]), str(pipeline["lda"])
    out = tmp_path / "out"
    split = ["--train-end", "2w", "--test-end", "3w"]
    commands = {"synth": ["synth", "--out", str(out)] + SYNTH_ARGS,
                "lda": ["lda", "--data", data, "--out", str(out)],
                "train": ["train", "--data", data, "--lda", lda, "--out", str(out)],
                "eval": ["eval", "--data", data, "--out", str(out), "--baseline", "pop"]
                        + split,
                "ablate": ["ablate", "--data", data, "--lda", lda, "--out", str(out)] + split}
    for command, argv in commands.items():
        assert main(argv + ["--seed", "-1"]) == 2, command
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err, command
        assert not out.exists(), command
    for command in ("synth", "train", "ablate"):
        assert main(commands[command] + ["--set", "seed=-1"]) == 2, command
        assert "error: seed must be >= 0" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_synth_settings_that_are_not_finite_exit_two(tmp_path, capsys):
    out = tmp_path / "out"
    for setting in ("week_seconds=nan", "week_seconds=inf", "reply_pull=nan",
                    "revisit_boost=inf"):
        assert main(["synth", "--out", str(out), "--set", setting] + SYNTH_ARGS) == 2, setting
        err = capsys.readouterr().err
        assert "error: %s must be finite" % setting.split("=")[0] in err, setting
        assert not out.exists(), setting


def test_synth_refuses_a_course_length_that_overflows(tmp_path, capsys):
    # at the parent a finite week_seconds whose nine weeks overflow ended in
    # an OverflowError traceback from the arrival times
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--set", "week_seconds=1e308", "--seed", "0"]
                + SYNTH_ARGS) == 2
    assert "error: week_seconds must keep the course length" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_thread_weights_that_overflow(tmp_path, capsys):
    # the refusal names the settings and comes before any division, so no
    # numpy warning is raised (pytest turns one into an error)
    course = ["--seed", "1", "--set", "num_students=30", "--set", "num_threads=5"]
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--set", "reply_pull=1e308"] + course) == 1
    err = capsys.readouterr().err
    assert "error: revisit_boost and reply_pull overflow the thread weights" in err
    assert "Warning" not in err
    assert not out.exists()
    # a boost that leaves every total finite is drawn, with frozen bytes
    assert main(["synth", "--out", str(out), "--set", "revisit_boost=1e308"] + course) == 0
    digest = hashlib.sha256((out / "posts.jsonl").read_bytes()).hexdigest()
    assert digest == "5d3f0276e0ef83a9acf395caabea8e3f7cdcc50e1cb26b95e8a638d37dcd5889"


def test_recommend_refuses_a_query_time_whose_distances_are_not_finite(pipeline, capsys):
    # the student's projection overflows this far ahead, and the parent
    # printed every thread at distance inf
    assert main(["recommend", "--data", str(pipeline["data"]),
                 "--checkpoint", str(pipeline["run"] / "checkpoint.bin"),
                 "--student", "0", "--at", "1" + "0" * 300]) == 2
    captured = capsys.readouterr()
    assert "error: --at '1000" in captured.err and "not finite" in captured.err
    assert captured.out == ""


def test_a_diverged_fit_exits_one(pipeline, tmp_path, monkeypatch, capsys):
    from threadrec import train

    def diverge(*args, **kwargs):
        raise train.TrainingDiverged("non-finite loss at epoch 0 batch 0 post 0")

    monkeypatch.setattr(train, "fit", diverge)
    assert main(["train", "--data", str(pipeline["data"]), "--lda", str(pipeline["lda"]),
                 "--out", str(tmp_path / "run"), "--train-end", "2w"]) == 1
    assert "error: non-finite loss at epoch 0" in capsys.readouterr().err


def test_a_real_divergence_exits_one_naming_the_post(pipeline, tmp_path, capsys):
    # a learning rate this large overflows the parameters at the first step;
    # in ablate the error comes back pickled from a worker of the pool
    data, lda = str(pipeline["data"]), str(pipeline["lda"])
    diverge = ["--train-end", "2w", "--set", "epochs=1", "--set", "learning_rate=1e300"]
    for argv in (["train", "--data", data, "--lda", lda, "--out", str(tmp_path / "run")],
                 ["ablate", "--data", data, "--lda", lda, "--out", str(tmp_path / "ablate"),
                  "--test-end", "3w", "--jobs", "2"]):
        assert main(argv + diverge) == 1, argv[0]
        captured = capsys.readouterr()
        assert re.search(r"^error: non-finite loss at epoch 0 batch \d+ post \d+$",
                         captured.err, re.M), captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        # the output directory is made only once every fit has succeeded
        assert not Path(argv[argv.index("--out") + 1]).exists(), argv[0]


def test_inputs_are_read_as_utf8_whatever_the_locale(pipeline, tmp_path):
    # under the C locale without UTF-8 mode open() decodes as ASCII: the
    # parent's lda stopped at the first non-ASCII byte without naming a line
    import threadrec
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "posts.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    post = {**last, "post_id": last["post_id"] + 1, "timestamp": last["timestamp"] + 1.0,
            "text": "café naïve"}
    post.pop("parent_post_id", None)
    with open(data / "posts.jsonl", "ab") as fh:
        fh.write(json.dumps(post, ensure_ascii=False).encode("utf-8") + b"\n")
    schedule = json.loads((data / "schedule.json").read_text())
    schedule["weeks"][0]["text"] += " déjà vu"
    (data / "schedule.json").write_bytes(json.dumps(schedule, ensure_ascii=False).encode("utf-8"))
    bad = tmp_path / "bad"
    shutil.copytree(data, bad)
    with open(bad / "posts.jsonl", "ab") as fh:
        fh.write(b'{"post_id": 1, "text": "\xff"}\n')
    cfg = tmp_path / "lda.cfg"
    cfg.write_bytes("# réglages\nepochs = 1\n".encode("utf-8"))
    lda = ["lda", "--iters", "5", "--min-count", "2", "--seed", "1"]
    assert main(lda + ["--data", str(data), "--out", str(tmp_path / "utf8")]) == 0
    script = ("import json, locale, sys\n"
              "from threadrec import cli\n"
              "args = json.loads(sys.argv[1])\n"
              "print(locale.getpreferredencoding(False))\n"
              "print(cli.read_config_file(args[0]))\n"
              "sys.exit(10 * cli.main(args[1]) + cli.main(args[2]))\n")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(threadrec.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps([
            str(cfg), lda + ["--data", str(data), "--out", str(tmp_path / "c")],
            lda + ["--data", str(bad), "--out", str(tmp_path / "c-bad")]])],
        env=env, capture_output=True, text=True, encoding="utf-8")
    encoding, config = done.stdout.splitlines()[:2]
    assert encoding.lower() in ("ansi_x3.4-1968", "ascii", "us-ascii")
    assert config == "{'epochs': '1'}"
    assert done.returncode == 1, done.stderr  # lda exits 0 on data, 1 on bad
    assert ("error: line %d: invalid JSON ('utf-8' codec can't decode byte 0xff"
            % (len(lines) + 2) in done.stderr)
    assert not (tmp_path / "c-bad").exists()
    for name in ("vocab.csv", "lda_model.csv", "course_topics.csv"):
        assert ((tmp_path / "c" / name).read_bytes()
                == (tmp_path / "utf8" / name).read_bytes()), name


def test_verify_manifest_names_a_missing_output(pipeline, tmp_path):
    out = tmp_path / "synth"
    shutil.copytree(pipeline["data"], out)
    (out / "ground_truth.json").unlink()
    assert verify_manifest(out / "manifest.json") == ["missing output ground_truth.json"]


def test_config_file_feeds_train(pipeline, tmp_path):
    cfg = tmp_path / "train.cfg"
    # some editors start a UTF-8 file with a byte-order mark, which is not
    # part of the first key
    cfg.write_text("\ufeffepochs = 2\nembed_dim = 4\nlearning_rate = 0.002\n",
                   encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(out),
                 "--train-end", "2w", "--seed", "2", "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2
    assert manifest["config"]["learning_rate"] == 0.002
    # an explicit --set overrides the file
    out2 = tmp_path / "run2"
    assert main(["train", "--data", str(pipeline["data"]),
                 "--lda", str(pipeline["lda"]), "--out", str(out2),
                 "--train-end", "2w", "--seed", "2", "--config", str(cfg),
                 "--set", "epochs=1"]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config"]["epochs"] == 1


def test_verify_manifest_flags_tampering(pipeline, tmp_path):
    data = pipeline["data"]
    out = tmp_path / "tamper"
    assert main(["synth", "--out", str(out), "--seed", "3"] + SYNTH_ARGS) == 0
    assert verify_manifest(out / "manifest.json") == []
    with open(out / "posts.jsonl", "a") as fh:
        fh.write("\n")
    problems = verify_manifest(out / "manifest.json")
    assert problems and "posts.jsonl" in problems[0]
