import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from threadrec import cli, corpus
from threadrec.cli import (UsageError, main, parse_duration, read_config_file,
                           verify_manifest)
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
    for name in ("posts.jsonl", "schedule.json", "ground_truth.json",
                 "id_map.csv", "manifest.json"):
        assert (data / name).exists(), name
    assert verify_manifest(data / "manifest.json") == []


def test_lda_outputs(pipeline):
    lda = pipeline["lda"]
    for name in ("vocab.csv", "lda_model.csv", "course_topics.csv", "manifest.json"):
        assert (lda / name).exists(), name
    assert verify_manifest(lda / "manifest.json") == []
    manifest = json.loads((lda / "manifest.json").read_text())
    assert manifest["command"] == "lda"
    assert manifest["seed"] == 3  # base 2 plus the lda stage offset
    timings = manifest["timings"]
    assert set(timings) == {"vocabulary_s", "lda_fit_s", "course_topics_s"}
    assert all(seconds >= 0 for seconds in timings.values())


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
    assert (out / "per_user_ap.csv").exists()
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
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0].startswith("variant,seed_")
    assert len(lines) == 7
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
    for name in ("ablation.csv", "ablation.json"):
        assert (pool_out / name).read_bytes() == (out / name).read_bytes()
    capsys.readouterr()


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


def test_lda_and_read_only_commands_leave_scipy_and_process_pools_unloaded(pipeline):
    # no command imports scipy, and only ablate starts processes; no other
    # command pays for importing them
    import threadrec
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(threadrec.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
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

    def loaded_after(commands):
        script = ("import json, sys\n"
                  "import threadrec, threadrec.cli\n"
                  "codes = [threadrec.cli.main(a) for a in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, [m for m in %r if m in sys.modules]]))\n"
                  % (heavy,))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=env, capture_output=True, text=True, check=True)
        codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert codes == [0] * len(commands)
        return loaded

    assert loaded_after([]) == []
    assert loaded_after(commands) == []
    lda = ["lda", "--data", data, "--out", str(pipeline["root"] / "lean-lda"),
           "--iters", "2", "--min-count", "2"]
    assert loaded_after([lda]) == []


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
    capsys.readouterr()


def test_non_finite_inputs_exit_one_and_write_nothing(pipeline, tmp_path, capsys):
    # json reads NaN and Infinity; a post or a week at such a time is refused
    # by line or week before any command writes
    data = pipeline["data"]
    lines = (data / "posts.jsonl").read_text().splitlines()
    weeks = json.loads((data / "schedule.json").read_text())
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
        for bad, message in ((bad_posts, "line 3: timestamp must be finite"),
                             (bad_weeks, "week 1 malformed in schedule: start_ts must be finite")):
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


def test_config_file_feeds_train(pipeline, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 2\nembed_dim = 4\nlearning_rate = 0.002\n")
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
