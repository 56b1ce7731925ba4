import hashlib
import json

import pytest

from threadrec import cli
from threadrec.cli import (UsageError, main, parse_duration, read_config_file,
                           verify_manifest)


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
    assert set(timings) == {"ingest_s", "fit_s", "save_s"}
    assert all(seconds >= 0 for seconds in timings.values())


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
    # argparse's own rejections surface as exit code 2 as well
    assert main(["eval"]) == 2
    assert main(["not-a-command"]) == 2
    # counts and sizes below one are refused before anything runs
    data, lda, ckpt = (str(pipeline["data"]), str(pipeline["lda"]),
                       str(pipeline["run"] / "checkpoint.bin"))
    refused = tmp_path / "refused"
    for argv in (["lda", "--data", data, "--out", str(refused), "--num-topics", "0"],
                 ["lda", "--data", data, "--out", str(refused), "--iters", "0"],
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
    capsys.readouterr()


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
