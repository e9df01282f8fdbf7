"""Command-line surface: each command run in-process through main().

A module-scoped pipeline fixture runs synth -> prepare -> train (gp, ens)
-> evaluate -> report once on small sizes; individual tests assert on the
artifacts and on reruns. Error paths use throwaway inputs.
"""

import codecs
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from helpers import decode_array, encode_array, table_with_repeats, traced_peak
from textuq import cli
from textuq.corpus import (
    load_embeddings,
    read_corpus_csv,
    read_features_csv,
    write_features_csv,
)
from textuq.ensemble import EnsembleModel
from textuq.model_io import load_model
from textuq.svgp import SvgpModel


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


TOY_CORPUS = """id,text,primary_label,secondary_label
r0,No edema.,negative,negative
r1,mild edema,positive,positive
r2,edema stable,uncertain,positive
r3,no edema stable,negative,
r4,zzz,positive,positive
r5,mild stable,uncertain,uncertain
"""

TOY_EMBEDDINGS = """4 2
no 1 0
edema 0 1
mild 0.5 0.5
stable 0.25 0.75
"""


@pytest.fixture
def toy_dir(tmp_path):
    (tmp_path / "corpus.csv").write_text(TOY_CORPUS, encoding="utf-8")
    (tmp_path / "emb.txt").write_text(TOY_EMBEDDINGS, encoding="utf-8")
    return tmp_path


# ---- prepare ----------------------------------------------------------


def test_prepare_toy_corpus_counts_and_features(toy_dir):
    out_path = toy_dir / "features.csv"
    code, out, err = run_cli([
        "prepare",
        "--corpus", str(toy_dir / "corpus.csv"),
        "--embeddings", str(toy_dir / "emb.txt"),
        "--out", str(out_path),
    ])
    assert code == 0, err
    assert "class negative: 2" in out
    assert "class uncertain: 2" in out
    assert "class positive: 2" in out
    assert "agreement: consistent 4, inconsistent 1" in out
    assert "all-OOV examples: 1" in out
    assert f"wrote 6 feature rows to {out_path}" in out

    table = read_features_csv(str(out_path))
    assert table.ids.tolist() == ["r0", "r1", "r2", "r3", "r4", "r5"]
    # r0 = mean of no=(1,0) and edema=(0,1); r4 is all-OOV so it gets zeros
    assert np.array_equal(table.features[0], [0.5, 0.5])
    assert np.array_equal(table.features[4], [0.0, 0.0])


def test_prepare_rerun_is_byte_identical(toy_dir):
    args = [
        "prepare",
        "--corpus", str(toy_dir / "corpus.csv"),
        "--embeddings", str(toy_dir / "emb.txt"),
    ]
    first, second = toy_dir / "a.csv", toy_dir / "b.csv"
    assert run_cli(args + ["--out", str(first)])[0] == 0
    assert run_cli(args + ["--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("names", [("corpus.csv",), ("emb.txt",), ("corpus.csv", "emb.txt")])
def test_prepare_accepts_a_byte_order_mark(toy_dir, names):
    # Excel's "CSV UTF-8" export and Windows editors start a file with one
    args = ["prepare", "--corpus", str(toy_dir / "corpus.csv"),
            "--embeddings", str(toy_dir / "emb.txt")]
    plain, marked = toy_dir / "plain.csv", toy_dir / "marked.csv"
    assert run_cli(args + ["--out", str(plain)])[0] == 0
    for name in names:
        path = toy_dir / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    code, _, err = run_cli(args + ["--out", str(marked)])
    assert code == 0, err
    assert marked.read_bytes() == plain.read_bytes()


def test_prepare_missing_embeddings_names_path(toy_dir):
    missing = toy_dir / "nope.txt"
    code, out, err = run_cli([
        "prepare",
        "--corpus", str(toy_dir / "corpus.csv"),
        "--embeddings", str(missing),
        "--out", str(toy_dir / "f.csv"),
    ])
    assert code == 1
    assert err.startswith("error:")
    assert str(missing) in err
    assert not (toy_dir / "f.csv").exists()


def test_prepare_malformed_corpus_exits_1(toy_dir):
    bad = toy_dir / "bad.csv"
    bad.write_text("id,text,label\nr0,hello,negative\n", encoding="utf-8")
    code, out, err = run_cli([
        "prepare",
        "--corpus", str(bad),
        "--embeddings", str(toy_dir / "emb.txt"),
        "--out", str(toy_dir / "f.csv"),
    ])
    assert code == 1
    assert err.startswith("error:")


# ---- synth ------------------------------------------------------------


def test_synth_writes_loadable_files(tmp_path):
    corpus, emb = tmp_path / "c.csv", tmp_path / "e.txt"
    code, out, err = run_cli([
        "synth", "--n", "50", "--seed", "9", "--dim", "4",
        "--out-corpus", str(corpus), "--out-embeddings", str(emb),
    ])
    assert code == 0, err
    assert "wrote 50 rows, realized disagreement" in out
    assert "dimension 4" in out
    rows = read_corpus_csv(str(corpus))
    assert len(rows) == 50
    table = load_embeddings(str(emb))
    assert table.dimension == 4


def test_synth_round_trips_through_prepare(tmp_path):
    corpus, emb = tmp_path / "c.csv", tmp_path / "e.txt"
    code, _, err = run_cli([
        "synth", "--n", "1000", "--disagreement", "0.04", "--seed", "1",
        "--dim", "8", "--out-corpus", str(corpus), "--out-embeddings", str(emb),
    ])
    assert code == 0, err
    feats = tmp_path / "f.csv"
    code, out, err = run_cli([
        "prepare", "--corpus", str(corpus), "--embeddings", str(emb),
        "--out", str(feats),
    ])
    assert code == 0, err
    assert "all-OOV examples: 0" in out
    table = read_features_csv(str(feats))
    assert len(table) == 1000
    assert table.features.shape == (1000, 8)


def test_synth_rerun_is_byte_identical(tmp_path):
    outs = []
    for tag in ("x", "y"):
        corpus, emb = tmp_path / f"c{tag}.csv", tmp_path / f"e{tag}.txt"
        code, _, err = run_cli([
            "synth", "--n", "80", "--seed", "7", "--dim", "4",
            "--out-corpus", str(corpus), "--out-embeddings", str(emb),
        ])
        assert code == 0, err
        outs.append((corpus.read_bytes(), emb.read_bytes()))
    assert outs[0] == outs[1]


def test_synth_and_prepare_write_the_pinned_bytes(tmp_path):
    # the SHA-256 of each file as the csv-module writer and the row-at-a-time
    # pooling wrote them, so that a faster writer or pooling cannot drift
    corpus, emb, feats = tmp_path / "corpus.csv", tmp_path / "emb.txt", tmp_path / "f.csv"
    for argv in (["synth", "--n", "2000", "--dim", "16", "--seed", "5",
                  "--out-corpus", str(corpus), "--out-embeddings", str(emb)],
                 ["prepare", "--corpus", str(corpus), "--embeddings", str(emb),
                  "--out", str(feats)]):
        code, _, err = run_cli(argv)
        assert code == 0, err
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (corpus, emb, feats)]
    assert digests == [
        "c1d71817b34272fabd73004c2e9fd3ad11395ea947097dc51e37453254763172",
        "6cc8983d8503e8f1a62bbff99490aefd2a53d12e1fcd99fc2da33025fa403c00",
        "43923e199616a0dac3d5e22fc0d71bf931b9b2d01b5eab06135e016914761a4d",
    ]


def test_synth_invalid_config_exits_1(tmp_path):
    code, _, err = run_cli([
        "synth", "--n", "10", "--disagreement", "1.5", "--seed", "0",
        "--out-corpus", str(tmp_path / "c.csv"),
        "--out-embeddings", str(tmp_path / "e.txt"),
    ])
    assert code == 1
    assert err.startswith("error:")


def test_synth_sets_every_config_field_from_a_flag(tmp_path, monkeypatch):
    keywords = []

    class Recording(cli.corpus_mod.SynthConfig):
        def __init__(self, **kwargs):
            keywords.append(set(kwargs))
            super().__init__(**kwargs)

    monkeypatch.setattr(cli.corpus_mod, "SynthConfig", Recording)
    code, _, err = run_cli([
        "synth", "--n", "10", "--seed", "0", "--dim", "4",
        "--out-corpus", str(tmp_path / "c.csv"), "--out-embeddings", str(tmp_path / "e.txt"),
    ])
    assert code == 0, err
    assert keywords == [{f.name for f in dataclasses.fields(cli.corpus_mod.SynthConfig)}]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_synth_rejects_a_removed_setting(tmp_path, how):
    # the template mix and the context length are constants, not settings
    argv = ["synth", "--n", "10", "--seed", "0", "--out-corpus", str(tmp_path / "c.csv"),
            "--out-embeddings", str(tmp_path / "e.txt")]
    if how == "flag":
        argv += ["--filler-count", "35"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("negative_weight = 0.5\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    code, _, err = run_cli(argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "c.csv").exists()


# ---- config files and option resolution --------------------------------


def test_config_file_values_used_and_cli_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    # dashes in keys are accepted; comments and blank lines are skipped
    cfg.write_text(
        "# synthetic corpus settings\n"
        "n = 10\n"
        "seed = 4\n"
        "dim = 4\n"
        "disagreement = 0.0\n"
        f"out-corpus = {tmp_path / 'c.csv'}\n"
        f"out_embeddings = {tmp_path / 'e.txt'}\n"
        "\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(["synth", "--config", str(cfg), "--n", "20"])
    assert code == 0, err
    assert "wrote 20 rows" in out  # command line wins over the file
    assert "realized disagreement 0.0000" in out
    assert len(read_corpus_csv(str(tmp_path / "c.csv"))) == 20


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    text = "seed = 4\nn = 10\ndim = 4\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert cli.read_config(str(marked)) == cli.read_config(str(plain)) == {
        "seed": "4", "n": "10", "dim": "4"}
    written = []
    for cfg in (plain, marked):
        out = tmp_path / cfg.stem
        out.mkdir()
        code, _, err = run_cli(["synth", "--config", str(cfg), "--out-corpus", str(out / "c.csv"),
                                "--out-embeddings", str(out / "e.txt")])
        assert code == 0, err
        written.append([(out / name).read_bytes() for name in ("c.csv", "e.txt")])
    assert written[0] == written[1]


def test_config_unknown_key_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n", encoding="utf-8")
    code, _, err = run_cli([
        "synth", "--config", str(cfg), "--n", "10", "--seed", "0",
        "--out-corpus", str(tmp_path / "c.csv"),
        "--out-embeddings", str(tmp_path / "e.txt"),
    ])
    assert code == 1
    assert "unknown config keys: frobnicate" in err


def test_config_malformed_line_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 10\nthis line has no equals sign\n", encoding="utf-8")
    code, _, err = run_cli(["synth", "--config", str(cfg)])
    assert code == 1
    assert "line 2" in err


def test_bad_option_value_exits_1(tmp_path):
    code, _, err = run_cli([
        "synth", "--n", "abc", "--seed", "0",
        "--out-corpus", str(tmp_path / "c.csv"),
        "--out-embeddings", str(tmp_path / "e.txt"),
    ])
    assert code == 1
    assert "bad value for --n" in err


def test_missing_required_option_exits_1():
    code, _, err = run_cli(["synth", "--n", "5"])
    assert code == 1
    assert "--seed is required" in err


def test_config_bad_boolean_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("optimize_inducing = maybe\n", encoding="utf-8")
    code, _, err = run_cli([
        "train", "--config", str(cfg), "--model", "gp",
        "--features", "unused.csv", "--out-model", "m", "--out-trace", "t",
        "--seed", "0",
    ])
    assert code == 1
    assert "expected a boolean" in err


def test_usage_error_exits_1():
    # argparse-level problems are user errors, not crashes
    code, _, err = run_cli(["frobnicate"])
    assert code == 1
    assert err.startswith("error:")


# ---- the small end-to-end pipeline -------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "root": root,
        "corpus": root / "corpus.csv",
        "embeddings": root / "emb.txt",
        "features": root / "features.csv",
        "gp_model": root / "gp.json",
        "gp_trace": root / "gp_trace.csv",
        "ens_model": root / "ens.json",
        "ens_trace": root / "ens_trace.csv",
        "gp_json": root / "gp_metrics.json",
        "gp_csv": root / "gp_metrics.csv",
        "gp_rel": root / "gp_rel.csv",
        "ens_json": root / "ens_metrics.json",
        "ens_csv": root / "ens_metrics.csv",
        "ens_rel": root / "ens_rel.csv",
        "svg": root / "gp_rel.svg",
    }
    stdout = {}

    def run(tag, argv):
        code, out, err = run_cli(argv)
        assert code == 0, f"{tag}: {err}"
        stdout[tag] = out

    run("synth", [
        "synth", "--n", "400", "--disagreement", "0.1", "--seed", "11",
        "--dim", "8", "--out-corpus", str(paths["corpus"]),
        "--out-embeddings", str(paths["embeddings"]),
    ])
    paths["input_bytes"] = (
        paths["corpus"].read_bytes(), paths["embeddings"].read_bytes()
    )
    run("prepare", [
        "prepare", "--corpus", str(paths["corpus"]),
        "--embeddings", str(paths["embeddings"]), "--out", str(paths["features"]),
    ])
    paths["features_bytes"] = paths["features"].read_bytes()
    paths["gp_args"] = [
        "train", "--model", "gp", "--features", str(paths["features"]),
        "--seed", "3", "--inducing", "16", "--epochs", "1",
        "--batch-size", "200", "--mc-train", "4", "--mc-predict", "16",
    ]
    run("train_gp", paths["gp_args"] + [
        "--out-model", str(paths["gp_model"]), "--out-trace", str(paths["gp_trace"]),
    ])
    run("train_ens", [
        "train", "--model", "ens", "--features", str(paths["features"]),
        "--out-model", str(paths["ens_model"]),
        "--out-trace", str(paths["ens_trace"]),
        "--seed", "3", "--members", "1", "--hidden", "16",
        "--epochs", "2", "--batch-size", "128",
    ])
    paths["gp_eval_args"] = [
        "evaluate", "--model", str(paths["gp_model"]),
        "--features", str(paths["features"]),
    ]
    run("evaluate_gp", paths["gp_eval_args"] + [
        "--out-json", str(paths["gp_json"]), "--out-csv", str(paths["gp_csv"]),
        "--out-reliability", str(paths["gp_rel"]),
    ])
    run("evaluate_ens", [
        "evaluate", "--model", str(paths["ens_model"]),
        "--features", str(paths["features"]),
        "--out-json", str(paths["ens_json"]), "--out-csv", str(paths["ens_csv"]),
        "--out-reliability", str(paths["ens_rel"]),
    ])
    run("report", [
        "report", "--reliability", str(paths["gp_rel"]), "--out", str(paths["svg"]),
    ])
    paths["stdout"] = stdout
    return paths


def test_train_reports_split_sizes(pipeline):
    assert "split: train 320, val 40, test 40" in pipeline["stdout"]["train_gp"]
    assert "final objective:" in pipeline["stdout"]["train_gp"]


def test_gp_trace_schema(pipeline):
    lines = pipeline["gp_trace"].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,objective"
    # one epoch of 320 examples in batches of 200 gives two steps
    assert len(lines) == 3
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == [0, 1]
    for line in lines[1:]:
        assert np.isfinite(float(line.split(",")[1]))


def test_ens_trace_schema(pipeline):
    lines = pipeline["ens_trace"].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "member,step,objective"
    # 320 examples, batch 128 -> 3 batches per epoch, 2 epochs, 1 member
    assert len(lines) == 7
    members = {int(line.split(",")[0]) for line in lines[1:]}
    assert members == {0}
    steps = [int(line.split(",")[1]) for line in lines[1:]]
    assert steps == list(range(6))


def test_gp_model_file_loads_with_metadata(pipeline):
    model, meta = load_model(str(pipeline["gp_model"]))
    assert isinstance(model, SvgpModel)
    assert meta.mc_predict_samples == 16
    assert meta.split.seed == 3
    assert model.inducing_inputs.shape == (16, 8)


def test_ens_model_file_has_single_member(pipeline):
    model, meta = load_model(str(pipeline["ens_model"]))
    assert isinstance(model, EnsembleModel)
    assert len(model.members) == 1
    assert model.dim == 8


def test_train_rerun_produces_identical_files(pipeline, tmp_path):
    model2, trace2 = tmp_path / "gp2.json", tmp_path / "gp2_trace.csv"
    code, _, err = run_cli(pipeline["gp_args"] + [
        "--out-model", str(model2), "--out-trace", str(trace2),
    ])
    assert code == 0, err
    assert model2.read_bytes() == pipeline["gp_model"].read_bytes()
    assert trace2.read_bytes() == pipeline["gp_trace"].read_bytes()


def test_two_epoch_ensemble_predicts_with_its_training_statistics(tmp_path):
    # at this seed, running statistics that kept a share of their initial
    # values (0.9**8 after the 8 steps) took CONSTest accuracy to 0.571
    files = {name: str(tmp_path / name) for name in ("c.csv", "e.txt", "f.csv", "m.json",
                                                     "t.csv", "r.json", "r.csv", "rel.csv")}
    for argv in (
        ["synth", "--n", "2000", "--dim", "16", "--seed", "130",
         "--out-corpus", files["c.csv"], "--out-embeddings", files["e.txt"]],
        ["prepare", "--corpus", files["c.csv"], "--embeddings", files["e.txt"],
         "--out", files["f.csv"]],
        ["train", "--model", "ens", "--epochs", "2", "--features", files["f.csv"],
         "--seed", "130", "--out-model", files["m.json"], "--out-trace", files["t.csv"]],
        ["evaluate", "--model", files["m.json"], "--features", files["f.csv"],
         "--out-json", files["r.json"], "--out-csv", files["r.csv"],
         "--out-reliability", files["rel.csv"]],
    ):
        code, _, err = run_cli(argv)
        assert code == 0, err
    sets = json.loads(pathlib.Path(files["r.json"]).read_text(encoding="utf-8"))["sets"]
    # criterion 5's floors
    assert sets["CONSTest"]["accuracy"] >= 0.85
    assert sets["NegINCONSTest"]["nlpp"] - sets["CONSTest"]["nlpp"] >= 0.02


def test_train_holds_one_copy_of_the_training_rows(tmp_path):
    # the 3200 training rows of a 4000 x 200 matrix (6.4 MB) are moved to
    # its front and the rest freed, so training peaks no higher than the
    # read did (8.5 MB by tracemalloc); copying them out of it peaked at 12.0 MB
    corpus, emb, feats = tmp_path / "c.csv", tmp_path / "e.txt", tmp_path / "f.csv"
    for argv in (["synth", "--n", "4000", "--dim", "200", "--seed", "5",
                  "--out-corpus", str(corpus), "--out-embeddings", str(emb)],
                 ["prepare", "--corpus", str(corpus), "--embeddings", str(emb),
                  "--out", str(feats)]):
        code, _, err = run_cli(argv)
        assert code == 0, err
    _, read_peak = traced_peak(read_features_csv, feats)
    (code, _, err), peak = traced_peak(run_cli, [
        "train", "--model", "ens", "--features", str(feats), "--seed", "5",
        "--members", "1", "--hidden", "4", "--epochs", "1", "--batch-size", "100",
        "--out-model", str(tmp_path / "ens.json"), "--out-trace", str(tmp_path / "t.csv")])
    assert code == 0, err
    assert peak <= read_peak + 1e6


@pytest.mark.parametrize("positions", [[0], [10], [0, 1, 2, 3, 4], [2, 3, 9, 10],
                                       [1, 4, 5, 6, 7, 8, 9, 10], list(range(11))])
def test_moving_rows_to_the_front_gives_the_rows_in_order(positions):
    # rows of 256 KiB, so a 1 MiB block moves 4 of them; the matrix is cut
    # to the rows in place, freeing the rest
    features = np.random.default_rng(len(positions)).normal(size=(11, 1 << 15))
    want = features[positions]
    got = cli._move_to_front(features, np.array(positions, np.intp))
    assert got is features and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_train_rejects_unknown_model(pipeline, tmp_path):
    code, _, err = run_cli([
        "train", "--model", "forest", "--features", str(pipeline["features"]),
        "--out-model", str(tmp_path / "m"), "--out-trace", str(tmp_path / "t"),
        "--seed", "0",
    ])
    assert code == 1
    assert "--model must be gp or ens" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--members", "0", "members must be >= 1"),
    ("--hidden", "0", "hidden_units must be >= 1"),
    ("--epochs", "-1", "epochs must be >= 0"),
    ("--learning-rate", "-1", "learning_rate must be >= 0"),
    ("--learning-rate", "nan", "learning_rate must be finite, got nan"),
    ("--fgsm-eps", "inf", "fgsm_epsilon must be finite, got inf"),
])
def test_train_ens_rejects_bad_config_with_one_line(pipeline, tmp_path, flag, value, message):
    out_model = tmp_path / "m"
    code, _, err = run_cli([
        "train", "--model", "ens", "--features", str(pipeline["features"]),
        "--out-model", str(out_model), "--out-trace", str(tmp_path / "t"),
        "--seed", "0", flag, value,
    ])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not out_model.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", "0", "batch_size and sample counts must be >= 1"),
    ("--inducing", "0", "m (inducing points) must be >= 1"),
    ("--learning-rate", "-1", "learning_rate must be >= 0"),
    ("--epochs", "-1", "epochs must be >= 0"),
    ("--learning-rate", "nan", "learning_rate must be finite, got nan"),
    ("--learning-rate", "inf", "learning_rate must be finite, got inf"),
])
def test_train_gp_rejects_bad_config_with_one_line(pipeline, tmp_path, flag, value, message):
    out_model = tmp_path / "m"
    code, _, err = run_cli(pipeline["gp_args"] + [
        "--out-model", str(out_model), "--out-trace", str(tmp_path / "t"), flag, value,
    ])
    assert code == 1, err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not out_model.exists()


@pytest.mark.parametrize("settings", [
    ["--model", "gp", "--learning-rate", "nan"],
    ["--model", "gp", "--inducing", "0"],
    ["--model", "gp", "--mc-predict", "0"],
    ["--model", "ens", "--members", "0"],
    ["--model", "ens", "--val-fraction", "0.95"],
])
def test_train_checks_the_settings_before_reading_the_features(pipeline, tmp_path, settings):
    # nothing is printed, and a missing feature file is not what is reported
    for features in (pipeline["features"], tmp_path / "absent.csv"):
        code, out, err = run_cli([
            "train", "--features", str(features), "--seed", "0",
            "--out-model", str(tmp_path / "m"), "--out-trace", str(tmp_path / "t"),
        ] + settings)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "absent.csv" not in err


@pytest.mark.parametrize("fractions, message", [
    (["--val-fraction", "0"], "val_fraction must be above 0 and below 1, got 0.0"),
    (["--test-fraction", "1"], "test_fraction must be above 0 and below 1, got 1.0"),
    (["--val-fraction", "0.6", "--test-fraction", "0.5"],
     "val 0.6 + test 0.5 must stay below 1"),
])
def test_train_names_the_split_fraction_check_that_failed(pipeline, tmp_path, fractions,
                                                          message):
    out_model = tmp_path / "m"
    code, out, err = run_cli(pipeline["gp_args"] + [
        "--out-model", str(out_model), "--out-trace", str(tmp_path / "t")] + fractions)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not out_model.exists()


@pytest.mark.parametrize("model", ["gp", "ens"])
def test_train_names_an_empty_test_split(pipeline, tmp_path, model):
    outputs = [tmp_path / "m", tmp_path / "t"]
    code, out, err = run_cli([
        "train", "--features", str(pipeline["features"]), "--seed", "3",
        "--test-fraction", "0.001", "--out-model", str(outputs[0]),
        "--out-trace", str(outputs[1]),
    ] + TINY_TRAIN[model])
    assert (code, out) == (1, "")
    assert err == "error: test fraction 0.001 of 400 rows leaves the test split empty\n"
    assert not any(path.exists() for path in outputs)


def test_evaluate_names_an_empty_test_split(pipeline, tmp_path):
    payload = json.loads(pipeline["gp_model"].read_text(encoding="utf-8"))
    payload["split"]["test_fraction"] = 0.001
    model = tmp_path / "m.json"
    model.write_text(json.dumps(payload), encoding="utf-8")
    outputs = [tmp_path / "e.json", tmp_path / "e.csv", tmp_path / "r.csv"]
    code, out, err = run_cli([
        "evaluate", "--model", str(model), "--features", str(pipeline["features"]),
        "--out-json", str(outputs[0]), "--out-csv", str(outputs[1]),
        "--out-reliability", str(outputs[2]),
    ])
    assert (code, out) == (1, "")
    assert err == "error: test fraction 0.001 of 400 rows leaves the test split empty\n"
    assert not any(path.exists() for path in outputs)


# small settings that train each model family in well under a second
TINY_TRAIN = {
    "gp": ["--model", "gp", "--inducing", "8", "--mc-train", "2"],
    "ens": ["--model", "ens", "--members", "1", "--hidden", "8", "--batch-size", "128"],
}


@pytest.mark.parametrize("model, config", [("gp", "TrainConfig"), ("ens", "EnsembleConfig")])
def test_train_sets_every_config_field_from_a_flag(pipeline, tmp_path, monkeypatch,
                                                   model, config):
    # a field that no flag sets has one value in use, so it belongs in a
    # module constant next to the code that reads it
    module = cli.svgp_mod if model == "gp" else cli.ens_mod
    base = getattr(module, config)
    keywords = []

    class Recording(base):
        def __init__(self, **kwargs):
            keywords.append(set(kwargs))
            super().__init__(**kwargs)

    monkeypatch.setattr(module, config, Recording)
    code, _, err = run_cli([
        "train", "--features", str(pipeline["features"]), "--seed", "0", "--epochs", "1",
        "--out-model", str(tmp_path / "m"), "--out-trace", str(tmp_path / "t"),
    ] + TINY_TRAIN[model])
    assert code == 0, err
    assert keywords == [{f.name for f in dataclasses.fields(base)}]


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_train_ens_diverging_in_worker_threads_exits_1(pipeline, tmp_path, two_workers):
    out_model = tmp_path / "m"
    code, _, err = run_cli([
        "train", "--model", "ens", "--features", str(pipeline["features"]),
        "--out-model", str(out_model), "--out-trace", str(tmp_path / "t"),
        "--seed", "0", "--members", "3", "--hidden", "16", "--epochs", "1",
        "--batch-size", "128", "--learning-rate", "1e300",
    ])
    assert code == 1, err
    assert err.startswith("error: non-finite objective") and err.count("\n") == 1
    assert not out_model.exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_train_gp_diverging_exits_1(pipeline, tmp_path):
    out_model = tmp_path / "m"
    code, _, err = run_cli(pipeline["gp_args"] + [
        "--out-model", str(out_model), "--out-trace", str(tmp_path / "t"),
        "--learning-rate", "1e300",
    ])
    assert code == 1, err
    assert err.startswith("error: non-finite objective") and err.count("\n") == 1
    assert not out_model.exists()


def _feature_file(tmp_path, rows):
    path = tmp_path / "features.csv"
    path.write_text("id,label,secondary_label,f0,f1\n" + "".join(rows), encoding="utf-8")
    return path


@pytest.mark.parametrize("bad_row, message", [
    ("r1,positive,,0.5,abc\n", "line 3: non-numeric feature value"),
    ("r1,positive,,nan,0.5\n", "line 3: non-finite feature value in row 'r1'"),
], ids=["non-numeric", "nan"])
def test_train_rejects_bad_feature_values(tmp_path, bad_row, message):
    path = _feature_file(tmp_path, ["r0,negative,,0.5,0.7\n", bad_row])
    code, _, err = run_cli([
        "train", "--model", "gp", "--features", str(path),
        "--out-model", str(tmp_path / "m"), "--out-trace", str(tmp_path / "t"),
        "--seed", "0",
    ])
    assert code == 1, err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{path} {message}" in err


@pytest.mark.parametrize("model", ["gp", "ens"])
def test_train_names_a_row_without_a_secondary_label(toy_dir, tmp_path, model):
    # the toy corpus's r3 has no secondary label
    feats = toy_dir / "features.csv"
    assert run_cli(["prepare", "--corpus", str(toy_dir / "corpus.csv"),
                    "--embeddings", str(toy_dir / "emb.txt"), "--out", str(feats)])[0] == 0
    outputs = [tmp_path / "m", tmp_path / "t"]
    code, out, err = run_cli([
        "train", "--features", str(feats), "--seed", "0",
        "--out-model", str(outputs[0]), "--out-trace", str(outputs[1]),
    ] + TINY_TRAIN[model])
    assert (code, out) == (1, "")
    assert err == ("error: row 'r3' has no secondary label, and the agreement split "
                   "needs one on every row\n")
    assert not any(path.exists() for path in outputs)


def test_evaluate_names_a_row_without_a_secondary_label(pipeline, tmp_path):
    header = "id,label,secondary_label," + ",".join(f"f{i}" for i in range(8)) + "\n"
    zeros = ",0" * 8 + "\n"
    feats = tmp_path / "features.csv"
    feats.write_text(header + "a,negative,negative" + zeros + "b,positive," + zeros,
                     encoding="utf-8")
    code, out, err = run_cli([
        "evaluate", "--model", str(pipeline["gp_model"]), "--features", str(feats),
        "--out-json", str(tmp_path / "e.json"), "--out-csv", str(tmp_path / "e.csv"),
        "--out-reliability", str(tmp_path / "r.csv"),
    ])
    assert (code, out) == (1, "")
    assert err == ("error: row 'b' has no secondary label, and the agreement split "
                   "needs one on every row\n")


@pytest.mark.parametrize("model", ["gp", "ens"])
def test_evaluate_names_a_feature_width_the_model_does_not_take(pipeline, tmp_path, model):
    # the pipeline's models take 8 features per row
    feats = _feature_file(tmp_path, ["r0,negative,negative,0.5,0.7\n"])
    outputs = [tmp_path / "e.json", tmp_path / "e.csv", tmp_path / "r.csv"]
    code, out, err = run_cli([
        "evaluate", "--model", str(pipeline[f"{model}_model"]), "--features", str(feats),
        "--out-json", str(outputs[0]), "--out-csv", str(outputs[1]),
        "--out-reliability", str(outputs[2]),
    ])
    assert (code, out) == (1, "")
    assert err == f"error: {feats} has 2 features per row, but the model takes 8\n"
    assert not any(path.exists() for path in outputs)


def _without_split(text):
    payload = json.loads(text)
    del payload["split"]
    return json.dumps(payload)


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[: len(text) // 2], "not a JSON model file"),
    (lambda text: "[" * 100_000, "not a JSON model file"),
    (_without_split, "missing key 'split'"),
    (lambda text: text.replace('"textuq-model-v2"', '"textuq-model-v1"'),
     "a textuq-model-v1 file, which this version no longer reads; "
     "train the model again to write textuq-model-v2"),
], ids=["not-json", "nested-too-deep", "no-split", "v1"])
def test_evaluate_rejects_broken_model_file(pipeline, tmp_path, corrupt, message):
    model = tmp_path / "broken.json"
    model.write_text(corrupt(pipeline["ens_model"].read_text(encoding="utf-8")),
                     encoding="utf-8")
    code, _, err = run_cli([
        "evaluate", "--model", str(model), "--features", str(pipeline["features"]),
        "--out-json", str(tmp_path / "j"), "--out-csv", str(tmp_path / "c"),
        "--out-reliability", str(tmp_path / "r"),
    ])
    assert code == 1, err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{model}: {message}" in err


def _setting(path, value):
    """A model-file corruption that replaces the entry at ``path``; a callable
    value maps the old entry to the new one."""
    def corrupt(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return corrupt


def _array_edit(path, edit):
    """A model-file corruption that decodes the array at ``path``, maps it
    through ``edit`` and stores the result encoded again."""
    return _setting(path, lambda obj: encode_array(edit(decode_array(obj))))


def _with_entry(flat_index, value):
    def edit(arr):
        arr.flat[flat_index] = value
        return arr
    return edit


def _second_member_of_width(width):
    """A model-file corruption that appends a copy of member 0 whose first
    weight matrix keeps only its first ``width`` input rows."""
    def corrupt(payload):
        members = payload["ens"]["members"]
        other = json.loads(json.dumps(members[0]))
        other["weights"][0] = encode_array(decode_array(other["weights"][0])[:width])
        members.append(other)
    return corrupt


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("model_key, corrupt, message", [
    ("gp_model", _array_edit(("gp", "variational_means"), lambda v: v[:, :-1]),
     "variational_means has shape (3, 15), expected (3, 16)"),
    ("gp_model", _array_edit(("gp", "variational_scales_raw"), lambda v: v[:2]),
     "variational_scales_raw has shape (2, 16, 16), expected (3, 16, 16)"),
    ("gp_model", _setting(("gp", "log_variance"), "0.5"),
     "log_variance must be a finite number, got '0.5'"),
    ("gp_model", _setting(("gp", "jitter"), -1), "jitter must be a positive number, got -1"),
    ("gp_model", _setting(("predict", "mc_samples"), 0),
     "predict.mc_samples must be an integer >= 1, got 0"),
    ("gp_model", _setting(("split", "seed"), -3), "seed must be an integer >= 0, got -3"),
    ("ens_model", _setting(("ens", "members", 0, "weights"), lambda v: v[:3]),
     "member 0 must have 4 weights and biases"),
    ("ens_model", _setting(("ens", "members"), []), "the ensemble has no members"),
    ("ens_model", _array_edit(("ens", "members", 0, "bn_running_var", 1), _with_entry(2, -1e-3)),
     "member 0 bn_running_var must be >= 0"),
    ("gp_model", _setting(("gp", "variational_means", "data"), lambda d: d[:8] + "*" + d[8:]),
     "variational_means data must be a base64 string"),
    ("gp_model", _setting(("gp", "log_lengthscales", "data"), lambda d: d[:-4]),
     "log_lengthscales data holds 63 bytes, but shape (8,) needs 64"),
    ("gp_model", _setting(("gp", "log_lengthscales", "shape"), [8.0]),
     "log_lengthscales has shape (8.0,), expected (8,)"),
    ("ens_model", _array_edit(("ens", "members", 0, "weights", 0), _with_entry(5, np.nan)),
     "member 0 weights[0] must hold finite numbers"),
    ("ens_model", _second_member_of_width(7),
     "member 1 weights[0] has shape (7, 16), expected (8, None)"),
    ("gp_model", _setting(("gp", "log_lengthscales"), lambda obj: decode_array(obj).tolist()),
     "log_lengthscales must be an object with keys data and shape"),
], ids=["gp-means-short", "gp-scales-two-classes", "gp-string-log-variance",
        "gp-negative-jitter", "zero-mc-samples", "negative-split-seed", "ens-three-weights",
        "ens-no-members", "ens-negative-running-var", "gp-invalid-base64",
        "gp-bytes-short-of-shape", "gp-float-in-shape", "ens-nan-weight",
        "ens-member-of-another-width", "gp-array-as-list"])
def test_evaluate_rejects_inconsistent_model_file(pipeline, tmp_path, model_key, corrupt,
                                                  message):
    payload = json.loads(pipeline[model_key].read_text(encoding="utf-8"))
    corrupt(payload)
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(payload), encoding="utf-8")
    outs = [tmp_path / "j", tmp_path / "c", tmp_path / "r"]
    code, _, err = run_cli([
        "evaluate", "--model", str(model), "--features", str(pipeline["features"]),
        "--out-json", str(outs[0]), "--out-csv", str(outs[1]), "--out-reliability", str(outs[2]),
    ])
    assert code == 1, err
    assert err.startswith(f"error: {model}: malformed model file") and err.count("\n") == 1
    assert message in err
    assert not any(p.exists() for p in outs)


def _model_leaves(obj):
    """Every number and array a model holds, in field order."""
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in _model_leaves(getattr(obj, f.name))]
    if isinstance(obj, list):
        return [x for item in obj for x in _model_leaves(item)]
    return [np.asarray(obj)]


@pytest.mark.parametrize("family", ["gp", "ens"])
def test_a_file_with_the_keys_earlier_versions_wrote_loads_and_scores_the_same(
        pipeline, tmp_path, family):
    # an earlier version also stored the GP's class count and a prediction
    # seed (the split seed for a GP, 0 for an ensemble), and the ensemble's
    # FGSM step, feature scale and per-member batch-norm epsilon
    payload = json.loads(pipeline[f"{family}_model"].read_text(encoding="ascii"))
    if family == "gp":
        payload["predict"]["seed"] = payload["split"]["seed"]
        payload["gp"]["num_classes"] = 3
    else:
        payload["predict"]["seed"] = 0
        payload["ens"]["fgsm_epsilon"] = 0.01
        payload["ens"]["feature_scale"] = encode_array(np.full(8, 0.25))
        for member in payload["ens"]["members"]:
            member["bn_epsilon"] = 1e-05
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="ascii")

    (want, want_meta), (got, got_meta) = load_model(pipeline[f"{family}_model"]), load_model(old)
    assert got_meta == want_meta
    want_leaves, got_leaves = _model_leaves(want), _model_leaves(got)
    assert len(got_leaves) == len(want_leaves)
    for a, b in zip(want_leaves, got_leaves):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    outs = [tmp_path / "j", tmp_path / "c", tmp_path / "r"]
    code, out, err = run_cli([
        "evaluate", "--model", str(old), "--features", str(pipeline["features"]),
        "--out-json", str(outs[0]), "--out-csv", str(outs[1]), "--out-reliability", str(outs[2]),
    ])
    assert code == 0, err
    for got_file, key in zip(outs, ("json", "csv", "rel")):
        assert got_file.read_bytes() == pipeline[f"{family}_{key}"].read_bytes()
    # every line but the last, which names the output files
    assert out.splitlines()[:-1] == pipeline["stdout"][f"evaluate_{family}"].splitlines()[:-1]


@pytest.mark.parametrize("command", ["synth", "gp", "ens"])
def test_negative_seed_exits_1_before_reading_inputs(tmp_path, command):
    outs = [tmp_path / "a", tmp_path / "b"]
    if command == "synth":
        argv = ["synth", "--n", "10", "--out-corpus", str(outs[0]),
                "--out-embeddings", str(outs[1])]
    else:  # the feature file does not exist: the seed is checked first
        argv = ["train", "--model", command, "--features", str(tmp_path / "absent.csv"),
                "--out-model", str(outs[0]), "--out-trace", str(outs[1])]
    code, _, err = run_cli(argv + ["--seed", "-1"])
    assert code == 1, err
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert not any(p.exists() for p in outs)


def test_train_missing_features_file_exits_1(tmp_path):
    missing = tmp_path / "absent.csv"
    code, _, err = run_cli([
        "train", "--model", "gp", "--features", str(missing),
        "--out-model", str(tmp_path / "m"), "--out-trace", str(tmp_path / "t"),
        "--seed", "0",
    ])
    assert code == 1
    assert str(missing) in err


def test_evaluate_reports_three_test_views(pipeline):
    payload = json.loads(pipeline["gp_json"].read_text(encoding="utf-8"))
    assert set(payload["sets"]) == {"CONSTest", "NegINCONSTest", "CheXINCONSTest"}
    sizes = {block["size"] for block in payload["sets"].values()}
    assert len(sizes) == 1  # the three views are size-matched
    for block in payload["sets"].values():
        assert block["size"] >= 1
        assert set(block["groups"]) == {
            "FN_positive", "TP_positive", "FN_uncertain", "TP_uncertain",
        }


def test_evaluate_csv_and_reliability_schemas(pipeline):
    csv_lines = pipeline["gp_csv"].read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "test_set,metric,value"
    assert any(line.startswith("CONSTest,accuracy,") for line in csv_lines)
    rel_lines = pipeline["gp_rel"].read_text(encoding="utf-8").splitlines()
    assert rel_lines[0] == "bin_low,bin_high,mean_predicted,fraction_positive,count"
    assert len(rel_lines) == 11


def test_evaluate_prints_per_set_summary(pipeline):
    out = pipeline["stdout"]["evaluate_gp"]
    for name in ("CONSTest", "CheXINCONSTest", "NegINCONSTest"):
        assert f"{name}: accuracy " in out
    assert ", nlpp " in out and ", mmpcl " in out


def test_evaluate_rerun_produces_identical_reports(pipeline, tmp_path):
    out_json, out_csv = tmp_path / "m.json", tmp_path / "m.csv"
    out_rel = tmp_path / "r.csv"
    code, _, err = run_cli(pipeline["gp_eval_args"] + [
        "--out-json", str(out_json), "--out-csv", str(out_csv),
        "--out-reliability", str(out_rel),
    ])
    assert code == 0, err
    assert out_json.read_bytes() == pipeline["gp_json"].read_bytes()
    assert out_csv.read_bytes() == pipeline["gp_csv"].read_bytes()
    assert out_rel.read_bytes() == pipeline["gp_rel"].read_bytes()


@pytest.mark.parametrize("calibrate", [False, True])
@pytest.mark.parametrize("model", ["gp", "ens"])
def test_evaluate_predicts_each_feature_matrix_once(pipeline, tmp_path, monkeypatch, model,
                                                   calibrate):
    # NegINCONSTest and CheXINCONSTest share one feature array; --calibrate
    # also predicts the validation rows
    name = "predict_proba" if model == "gp" else "ensemble_predict"
    module = cli.svgp_mod if model == "gp" else cli.ens_mod
    predict, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return predict(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    outs = [tmp_path / "m.json", tmp_path / "m.csv", tmp_path / "r.csv"]
    code, _, err = run_cli([
        "evaluate", "--model", str(pipeline[f"{model}_model"]),
        "--features", str(pipeline["features"]), "--out-json", str(outs[0]),
        "--out-csv", str(outs[1]), "--out-reliability", str(outs[2]),
    ] + (["--calibrate"] if calibrate else []))
    assert code == 0, err
    assert len(calls) == (3 if calibrate else 2)
    if not calibrate:
        assert [p.read_bytes() for p in outs] == [
            pipeline[f"{model}_{kind}"].read_bytes() for kind in ("json", "csv", "rel")]


def test_evaluate_with_calibration_flag(pipeline, tmp_path):
    out_json, out_csv = tmp_path / "m.json", tmp_path / "m.csv"
    code, _, err = run_cli(pipeline["gp_eval_args"] + [
        "--calibrate",
        "--out-json", str(out_json), "--out-csv", str(out_csv),
        "--out-reliability", str(tmp_path / "r.csv"),
    ])
    assert code == 0, err
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert set(payload["sets"]) == {"CONSTest", "NegINCONSTest", "CheXINCONSTest"}


@pytest.mark.parametrize("model", ["gp", "ens"])
def test_evaluate_calibrate_with_an_empty_validation_split_exits_1(
        pipeline, tmp_path, monkeypatch, model):
    model_path = tmp_path / "m.json"
    code, out, err = run_cli([
        "train", "--features", str(pipeline["features"]), "--seed", "3", "--epochs", "1",
        "--val-fraction", "0.001", "--out-model", str(model_path),
        "--out-trace", str(tmp_path / "t"),
    ] + TINY_TRAIN[model])
    assert code == 0, err
    assert ", val 0," in out

    def no_prediction(*args, **kwargs):
        raise AssertionError("predicted before the split was checked")

    monkeypatch.setattr(cli.svgp_mod, "predict_proba", no_prediction)
    monkeypatch.setattr(cli.ens_mod, "ensemble_predict", no_prediction)
    outputs = [tmp_path / "e.json", tmp_path / "e.csv", tmp_path / "r.csv"]
    code, out, err = run_cli([
        "evaluate", "--model", str(model_path), "--features", str(pipeline["features"]),
        "--calibrate", "--out-json", str(outputs[0]), "--out-csv", str(outputs[1]),
        "--out-reliability", str(outputs[2]),
    ])
    assert (code, out) == (1, "")
    assert err == "error: --calibrate needs a non-empty validation split\n"
    assert not any(path.exists() for path in outputs)


def test_evaluate_absent_as_zero_fills_group_rows(pipeline, tmp_path):
    out_csv = tmp_path / "m.csv"
    code, _, err = run_cli(pipeline["gp_eval_args"] + [
        "--absent-as-zero",
        "--out-json", str(tmp_path / "m.json"), "--out-csv", str(out_csv),
        "--out-reliability", str(tmp_path / "r.csv"),
    ])
    assert code == 0, err
    # with the flag no value field may be left empty
    for line in out_csv.read_text(encoding="utf-8").splitlines()[1:]:
        assert not line.endswith(",")


def test_commands_do_not_mutate_inputs(pipeline):
    assert pipeline["corpus"].read_bytes() == pipeline["input_bytes"][0]
    assert pipeline["embeddings"].read_bytes() == pipeline["input_bytes"][1]
    assert pipeline["features"].read_bytes() == pipeline["features_bytes"]


def test_zero_disagreement_evaluate_refuses(tmp_path):
    """A fully consistent corpus trains fine but cannot build the views."""
    corpus, emb, feats = tmp_path / "c.csv", tmp_path / "e.txt", tmp_path / "f.csv"
    model, trace = tmp_path / "m.json", tmp_path / "t.csv"
    assert run_cli([
        "synth", "--n", "200", "--disagreement", "0", "--seed", "2",
        "--dim", "4", "--out-corpus", str(corpus), "--out-embeddings", str(emb),
    ])[0] == 0
    assert run_cli([
        "prepare", "--corpus", str(corpus), "--embeddings", str(emb),
        "--out", str(feats),
    ])[0] == 0
    assert run_cli([
        "train", "--model", "gp", "--features", str(feats),
        "--out-model", str(model), "--out-trace", str(trace),
        "--seed", "2", "--inducing", "8", "--epochs", "1",
        "--batch-size", "100", "--mc-train", "2", "--mc-predict", "4",
    ])[0] == 0
    code, _, err = run_cli([
        "evaluate", "--model", str(model), "--features", str(feats),
        "--out-json", str(tmp_path / "m.jsonl"),
        "--out-csv", str(tmp_path / "m.csv"),
        "--out-reliability", str(tmp_path / "r.csv"),
    ])
    assert code == 1
    assert "no labeller-disagreement" in err


# ---- report -------------------------------------------------------------


def test_report_renders_svg(pipeline):
    text = pipeline["svg"].read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert "<polyline" in text and "<circle" in text
    assert "mean predicted" in text and "fraction positive" in text


def test_report_rerun_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "again.svg"
    code, _, err = run_cli([
        "report", "--reliability", str(pipeline["gp_rel"]), "--out", str(out),
    ])
    assert code == 0, err
    assert out.read_bytes() == pipeline["svg"].read_bytes()


def test_report_missing_input_exits_1(tmp_path):
    code, _, err = run_cli([
        "report", "--reliability", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "o.svg"),
    ])
    assert code == 1
    assert "absent.csv" in err


# ---- malformed input files --------------------------------------------------


def _one_error_line(code, err, expected):
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def _reliability_csv(tmp_path, rows):
    path = tmp_path / "rel.csv"
    path.write_text("bin_low,bin_high,mean_predicted,fraction_positive,count\n"
                    + "".join(rows), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, lineno", [
    ("corpus.csv", 4), ("emb.txt", 3), ("features.csv", 3), ("config.txt", 2), ("rel.csv", 2),
])
def test_non_utf8_input_exits_1_with_one_line(toy_dir, name, lineno):
    feats = toy_dir / "features.csv"
    assert run_cli(["prepare", "--corpus", str(toy_dir / "corpus.csv"),
                    "--embeddings", str(toy_dir / "emb.txt"), "--out", str(feats)])[0] == 0
    (toy_dir / "config.txt").write_text("# options\n# none\n", encoding="utf-8")
    _reliability_csv(toy_dir, ["0,0.5,,,0\n", "0.5,1,0.75,1,2\n"])
    path = toy_dir / name
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    path.write_bytes(b"\n".join(lines))
    prepare = ["prepare", "--corpus", str(toy_dir / "corpus.csv"),
               "--embeddings", str(toy_dir / "emb.txt"), "--out", str(toy_dir / "f2.csv")]
    argv = {
        "corpus.csv": prepare,
        "emb.txt": prepare,
        "config.txt": prepare + ["--config", str(path)],
        "features.csv": ["train", "--model", "gp", "--features", str(feats), "--seed", "0",
                         "--out-model", str(toy_dir / "m"), "--out-trace", str(toy_dir / "t")],
        "rel.csv": ["report", "--reliability", str(path), "--out", str(toy_dir / "o.svg")],
    }[name]
    code, out, err = run_cli(argv)
    _one_error_line(code, err, f"{path} line {lineno}: not UTF-8 text (invalid start byte)")
    assert out == ""
    assert not any((toy_dir / f).exists() for f in ("f2.csv", "m", "t", "o.svg"))


@pytest.mark.parametrize("rows, message", [
    (["0,0.5,,,0\n", "0.5,1,0.75\n"], "line 3: expected 5 fields, got 3"),
    (["0,0.5,abc,,0\n", "0.5,1,0.75,1,2\n"], "line 2: non-numeric value"),
    (["0,0.5,nan,inf,3\n", "0.5,1,0.75,1,2\n"], "line 2: non-finite value or negative count"),
], ids=["three-fields", "non-numeric", "non-finite"])
def test_report_rejects_a_malformed_reliability_csv(tmp_path, rows, message):
    path = _reliability_csv(tmp_path, rows)
    code, _, err = run_cli(["report", "--reliability", str(path),
                            "--out", str(tmp_path / "o.svg")])
    _one_error_line(code, err, f"{path}: {message}")
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_prepare_rejects_non_finite_embeddings(toy_dir, value):
    emb = toy_dir / "emb.txt"
    emb.write_text(TOY_EMBEDDINGS.replace("mild 0.5 0.5", f"mild 0.5 {value}"),
                   encoding="utf-8")
    code, _, err = run_cli([
        "prepare", "--corpus", str(toy_dir / "corpus.csv"),
        "--embeddings", str(emb), "--out", str(toy_dir / "f.csv"),
    ])
    _one_error_line(code, err, f"{emb} line 4: non-finite vector entry")
    assert not (toy_dir / "f.csv").exists()


# ---- output paths -------------------------------------------------------------


@pytest.mark.parametrize("argv, flag, other", [
    (["synth", "--n", "10", "--seed", "0", "--out-corpus", "c.csv",
      "--out-embeddings", "c.csv"], "--out-embeddings c.csv", "--out-corpus"),
    (["prepare", "--corpus", "c.csv", "--embeddings", "e.txt", "--out", "sub/../c.csv"],
     "--out sub/../c.csv", "--corpus"),
    (["train", "--model", "gp", "--seed", "0", "--features", "f.csv", "--out-model", "m",
      "--out-trace", "f.csv"], "--out-trace f.csv", "--features"),
    (["train", "--model", "ens", "--seed", "0", "--features", "f.csv",
      "--out-model", "f.csv", "--out-trace", "f.csv"], "--out-model f.csv", "--features"),
    (["evaluate", "--model", "m", "--features", "f.csv", "--out-json", "r.json",
      "--out-csv", "r.json", "--out-reliability", "rel.csv"], "--out-csv r.json",
     "--out-json"),
    (["report", "--reliability", "rel.csv", "--out", "link.svg"], "--out link.svg",
     "--reliability"),
    (["report", "--config", "cfg.txt", "--reliability", "rel.csv", "--out", "cfg.txt"],
     "--out cfg.txt", "--config"),
])
def test_refuses_an_output_that_would_overwrite_another_file(tmp_path, monkeypatch, argv,
                                                             flag, other):
    # every named file holds bytes that no command could read: the paths are
    # checked before anything but the config file is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("c.csv", "e.txt", "f.csv", "m", "rel.csv"):
        (tmp_path / name).write_bytes(b"keep")
    (tmp_path / "cfg.txt").write_bytes(b"# keep")
    (tmp_path / "link.svg").symlink_to(tmp_path / "rel.csv")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} is the same file as {other}\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("fail", [False, True])
def test_prepare_leaves_an_existing_temp_name_alone(pipeline, tmp_path, monkeypatch, fail):
    # a user's file with the writer's first temp name is neither read, written
    # nor removed; the output still gets 0o666 less the umask
    user = tmp_path / "features.csv.tmp"
    user.write_bytes(b"keep")
    if fail:
        def failing(path, table):
            pathlib.Path(path).write_text("partial", encoding="utf-8")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.corpus_mod, "write_features_csv", failing)
    out = tmp_path / "features.csv"
    umask = os.umask(0o027)
    try:
        code, _, err = run_cli(["prepare", "--corpus", str(pipeline["corpus"]),
                                "--embeddings", str(pipeline["embeddings"]), "--out", str(out)])
    finally:
        os.umask(umask)
    assert user.read_bytes() == b"keep"
    if fail:
        _one_error_line(code, err, "No space left on device")
        assert os.listdir(tmp_path) == [user.name]
    else:
        assert code == 0, err
        assert sorted(os.listdir(tmp_path)) == [out.name, user.name]
        assert out.read_bytes() == pipeline["features_bytes"]
        assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("message", ["", "Unable to allocate 15.6 GiB for an array"])
@pytest.mark.parametrize("command", ["prepare", "train"])
def test_out_of_memory_exits_1_with_one_line(pipeline, tmp_path, monkeypatch, two_workers,
                                             command, message):
    # raised by a stand-in, never by a real allocation: in prepare while the
    # output is half written, in train from an ensemble member's thread
    if command == "prepare":
        def out_of_memory(path, table):
            pathlib.Path(path).write_text("partial", encoding="utf-8")
            raise MemoryError(message)

        monkeypatch.setattr(cli.corpus_mod, "write_features_csv", out_of_memory)
        argv = ["prepare", "--corpus", str(pipeline["corpus"]),
                "--embeddings", str(pipeline["embeddings"]),
                "--out", str(tmp_path / "features.csv")]
    else:
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.ens_mod, "fit_member", out_of_memory)
        argv = ["train", "--model", "ens", "--features", str(pipeline["features"]),
                "--seed", "0", "--out-model", str(tmp_path / "m.json"),
                "--out-trace", str(tmp_path / "trace.csv")]
    code, _, err = run_cli(argv)
    _one_error_line(code, err, "error: out of memory" + (f". {message}" if message else "."))
    assert os.listdir(tmp_path) == []


# ---- exit-code contract ---------------------------------------------------


def test_internal_failure_exits_2(toy_dir, monkeypatch):
    def boom(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.corpus_mod, "read_corpus_csv", boom)
    code, out, err = run_cli([
        "prepare", "--corpus", str(toy_dir / "corpus.csv"),
        "--embeddings", str(toy_dir / "emb.txt"),
        "--out", str(toy_dir / "f.csv"),
    ])
    assert code == 2
    assert "Traceback" in err and "boom" in err


def test_nothing_forks(tmp_path, monkeypatch):
    # with os.fork refusing and two CPUs usable, a feature CSV of more than
    # 8 MiB is written and read back, and prepare, train and evaluate run
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    big = tmp_path / "big.csv"
    table = table_with_repeats(2200, 2200, 200, seed=12)
    write_features_csv(big, table)
    assert big.stat().st_size > 8 << 20
    back = read_features_csv(big)
    assert back.ids.tolist() == table.ids.tolist()
    assert back.features.tobytes() == table.features.tobytes()

    corpus, emb, feats = tmp_path / "c.csv", tmp_path / "e.txt", tmp_path / "f.csv"
    steps = [
        ["synth", "--n", "600", "--disagreement", "0.08", "--seed", "11",
         "--dim", "16", "--out-corpus", str(corpus), "--out-embeddings", str(emb)],
        ["prepare", "--corpus", str(corpus), "--embeddings", str(emb), "--out", str(feats)],
        ["train", "--model", "gp", "--features", str(feats), "--seed", "11",
         "--inducing", "8", "--epochs", "1", "--mc-train", "2", "--mc-predict", "4",
         "--out-model", str(tmp_path / "gp.json"),
         "--out-trace", str(tmp_path / "gp_trace.csv")],
        ["train", "--model", "ens", "--features", str(feats), "--seed", "11",
         "--members", "2", "--hidden", "8", "--epochs", "1", "--batch-size", "128",
         "--out-model", str(tmp_path / "ens.json"),
         "--out-trace", str(tmp_path / "ens_trace.csv")],
    ] + [
        ["evaluate", "--model", str(tmp_path / f"{model}.json"), "--features", str(feats),
         "--out-json", str(tmp_path / "rep.json"), "--out-csv", str(tmp_path / "rep.csv"),
         "--out-reliability", str(tmp_path / "rel.csv")] + calibrate
        for model in ("gp", "ens") for calibrate in ([], ["--calibrate"])
    ]
    for argv in steps:
        code, _, err = run_cli(argv)
        assert code == 0, err


def test_pipeline_runs_without_scipy(tmp_path):
    # numpy is the only run-time dependency: with scipy unimportable, every
    # command of the small criterion-7 pipeline, gp and ens, still succeeds
    corpus, emb, feats = tmp_path / "c.csv", tmp_path / "e.txt", tmp_path / "f.csv"
    gp_eval = ["evaluate", "--model", str(tmp_path / "gp.json"), "--features", str(feats),
               "--out-csv", str(tmp_path / "rep.csv"),
               "--out-reliability", str(tmp_path / "rel.csv")]
    steps = [
        ["synth", "--n", "600", "--disagreement", "0.08", "--seed", "11",
         "--dim", "16", "--out-corpus", str(corpus), "--out-embeddings", str(emb)],
        ["prepare", "--corpus", str(corpus), "--embeddings", str(emb), "--out", str(feats)],
        ["train", "--model", "gp", "--features", str(feats), "--seed", "11",
         "--inducing", "24", "--epochs", "2", "--mc-train", "4", "--mc-predict", "16",
         "--out-model", str(tmp_path / "gp.json"),
         "--out-trace", str(tmp_path / "gp_trace.csv")],
        ["train", "--model", "ens", "--features", str(feats), "--seed", "11",
         "--members", "2", "--hidden", "16", "--epochs", "2", "--batch-size", "128",
         "--out-model", str(tmp_path / "ens.json"),
         "--out-trace", str(tmp_path / "ens_trace.csv")],
        gp_eval + ["--out-json", str(tmp_path / "rep.json")],
        gp_eval + ["--out-json", str(tmp_path / "cal.json"), "--calibrate"],
        ["report", "--reliability", str(tmp_path / "rel.csv"),
         "--out", str(tmp_path / "rel.svg")],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from textuq import cli\n"
        f"codes = [cli.main(argv) for argv in {steps!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(steps)} ['scipy']"
    assert (tmp_path / "rel.svg").read_text(encoding="utf-8").startswith("<svg ")


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]] == ["numpy"]


def test_module_invocation_without_args():
    proc = subprocess.run(
        [sys.executable, "-m", "textuq"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
