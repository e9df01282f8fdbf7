"""Tests of the benchmark itself: span arithmetic, metric names, wrapper
removal, and a small-corpus run of every workload chain.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import tracing  # noqa: E402

SMALL = pipeline.Scale(n=2000, dim=16)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_on_hand_built_tree():
    # cli.train [0, 10] holds svgp.fit [1, 7] and corpus.read_features_csv
    # [7.5, 9.5]; fit holds two kernel_matrix calls, [2, 3] and [4, 6.5]
    spans = [
        ["cli.train", 0.0, 10.0, None, 0],
        ["svgp.fit", 1.0, 7.0, 0, 0],
        ["kernel.kernel_matrix", 2.0, 3.0, 1, 0],
        ["kernel.kernel_matrix", 4.0, 6.5, 1, 0],
        ["corpus.read_features_csv", 7.5, 9.5, 0, 0],
    ]
    assert tracing.self_times(spans) == [2.0, 2.5, 1.0, 2.5, 2.0]

    counts = dict.fromkeys(tracing.COUNTS, 0)
    counts["svgp.steps"] = 4
    m = tracing.layer_metrics(spans, counts)
    assert m["cli.train.s"] == (10.0, "s") and m["cli.train.self_s"] == (2.0, "s")
    assert m["svgp.fit.self_s"] == (2.5, "s")
    assert m["kernel.kernel_matrix.s"] == (3.5, "s")
    assert m["kernel.kernel_matrix.calls"] == (2, "count")
    assert m["kernel.self_s"] == (3.5, "s") and m["corpus.self_s"] == (2.0, "s")
    assert m["ensemble.fit_member.calls"] == (0, "count")
    assert m["svgp.step_ms"] == (1500.0, "ms")
    # self times partition the root span
    layer_total = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert layer_total == pytest.approx(10.0)


def test_benchmark_json_names_are_valid_and_unique():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(pipeline.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_recorder_restores_functions_after_an_error():
    import textuq.svgp

    original = textuq.svgp.kernel_matrix
    recorder = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with recorder.installed():
            assert textuq.svgp.kernel_matrix is not original
            raise RuntimeError("boom")
    assert textuq.svgp.kernel_matrix is original


def _wrapped_attributes():
    return [f"{name}.{attr}" for name, mod in list(sys.modules.items())
            if name == "textuq" or name.startswith("textuq.")
            for attr, value in vars(mod).items() if hasattr(value, "__span_name__")]


def _by_name_bindings():
    import textuq.cli
    import textuq.svgp

    return {
        "svgp.kernel_matrix": textuq.svgp.kernel_matrix,
        "svgp.cholesky_with_jitter": textuq.svgp.cholesky_with_jitter,
        "cli.calibrate_probs": textuq.cli.calibrate_probs,
        "cli.save_model": textuq.cli.save_model,
        "cli.load_model": textuq.cli.load_model,
    }


def test_traced_run_records_by_name_calls_and_removes_wrappers(tmp_path):
    before = _by_name_bindings()
    metrics, ledger, recorder, _ = pipeline.trace_run(
        pipeline.WORKLOADS["gp-io"], 5, tmp_path, ROOT, time.monotonic() + 170, SMALL)
    assert ledger.failures == [] and metrics is not None
    assert _wrapped_attributes() == []
    after = _by_name_bindings()
    assert all(after[k] is before[k] for k in before)
    # calls through the names svgp and cli imported were seen
    assert metrics["kernel.kzz_calls"][0] > 0
    assert metrics["linalg.cholesky_with_jitter.calls"][0] > 0
    assert metrics["calibration.calibrate_probs.calls"][0] == 3
    assert metrics["model_io.save_model.calls"][0] == 1
    assert metrics["model_io.load_model.calls"][0] == 2
    assert metrics["ensemble.fit_member.calls"][0] == 0
    assert metrics["cli.evaluate.calls"][0] == 2
    # every span has a parent inside the same command, and roots are cli spans
    for name, _, _, parent, root in recorder.spans:
        assert recorder.spans[root][0].startswith("cli.")
        assert (parent is None) == name.startswith("cli.")
    per_layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(metrics) == per_layer


@pytest.mark.parametrize("workload", sorted(pipeline.WORKLOADS))
def test_small_corpus_chain(workload, tmp_path):
    w = pipeline.WORKLOADS[workload]
    metrics, ledger, setups, reps = pipeline.timed_run(
        w, 5, 0.0, tmp_path, ROOT, time.monotonic() + 170, SMALL)
    assert ledger.failures == []
    assert len(setups) == w.setups and len(reps) == pipeline.MIN_CHAIN_REPEATS
    assert reps[0].digests == reps[1].digests
    assert metrics["prepare_s"][2] == len(setups if w.prepare_in_setup else reps)
    end_to_end = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    unbounded = pipeline.GUARDS + pipeline.STAGE_TIMES
    assert {k: v[1] for k, v in metrics.items() if k not in unbounded} == end_to_end
    assert ("elbo_per_example" in metrics) == (w.model == "gp")
    assert all(value > 0 for value, unit, _ in metrics.values() if unit == "s")
    assert metrics["ops_ok_frac"][0] == 1.0
