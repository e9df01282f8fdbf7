"""The benchmark's traced run finds every function it wraps.

``benchmarks/tracing.py`` looks its targets up by name with ``getattr``, so
renaming or deleting one breaks only a ``--trace 1`` benchmark run; these
checks catch that in the unit suite. The tracer module is loaded from its
file and never installed.
"""

import collections
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

import textuq.calibration
import textuq.cli
import textuq.model_io
from textuq import corpus, ensemble, svgp

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("textuq_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_function_of_its_layer():
    for layer, names in load_tracing().TARGETS.items():
        module = importlib.import_module(f"textuq.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"textuq.{layer}.{name}"


def test_cli_binds_the_traced_functions_by_name():
    assert textuq.cli.save_model is textuq.model_io.save_model
    assert textuq.cli.load_model is textuq.model_io.load_model
    assert textuq.cli.calibrate_probs is textuq.calibration.calibrate_probs


def test_kzz_is_built_from_one_object_passed_twice(monkeypatch):
    # kernel.kzz_calls counts the kernel_matrix calls whose xs is ys
    calls = []
    original = svgp.kernel_matrix

    def spy(xs, ys, p):
        calls.append(xs is ys)
        return original(xs, ys, p)

    monkeypatch.setattr(svgp, "kernel_matrix", spy)
    feats = np.random.default_rng(0).normal(size=(20, 2))
    svgp.predictive_latent(svgp.init_model(feats, m=4), feats)
    assert calls == [True, False]


def test_fit_ensemble_calls_the_module_level_fit_member_once_per_member(monkeypatch):
    # ensemble.steps adds up the traces of the fit_member calls the tracer sees
    count_steps = load_tracing().HOOKS["ensemble.fit_member"]
    counts, calls = collections.Counter(), []
    original = ensemble.fit_member

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(len(result[1]))
        count_steps(counts, args, kwargs, result)
        return result

    monkeypatch.setattr(ensemble, "fit_member", spy)
    rng = np.random.default_rng(0)
    feats, labels = rng.normal(size=(23, 3)), rng.integers(0, 3, size=23)
    cfg = ensemble.EnsembleConfig(members=3, hidden_units=4, epochs=2, batch_size=7)
    _, traces = ensemble.fit_ensemble(feats, labels, cfg)
    assert calls == [2 * 4] * cfg.members
    assert counts["ensemble.steps"] == sum(map(len, traces)) == 3 * 2 * 4


def test_corpus_hooks_count_the_rows_read_and_the_all_oov_rows(tmp_path):
    # corpus.rows adds up len() of what read_features_csv returns, and
    # corpus.oov_rows the length of featurize's second result
    hooks = load_tracing().HOOKS
    rows = [
        corpus.CorpusRow("r0", "a b", 0, 0),
        corpus.CorpusRow("r1", "zzz", 1, None),
        corpus.CorpusRow("r2", "b", 2, 1),
        corpus.CorpusRow("r3", "", 0, 0),
    ]
    embeddings = corpus.EmbeddingTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    counts = collections.Counter()
    args = (rows, embeddings)
    result = corpus.featurize(*args)
    hooks["corpus.featurize"](counts, args, {}, result)
    assert counts["corpus.oov_rows"] == 2

    path = tmp_path / "features.csv"
    corpus.write_features_csv(path, result[0])
    result = corpus.read_features_csv(path)
    hooks["corpus.read_features_csv"](counts, (path,), {}, result)
    assert counts["corpus.rows"] == 4
    assert counts["corpus.feature_bytes"] == path.stat().st_size
