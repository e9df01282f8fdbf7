"""The benchmark's traced run finds every function it wraps.

``benchmarks/tracing.py`` looks its targets up by name with ``getattr``, so
renaming or deleting one breaks only a ``--trace 1`` benchmark run; these
checks catch that in the unit suite. The tracer module is loaded from its
file and never installed.
"""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

import textuq.calibration
import textuq.cli
import textuq.model_io
from textuq import svgp

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
