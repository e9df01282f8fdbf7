"""Span recorder for the traced benchmark run.

A span is one call of a wrapped textuq function: its name
(``<layer>.<function>``), its start and end on ``time.perf_counter``, the
span that was open when it started (its parent) and the outermost span of
its command (its root, shared by every span of one CLI command).

The recorder replaces each target function at *every* textuq module that
binds it, not only at the module that defines it: ``svgp`` imports
``kernel_matrix`` and ``cholesky_with_jitter`` by name, and ``cli`` imports
``calibrate_probs``, ``save_model`` and ``load_model`` by name, so patching
only the defining module would miss those calls. Spans stay in memory until
the run writes them out; ``Recorder.installed`` restores the original
functions when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

# Public functions wrapped per layer; the layer is the textuq module name.
TARGETS = {
    "corpus": (
        "read_corpus_csv", "load_embeddings", "featurize", "write_features_csv",
        "read_features_csv", "stratified_split", "make_test_views",
    ),
    "kernel": ("kernel_matrix", "rbf_ard_param_grads", "init_kernel_params"),
    "linalg": ("cholesky_with_jitter", "solve_lower_triangular", "cholesky_backward"),
    "svgp": ("init_model", "fit", "predict_proba", "predictive_latent", "kl_divergence"),
    "ensemble": ("fit_ensemble", "fit_member", "ensemble_predict", "mlp_forward"),
    "calibration": ("calibrate_probs", "reliability_bins"),
    "metrics": ("build_report",),
    "model_io": ("save_model", "load_model"),
}
# The benchmark opens one ``cli.<command>`` span around each textuq.cli.main(argv).
CLI_COMMANDS = ("prepare", "train", "evaluate", "report")
LAYERS = ("cli",) + tuple(TARGETS)

COUNTS = (
    "corpus.feature_bytes",  # bytes of feature files parsed by read_features_csv
    "corpus.rows",  # rows returned by read_features_csv
    "corpus.oov_rows",  # all-OOV rows flagged by featurize
    "kernel.kzz_calls",  # kernel_matrix calls with xs is ys
    "linalg.jitter_escalations",  # factorizations that needed more than the base jitter
    "svgp.steps",  # optimizer steps, the length of fit's trace
    "ensemble.steps",  # optimizer steps summed over members
    "model_io.model_bytes",  # bytes of model files written by save_model
)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_read_features(counts, args, kwargs, result):
    counts["corpus.feature_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    counts["corpus.rows"] += len(result)


def _count_featurize(counts, args, kwargs, result):
    counts["corpus.oov_rows"] += len(result[1])


def _count_kernel_matrix(counts, args, kwargs, result):
    if _arg(args, kwargs, 0, "xs") is _arg(args, kwargs, 1, "ys"):
        counts["kernel.kzz_calls"] += 1


def _count_cholesky(counts, args, kwargs, result):
    from textuq.linalg import default_jitter

    base = _arg(args, kwargs, 1, "base_jitter")
    if base is None:
        base = default_jitter(_arg(args, kwargs, 0, "a"))
    if result.jitter_used > base:
        counts["linalg.jitter_escalations"] += 1


def _count_fit(counts, args, kwargs, result):
    counts["svgp.steps"] += len(result[1])


def _count_fit_member(counts, args, kwargs, result):
    counts["ensemble.steps"] += len(result[1])


def _count_save_model(counts, args, kwargs, result):
    counts["model_io.model_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "corpus.read_features_csv": _count_read_features,
    "corpus.featurize": _count_featurize,
    "kernel.kernel_matrix": _count_kernel_matrix,
    "linalg.cholesky_with_jitter": _count_cholesky,
    "svgp.fit": _count_fit,
    "ensemble.fit_member": _count_fit_member,
    "model_io.save_model": _count_save_model,
}


def span_names() -> list:
    return [f"cli.{c}" for c in CLI_COMMANDS] + [
        f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns
    ]


class Recorder:
    """Collects spans as ``[name, start, end, parent, root]`` lists in call order."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list = []
        self._patched: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        root = idx if parent is None else self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, root]
        self.spans.append(record)
        self._open.append(idx)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrapper(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__span_name__ = name
        return wrapper

    def install(self) -> None:
        # cli imports every layer; loading it first means no module can bind
        # a wrapper at import time and keep it after uninstall()
        importlib.import_module("textuq.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "textuq" or n.startswith("textuq."))]
        for layer, fns in TARGETS.items():
            home = importlib.import_module(f"textuq.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrapper(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def to_json(self) -> dict:
        keys = ("name", "start", "end", "parent", "root")
        return {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}


def self_times(spans) -> list:
    """Each span's duration minus the time covered by its direct children.

    Children of one parent never overlap (the program is single-threaded), so
    subtracting their durations gives the parent's uncovered time.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts) -> dict:
    """Per-span totals (``.s``, ``.self_s``, ``.calls``), per-layer self time
    and the recorder's counts, as ``{name: (value, unit)}``."""
    totals = {name: [0.0, 0.0, 0] for name in span_names()}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        t = totals[name]
        t[0] += end - start
        t[1] += own
        t[2] += 1
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (incl, own, calls) in totals.items():
        out[f"{name}.s"] = (incl, "s")
        out[f"{name}.self_s"] = (own, "s")
        out[f"{name}.calls"] = (calls, "count")
        layer_self[name.split(".", 1)[0]] += own
    for layer, own in layer_self.items():
        out[f"{layer}.self_s"] = (own, "s")
    for name, value in counts.items():
        out[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    svgp_steps = counts["svgp.steps"]
    ens_steps = counts["ensemble.steps"]
    out["svgp.step_ms"] = (
        1e3 * totals["svgp.fit"][0] / svgp_steps if svgp_steps else 0.0, "ms")
    out["ensemble.step_ms"] = (
        1e3 * totals["ensemble.fit_member"][0] / ens_steps if ens_steps else 0.0, "ms")
    member_times = [end - start for name, start, end, _, _ in spans
                    if name == "ensemble.fit_member"]
    out["ensemble.member_max_s"] = (max(member_times, default=0.0), "s")
    return out
