"""Pipeline benchmark for textuq.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload gp-io --seed 5 --seconds 50 --trace 0

``--trace 0`` times the workload's chain of ``python -m textuq`` commands and
prints the end-to-end metrics; ``--trace 1`` runs the chain in this
interpreter with every layer's public functions wrapped in spans and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record
of the run (environment, sample counts, output digests, failed checks) and,
for traced runs, the spans are written under ``benchmarks/_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

from pipeline import BLAS_ENV, GUARDS, STAGE_TIMES, WORKLOADS, timed_run, trace_run

os.environ.update(BLAS_ENV)  # before numpy loads, for the traced run in this process

DEADLINE_S = 170.0  # every run must end within 180 s


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What the numbers depend on; compare runs only within one kind of machine."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _print_end_to_end(metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        note = ("  quality guard, not in the result" if name in GUARDS else
                "  stage time, not in the result" if name in STAGE_TIMES else "")
        print(f"  {name:<22} {value:>14.6g} {unit:<5} (n={samples}){note}")


def _print_layers(metrics: dict) -> None:
    spans = sorted({n.rsplit(".", 1)[0] for n in metrics if n.endswith(".calls")})
    print(f"  {'span':<30} {'calls':>6} {'s':>10} {'self_s':>10}")
    for span in spans:
        calls = metrics[f"{span}.calls"][0]
        if calls:
            print(f"  {span:<30} {calls:>6} {metrics[span + '.s'][0]:>10.4f} "
                  f"{metrics[span + '.self_s'][0]:>10.4f}")
    span_keys = {f"{span}.{key}" for span in spans for key in ("s", "self_s", "calls")}
    for name, (value, unit) in metrics.items():
        if name not in span_keys:
            print(f"  {name:<30} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "textuq" / "cli.py").is_file():
        print(f"error: no textuq sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = root / "benchmarks" / "_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: {w.why}")
    print("environment: " + json.dumps(env, sort_keys=True))

    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "environment": env}
    if args.trace:
        metrics, ledger, recorder, reps = trace_run(w, args.seed, work, root, deadline)
        if recorder is not None:
            (work / "spans.json").write_text(json.dumps(recorder.to_json()), encoding="utf-8")
        if metrics is not None:
            _print_layers(metrics)
        result = {} if metrics is None else {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        metrics, ledger, setups, reps = timed_run(w, args.seed, args.seconds, work, root,
                                                  deadline)
        record["setup_digests"] = setups[0].digests if setups else {}
        record["setup_seconds"] = [
            [(c.stage, o.seconds) for c, o in zip(r.commands, r.outcomes)] for r in setups]
        result = {}
        if metrics is not None:
            print(f"{len(setups)} set-ups, {len(reps)} chain repeats")
            _print_end_to_end(metrics)
            result = {name: {"value": value, "unit": unit}
                      for name, (value, unit, _) in metrics.items()
                      if name not in GUARDS + STAGE_TIMES}
        record["samples"] = {} if metrics is None else {n: m[2] for n, m in metrics.items()}
        record["quality_guards"] = {} if metrics is None else {
            n: metrics[n][0] for n in GUARDS if n in metrics}
        record["stage_times"] = {} if metrics is None else {
            n: metrics[n][0] for n in STAGE_TIMES}
    record["chain_digests"] = reps[0].digests if reps else {}
    record["stage_seconds"] = [
        [(c.stage, o.seconds) for c, o in zip(r.commands, r.outcomes)] for r in reps]
    record["failures"] = ledger.failures
    record["metrics"] = result
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for child in work.iterdir():  # drop the pipeline's data files, keep logs and records
        if child.is_dir() and child.name != "logs":
            shutil.rmtree(child)

    for name, digest in sorted(record["chain_digests"].items()):
        print(f"  sha256 {name:<24} {digest}")
    print(f"commands: {ledger.attempted} attempted, {ledger.failed} failed")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = metrics is not None and ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
