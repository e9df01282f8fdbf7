"""Workloads of the pipeline benchmark, the runners that execute their textuq
commands, and the checks on what those commands write.

A workload is a set-up (the benchmark generating its inputs with ``synth``,
plus ``prepare`` on some workloads) followed by a timed chain of CLI
commands. The end-to-end run executes every command as its own
``python -m textuq`` process, one after another, as a user would; the traced
run executes the same chain in this interpreter through
``textuq.cli.main(argv)``. Every command runs with single-threaded BLAS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Recorder, layer_metrics

MIN_CHAIN_REPEATS = 2  # repeats are compared byte for byte (criterion 7)
STARTUP_REPEATS = 3
BATCH_SIZE = 500  # the CLI default, which every workload keeps
ACCURACY_FLOOR = 0.85  # criterion 5: CONSTest accuracy
NLPP_GAP_FLOOR = 0.02  # criterion 5: NegINCONSTest nlpp - CONSTest nlpp
GUARDS = ("constest_nlpp", "neginconstest_nlpp", "elbo_per_example")
# Printed and recorded but not bounded: these short, pure-Python stages drift
# by more than the largest allowed bound from run to run on a shared host.
STAGE_TIMES = ("prepare_s", "evaluate_s")
# One BLAS thread per process: on a shared host of few vCPUs, threaded BLAS
# calls stall on whichever thread the scheduler delays, and the numbers then
# measure the scheduler rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # gp or ens
    train_args: tuple  # further train flags
    epochs: int  # epochs the train command runs; gp-io relies on the CLI default
    members: int
    prepare_in_setup: bool
    calibrate_and_report: bool
    setups: int  # set-up repeats; setup_s is their median


WORKLOADS = {w.name: w for w in (
    Workload(
        "gp-io",
        "criterion-5 GP path at M=64: the 44 MB feature CSV is written once and "
        "parsed three times, so corpus I/O and CLI start-up dominate",
        "gp", ("--inducing", "64"), epochs=2, members=1,
        prepare_in_setup=False, calibrate_and_report=True, setups=5,
    ),
    Workload(
        "ens",
        "5-member FGSM ensemble for 2 epochs: fit_member dominates, kernel and "
        "linalg are never called, and a 13 MB model file is saved and loaded",
        "ens", ("--epochs", "2"), epochs=2, members=5,
        prepare_in_setup=True, calibrate_and_report=False, setups=2,
    ),
)}


@dataclass(frozen=True)
class Scale:
    """Corpus size of the set-up; the benchmark runs at the default, tests shrink it."""

    n: int = 10000
    dim: int = 200


@dataclass(frozen=True)
class Command:
    stage: str  # synth, prepare, train, evaluate or report
    argv: tuple  # arguments after ``textuq``
    outputs: tuple  # files the command writes
    calibrated: bool = False


@dataclass
class Outcome:
    code: int
    seconds: float
    stdout: str
    rss_kb: int = 0  # peak resident set of the process; 0 when run in-process


@dataclass
class Rep:
    """One execution of a command list: its outcomes, wall time and output digests."""

    commands: list
    outcomes: list
    wall: float
    digests: dict = field(default_factory=dict)

    def command(self, stage, calibrated=False) -> Command:
        return next(c for c in self.commands if c.stage == stage and c.calibrated == calibrated)

    def outcome(self, stage, calibrated=False) -> Outcome:
        return self.outcomes[self.commands.index(self.command(stage, calibrated))]

    def seconds(self, stage) -> float:
        return sum(o.seconds for c, o in zip(self.commands, self.outcomes) if c.stage == stage)


class Ledger:
    """Attempted commands and the ones that failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------- commands


def _prepare(corpus_dir: Path, out_dir: Path) -> Command:
    out = out_dir / "features.csv"
    return Command("prepare", ("prepare", "--corpus", str(corpus_dir / "corpus.csv"),
                               "--embeddings", str(corpus_dir / "embeddings.txt"),
                               "--out", str(out)), (out,))


def _evaluate(model: Path, features: Path, d: Path, tag: str, calibrated: bool) -> Command:
    outs = (d / f"{tag}.json", d / f"{tag}.csv", d / f"{tag}_reliability.csv")
    argv = ("evaluate", "--model", str(model), "--features", str(features),
            "--out-json", str(outs[0]), "--out-csv", str(outs[1]),
            "--out-reliability", str(outs[2]))
    return Command("evaluate", argv + (("--calibrate",) if calibrated else ()), outs, calibrated)


def setup_commands(w: Workload, seed: int, d: Path, scale: Scale) -> list:
    corpus, emb = d / "corpus.csv", d / "embeddings.txt"
    cmds = [Command("synth", (
        "synth", "--n", str(scale.n), "--dim", str(scale.dim), "--disagreement", "0.04",
        "--seed", str(seed), "--out-corpus", str(corpus), "--out-embeddings", str(emb),
    ), (corpus, emb))]
    if w.prepare_in_setup:
        cmds.append(_prepare(d, d))
    return cmds


def chain_commands(w: Workload, seed: int, setup_dir: Path, d: Path) -> list:
    cmds = []
    if w.prepare_in_setup:
        features = setup_dir / "features.csv"
    else:
        cmds.append(_prepare(setup_dir, d))
        features = d / "features.csv"
    model, trace = d / "model.json", d / "trace.csv"
    cmds.append(Command("train", (
        "train", "--model", w.model, *w.train_args, "--features", str(features),
        "--seed", str(seed), "--out-model", str(model), "--out-trace", str(trace),
    ), (model, trace)))
    cmds.append(_evaluate(model, features, d, "eval", calibrated=False))
    if w.calibrate_and_report:
        cmds.append(_evaluate(model, features, d, "cal", calibrated=True))
        svg = d / "reliability.svg"
        cmds.append(Command("report", ("report", "--reliability",
                                       str(d / "eval_reliability.csv"), "--out", str(svg)),
                            (svg,)))
    return cmds


# ---------------------------------------------------------------- runners


def _wait(pid: int, timeout: float):
    """Reap ``pid``; kill it if it outlives ``timeout``. Returns (exit code, maxrss KiB)."""
    def on_alarm(signum, frame):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


class ProcessRunner:
    """Runs each command in a fresh interpreter with the checkout's ``src`` first on the path."""

    def __init__(self, root: Path, log_dir: Path, deadline: float):
        self.log_dir = log_dir
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._count = 0

    def python(self, args, label: str) -> Outcome:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self._count += 1
        log = self.log_dir / f"{self._count:03d}-{label}"
        with open(f"{log}.out", "w+", encoding="utf-8") as out, \
                open(f"{log}.err", "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env)
            try:
                code, rss_kb = _wait(proc.pid, self.deadline - time.monotonic())
            except BaseException:  # never leave the child running behind us
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = code
            out.seek(0)
            text = out.read()
        if code != 0:
            sys.stderr.write(Path(f"{log}.err").read_text(encoding="utf-8")[-2000:])
        return Outcome(code, seconds, text, rss_kb)

    def __call__(self, cmd: Command) -> Outcome:
        return self.python(("-m", "textuq", *cmd.argv), cmd.stage)


class InProcessRunner:
    """Runs each command as ``textuq.cli.main(argv)`` in this interpreter, inside a
    ``cli.<stage>`` span when a recorder is given."""

    def __init__(self, recorder=None):
        self.recorder = recorder

    def __call__(self, cmd: Command) -> Outcome:
        from textuq import cli

        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if self.recorder is None:
                code = cli.main(list(cmd.argv))
            else:
                code = self.recorder.call(f"cli.{cmd.stage}", cli.main, list(cmd.argv))
        return Outcome(code, time.perf_counter() - start, buf.getvalue())


def run_commands(commands: list, runner) -> Rep:
    """Run commands back to back, stopping at the first non-zero exit. Only the
    commands are inside the timed interval; checks come afterwards."""
    for cmd in commands:
        for path in cmd.outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
    outcomes = []
    start = time.perf_counter()
    for cmd in commands:
        outcomes.append(runner(cmd))
        if outcomes[-1].code != 0:
            break
    return Rep(commands, outcomes, time.perf_counter() - start)


# ---------------------------------------------------------------- checks


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def train_size(outcome: Outcome) -> int:
    m = re.search(r"split: train (\d+)", outcome.stdout)
    return int(m.group(1)) if m else 0


def floor_problems(report: dict) -> list:
    """Criterion-5 floors on an uncalibrated evaluate report."""
    sets = report["sets"]
    cons, neg = sets["CONSTest"], sets["NegINCONSTest"]
    problems = []
    if not cons["accuracy"] >= ACCURACY_FLOOR:
        problems.append(f"CONSTest accuracy {cons['accuracy']} < {ACCURACY_FLOOR}")
    if not neg["nlpp"] - cons["nlpp"] >= NLPP_GAP_FLOOR:
        problems.append(f"NegINCONSTest nlpp {neg['nlpp']} < CONSTest nlpp "
                        f"{cons['nlpp']} + {NLPP_GAP_FLOOR}")
    return problems


def _output_problems(w: Workload, cmd: Command, outcome: Outcome) -> list:
    if cmd.stage == "train":
        train_n = train_size(outcome)
        expected = w.members * w.epochs * math.ceil(train_n / BATCH_SIZE)
        with open(cmd.outputs[1], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if train_n == 0 or rows != expected:
            return [f"trace has {rows} steps, expected {expected} for train split {train_n}"]
    elif cmd.stage == "evaluate" and not cmd.calibrated:
        return floor_problems(json.loads(cmd.outputs[0].read_text(encoding="utf-8")))
    elif cmd.stage == "report":
        if not cmd.outputs[0].read_text(encoding="utf-8").startswith("<svg"):
            return ["output is not an SVG document"]
    return []


def verify(w: Workload, rep: Rep, ledger: Ledger, label: str, reference: Rep | None = None):
    """Check every attempted command of ``rep`` and fill in its output digests.

    A command fails if it exits non-zero, leaves an output missing, fails an
    output check, or writes bytes that differ from the same command in
    ``reference`` (an earlier repeat of the same chain).
    """
    for cmd, outcome in zip(rep.commands, rep.outcomes):
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        else:
            missing = [p.name for p in cmd.outputs if not p.is_file()]
            if missing:
                problems.append(f"missing outputs {missing}")
            else:
                problems += _output_problems(w, cmd, outcome)
                for path in cmd.outputs:
                    rep.digests[path.name] = digest = sha256_of(path)
                    if reference is not None and reference.digests.get(path.name) != digest:
                        problems.append(f"{path.name} differs from the first repeat")
        ledger.record(f"{label} {cmd.stage}", problems)


# ---------------------------------------------------------------- metrics


def _last_objective(trace_path: Path) -> float:
    with open(trace_path, encoding="utf-8") as fh:
        last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
    return float(last.rsplit(",", 1)[1])


def end_to_end_metrics(w: Workload, setups: list, reps: list) -> dict:
    """``{name: (value, unit, samples)}``; timings are medians over the repeats.

    The names in ``GUARDS`` and ``STAGE_TIMES`` are printed and recorded but
    left out of the result's metrics. The guards are deterministic for a
    seed, yet on 40-example views they vary too much from seed to seed for a
    relative bound.
    """
    med = statistics.median
    first = reps[0]
    train_cmd = first.command("train")
    model_path, trace_path = train_cmd.outputs
    features = Path(train_cmd.argv[train_cmd.argv.index("--features") + 1])
    train_n = train_size(first.outcome("train"))
    prepare_source = setups if w.prepare_in_setup else reps
    report = json.loads(first.command("evaluate").outputs[0].read_text(encoding="utf-8"))["sets"]
    quality = {
        "constest_nlpp": (report["CONSTest"]["nlpp"], "nats", 1),
        "neginconstest_nlpp": (report["NegINCONSTest"]["nlpp"], "nats", 1),
    }
    if w.model == "gp":  # the trace holds the minibatch ELBO scaled to the train split
        quality["elbo_per_example"] = (_last_objective(trace_path) / train_n, "nats", 1)
    n_reps, n_setups = len(reps), len(setups)
    return {
        "wall_s": (med(r.wall for r in reps), "s", n_reps),
        "prepare_s": (med(r.seconds("prepare") for r in prepare_source), "s",
                      len(prepare_source)),
        "train_s": (med(r.seconds("train") for r in reps), "s", n_reps),
        "evaluate_s": (med(r.seconds("evaluate") for r in reps), "s", n_reps),
        "train_examples_per_s": (
            med(train_n * w.epochs * w.members / r.seconds("train") for r in reps),
            "1/s", n_reps),
        "setup_s": (med(s.wall for s in setups), "s", n_setups),
        "peak_rss_mb": (max(o.rss_kb for r in reps for o in r.outcomes) * 1024 / 1e6, "MB",
                        n_reps),
        "model_mb": (model_path.stat().st_size / 1e6, "MB", 1),
        "handoff_mb": ((model_path.stat().st_size + features.stat().st_size) / 1e6, "MB", 1),
        "constest_accuracy": (report["CONSTest"]["accuracy"], "frac", 1),
        **quality,
    }


def timed_run(w: Workload, seed: int, seconds: float, work: Path, root: Path,
              deadline: float, scale: Scale = Scale()):
    """End-to-end run: set up ``w.setups`` times, then repeat the timed chain
    while another repeat is expected to end within ``seconds``, and at least
    ``MIN_CHAIN_REPEATS`` times.

    Returns (metrics or None on failure, ledger, setups, reps).
    """
    ledger = Ledger()
    runner = ProcessRunner(root, work / "logs", deadline)
    setups, reps = [], []
    for k in range(w.setups):
        rep = run_commands(setup_commands(w, seed, work / f"setup{k}", scale), runner)
        verify(w, rep, ledger, f"setup{k}", setups[0] if setups else None)
        setups.append(rep)
        if ledger.failed:
            return None, ledger, setups, reps
    start = time.monotonic()
    while len(reps) < MIN_CHAIN_REPEATS or \
            time.monotonic() - start + (reps[-1].wall if reps else 0.0) <= seconds:
        if reps and time.monotonic() + 1.5 * reps[-1].wall > deadline:
            break
        k = len(reps)
        rep = run_commands(chain_commands(w, seed, work / "setup0", work / f"rep{k}"), runner)
        verify(w, rep, ledger, f"rep{k}", reps[0] if reps else None)
        reps.append(rep)
        if ledger.failed:
            return None, ledger, setups, reps
    if len(reps) < MIN_CHAIN_REPEATS:
        ledger.record("repeats", [f"only {len(reps)} chain repeats fit before the deadline"])
        return None, ledger, setups, reps
    metrics = end_to_end_metrics(w, setups, reps)
    metrics["ops_ok_frac"] = (1.0 - ledger.failed / ledger.attempted, "frac", ledger.attempted)
    return metrics, ledger, setups, reps


def trace_run(w: Workload, seed: int, work: Path, root: Path, deadline: float,
              scale: Scale = Scale()):
    """Traced run: one set-up, the CLI start-up probe, then the chain in this
    interpreter untraced and traced. Returns (metrics or None, ledger, recorder, reps)."""
    ledger = Ledger()
    runner = ProcessRunner(root, work / "logs", deadline)
    setup = run_commands(setup_commands(w, seed, work / "setup0", scale), runner)
    verify(w, setup, ledger, "setup0")
    if ledger.failed:
        return None, ledger, None, []
    startup = []
    for k in range(STARTUP_REPEATS):
        outcome = runner.python(("-c", "import textuq.cli"), "startup")
        ledger.record(f"startup{k}", [] if outcome.code == 0 else [f"exit code {outcome.code}"])
        startup.append(outcome.seconds)
    import textuq.cli  # noqa: F401  (import cost stays out of both timed chains)

    plain = run_commands(chain_commands(w, seed, work / "setup0", work / "plain"),
                         InProcessRunner())
    verify(w, plain, ledger, "plain")
    recorder = Recorder()
    with recorder.installed():
        traced = run_commands(chain_commands(w, seed, work / "setup0", work / "traced"),
                              InProcessRunner(recorder))
    verify(w, traced, ledger, "traced", plain)
    if ledger.failed:
        return None, ledger, recorder, [plain, traced]
    metrics = layer_metrics(recorder.spans, recorder.counts)
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["trace.plain_s"] = (plain.wall, "s")
    metrics["trace.traced_s"] = (traced.wall, "s")
    metrics["trace.overhead_frac"] = (traced.wall / plain.wall - 1.0, "frac")
    return metrics, ledger, recorder, [plain, traced]
