"""Command-line pipeline: synth, prepare, train, evaluate, report.

Every command takes an explicit seed where randomness is involved (there is
no wall-clock fallback) and writes outputs through a temp-file rename, so a
failed run leaves no partial files and a rerun with identical inputs is
byte-identical. Options can come from a flat key=value config file via
--config; command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import corpus as corpus_mod
from . import ensemble as ens_mod
from . import svgp as svgp_mod
from .calibration import bins_from_csv_text, bins_to_csv_text, calibrate_probs, reliability_bins
from .errors import DimensionMismatch, InvalidConfig, TextuqError, check_int, utf8_input
from .labels import LABEL_NAMES, POSITIVE
from .metrics import build_report, report_to_csv_text, report_to_json_text
from .model_io import ModelMeta, atomic_write, atomic_write_text, load_model, save_model

_REQUIRED = object()


@dataclass(frozen=True)
class Opt:
    name: str
    kind: object  # int / float / str conversion callable, or the string "flag"
    default: object
    help: str
    file: str = ""  # "in" or "out" for a path the command reads or writes


def _flag_name(opt: Opt) -> str:
    return "--" + opt.name.replace("_", "-")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InvalidConfig(f"expected a boolean, got {raw!r}")


def read_config(path) -> dict:
    """Flat key = value lines; # starts a comment; keys match option names.
    A leading byte-order mark is skipped."""
    out: dict = {}
    with utf8_input(path), open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise InvalidConfig(f"{path} line {lineno}: expected key = value")
            key, _, value = s.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args: argparse.Namespace, config: dict, opts: list) -> SimpleNamespace:
    """Merge CLI > config file > declared default; enforce required options."""
    out = {}
    for opt in opts:
        raw = getattr(args, opt.name)
        if raw is None and opt.name in config:
            raw = config[opt.name]
        if raw is None:
            if opt.default is _REQUIRED:
                raise InvalidConfig(f"{_flag_name(opt)} is required")
            out[opt.name] = opt.default
            continue
        if opt.kind == "flag":
            out[opt.name] = raw if isinstance(raw, bool) else _parse_bool(raw)
        else:
            try:
                out[opt.name] = opt.kind(raw)
            except ValueError:
                raise InvalidConfig(f"bad value for {_flag_name(opt)}: {raw!r}") from None
    unknown = set(config) - {o.name for o in opts}
    if unknown:
        raise InvalidConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
    return SimpleNamespace(**out)


def _check_paths(opts_table: list, opts: SimpleNamespace, config_path) -> None:
    """Refuse an output that resolves to the same file as an input, the
    config file or another output: writing it would destroy the other."""
    taken = {os.path.realpath(config_path): "--config"} if config_path else {}
    files = ([o for o in opts_table if o.file == "in"]
             + [o for o in opts_table if o.file == "out"])
    for opt in files:
        path = getattr(opts, opt.name)
        real = os.path.realpath(path)
        if opt.file == "out" and real in taken:
            raise InvalidConfig(f"{_flag_name(opt)} {path} is the same file as {taken[real]}")
        taken.setdefault(real, _flag_name(opt))


PREPARE_OPTS = [
    Opt("corpus", str, _REQUIRED, "corpus CSV (id,text,primary_label,secondary_label)", "in"),
    Opt("embeddings", str, _REQUIRED, "token-vector text file", "in"),
    Opt("out", str, _REQUIRED, "feature CSV to write", "out"),
]

SYNTH_OPTS = [
    Opt("n", int, _REQUIRED, "number of synthetic reports"),
    Opt("disagreement", float, 0.04, "target labeller-disagreement rate"),
    Opt("seed", int, _REQUIRED, "generator seed"),
    Opt("out_corpus", str, _REQUIRED, "corpus CSV to write", "out"),
    Opt("out_embeddings", str, _REQUIRED, "embedding file to write", "out"),
    Opt("dim", int, 200, "embedding dimension"),
]

TRAIN_OPTS = [
    Opt("model", str, _REQUIRED, "gp or ens"),
    Opt("features", str, _REQUIRED, "feature CSV from prepare", "in"),
    Opt("out_model", str, _REQUIRED, "model file to write", "out"),
    Opt("out_trace", str, _REQUIRED, "training-trace CSV to write", "out"),
    Opt("seed", int, _REQUIRED, "split/init/shuffle seed"),
    Opt("val_fraction", float, 0.10, "validation fraction"),
    Opt("test_fraction", float, 0.10, "test fraction"),
    Opt("learning_rate", float, 0.003, "optimizer step size"),
    Opt("epochs", int, None, "training epochs (default: 2 for gp, 10 for ens)"),
    Opt("batch_size", int, 500, "minibatch size"),
    Opt("inducing", int, 300, "gp: number of inducing points"),
    Opt("mc_train", int, 8, "gp: MC samples per training step"),
    Opt("mc_predict", int, 64, "gp: MC samples at prediction time"),
    Opt("optimize_inducing", "flag", False, "gp: also optimize inducing inputs"),
    Opt("members", int, 5, "ens: ensemble size"),
    Opt("hidden", int, 200, "ens: hidden units per layer"),
    Opt("fgsm_eps", float, 0.01, "ens: adversarial step in per-feature std units"),
]

EVALUATE_OPTS = [
    Opt("model", str, _REQUIRED, "model file from train", "in"),
    Opt("features", str, _REQUIRED, "feature CSV the model was trained from", "in"),
    Opt("out_json", str, _REQUIRED, "metrics report JSON to write", "out"),
    Opt("out_csv", str, _REQUIRED, "metrics report CSV to write", "out"),
    Opt("out_reliability", str, _REQUIRED, "reliability-bin CSV (CONSTest) to write", "out"),
    Opt("calibrate", "flag", False, "apply validation-fitted isotonic calibration"),
    Opt("absent_as_zero", "flag", False, "render empty FN/TP subsets as 0 in the CSV"),
]

REPORT_OPTS = [
    Opt("reliability", str, _REQUIRED, "reliability-bin CSV from evaluate", "in"),
    Opt("out", str, _REQUIRED, "SVG file to write", "out"),
]


class _Parser(argparse.ArgumentParser):
    # usage problems are user errors (exit 1), not internal failures (exit 2)
    def error(self, message):
        raise InvalidConfig(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="textuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts, doc in (
        ("prepare", PREPARE_OPTS, "turn a corpus CSV into mean-pooled feature vectors"),
        ("synth", SYNTH_OPTS, "generate a synthetic dual-labeller corpus + embeddings"),
        ("train", TRAIN_OPTS, "train a gp or ens model on the train split"),
        ("evaluate", EVALUATE_OPTS, "score a model on the three test views"),
        ("report", REPORT_OPTS, "render a reliability CSV as an SVG diagram"),
    ):
        p = sub.add_parser(command, help=doc, description=doc)
        p.add_argument("--config", default=None, help="key=value config file")
        for opt in opts:
            if opt.kind == "flag":
                p.add_argument(_flag_name(opt), action="store_const", const=True,
                               default=None, help=opt.help)
            else:
                p.add_argument(_flag_name(opt), default=None, help=opt.help)
    return parser


def _split(table, spec):
    """stratified_split's row positions, refusing a split that leaves
    nothing to evaluate."""
    train, val, test = corpus_mod.stratified_split(table, spec)
    if not len(test):
        raise InvalidConfig(f"test fraction {spec.test_fraction} of {len(table)} rows "
                            "leaves the test split empty")
    return train, val, test


def cmd_prepare(opts) -> int:
    rows = corpus_mod.read_corpus_csv(opts.corpus)
    embeddings = corpus_mod.load_embeddings(opts.embeddings)
    table, flagged = corpus_mod.featurize(rows, embeddings)
    atomic_write(opts.out, lambda p: corpus_mod.write_features_csv(p, table))
    for name, count in zip(LABEL_NAMES, np.bincount(table.labels, minlength=len(LABEL_NAMES))):
        print(f"class {name}: {count}")
    labelled = table.secondary != corpus_mod.NO_LABEL
    agree = table.labels == table.secondary
    print(f"agreement: consistent {np.count_nonzero(agree)}, "
          f"inconsistent {np.count_nonzero(labelled & ~agree)}")
    print(f"all-OOV examples: {len(flagged)}")
    print(f"wrote {len(table)} feature rows to {opts.out}")
    return 0


def cmd_synth(opts) -> int:
    cfg = corpus_mod.SynthConfig(n=opts.n, disagreement=opts.disagreement)
    rows = corpus_mod.synth_generate(cfg, opts.seed)
    # embeddings get their own stream so they stay independent of the text draws
    table = corpus_mod.synth_embeddings(opts.dim, opts.seed + 1)
    atomic_write(opts.out_corpus, lambda p: corpus_mod.write_corpus_csv(p, rows))
    atomic_write(opts.out_embeddings, lambda p: corpus_mod.write_embeddings(p, table))
    realized = sum(1 for r in rows if r.primary_label != r.secondary_label) / len(rows)
    print(f"wrote {len(rows)} rows, realized disagreement {realized:.4f}")
    print(f"vocabulary {len(table.vectors)} tokens, dimension {table.dimension}")
    return 0


def cmd_train(opts) -> int:
    if opts.model not in ("gp", "ens"):
        raise InvalidConfig(f"--model must be gp or ens, got {opts.model!r}")
    # every setting is checked before the feature file is read
    spec = corpus_mod.SplitSpec(opts.val_fraction, opts.test_fraction, opts.seed)
    spec.validate()
    if opts.model == "gp":
        if opts.inducing < 1:
            raise InvalidConfig("m (inducing points) must be >= 1")
        check_int(opts.mc_predict, "mc_predict", 1)
        cfg = svgp_mod.TrainConfig(
            learning_rate=opts.learning_rate,
            epochs=2 if opts.epochs is None else opts.epochs,
            batch_size=opts.batch_size,
            mc_train_samples=opts.mc_train,
            seed=opts.seed,
            optimize_inducing=opts.optimize_inducing,
        )
    else:
        cfg = ens_mod.EnsembleConfig(
            members=opts.members,
            hidden_units=opts.hidden,
            learning_rate=opts.learning_rate,
            epochs=10 if opts.epochs is None else opts.epochs,
            batch_size=opts.batch_size,
            fgsm_epsilon=opts.fgsm_eps,
            seed=opts.seed,
        )
    cfg.validate()

    table = corpus_mod.read_features_csv(opts.features)
    train, val, test = _split(table, spec)
    xs, ys = table.features[train], table.labels[train]
    del table  # only the copied training rows are needed from here on
    print(f"split: train {len(train)}, val {len(val)}, test {len(test)}")

    if opts.model == "gp":
        model0 = svgp_mod.init_model(xs, m=opts.inducing, seed=opts.seed)
        model, trace = svgp_mod.fit(model0, xs, ys, cfg)
        meta = ModelMeta(spec, mc_predict_samples=opts.mc_predict,
                         predict_seed=opts.seed)
        trace_lines = ["step,objective"]
        trace_lines += ["%d,%.17g" % row for row in enumerate(trace)]
        final = trace[-1] if trace else float("nan")
    else:
        model, traces = ens_mod.fit_ensemble(xs, ys, cfg)
        meta = ModelMeta(spec)
        trace_lines = ["member,step,objective"]
        for member, tr in enumerate(traces):
            trace_lines += ["%d,%d,%.17g" % (member, *row) for row in enumerate(tr)]
        final = traces[-1][-1] if traces and traces[-1] else float("nan")

    save_model(opts.out_model, model, meta)
    atomic_write_text(opts.out_trace, "\n".join(trace_lines) + "\n")
    print(f"final objective: {final:.6g}")
    print(f"wrote {opts.out_model} and {opts.out_trace}")
    return 0


def cmd_evaluate(opts) -> int:
    model, meta = load_model(opts.model)
    table = corpus_mod.read_features_csv(opts.features)
    dim = model.dim if isinstance(model, svgp_mod.SvgpModel) else model.members[0].dim
    if table.features.shape[1] != dim:
        raise DimensionMismatch(f"{opts.features} has {table.features.shape[1]} features "
                                f"per row, but the model takes {dim}")
    _, val, test = _split(table, meta.split)
    if opts.calibrate and not len(val):
        raise InvalidConfig("--calibrate needs a non-empty validation split")
    views = corpus_mod.make_test_views(table.take(test), seed=meta.split.seed)

    if isinstance(model, svgp_mod.SvgpModel):
        def predict(xs):
            return svgp_mod.predict_proba(
                model, xs, s=meta.mc_predict_samples, seed=meta.predict_seed
            )
    else:
        def predict(xs):
            return ens_mod.ensemble_predict(model, xs)

    if opts.calibrate:
        val_probs = predict(table.features[val])

        def score(xs):
            return calibrate_probs(val_probs, table.labels[val], predict(xs))
    else:
        score = predict
    # views that share one feature array (NegINCONSTest and CheXINCONSTest)
    # are scored once: a prediction depends only on the model and the rows
    probs_by_array: dict = {}
    probs_of = {}
    for name, view in views.items():
        key = id(view.features)
        if key not in probs_by_array:
            probs_by_array[key] = score(view.features)
        probs_of[name] = probs_by_array[key]

    report = build_report(
        {name: (probs_of[name], views[name].labels) for name in views}
    )
    cons = views["CONSTest"]
    bins = reliability_bins(
        probs_of["CONSTest"][:, POSITIVE], (cons.labels == POSITIVE).astype(np.float64)
    )
    atomic_write_text(opts.out_json, report_to_json_text(report))
    atomic_write_text(
        opts.out_csv, report_to_csv_text(report, absent_as_zero=opts.absent_as_zero)
    )
    atomic_write_text(opts.out_reliability, bins_to_csv_text(bins))
    for name in sorted(report.sets):
        sm = report.sets[name]
        print(f"{name}: accuracy {sm.accuracy:.4f}, nlpp {sm.nlpp:.4f}, "
              f"mmpcl {sm.mmpcl:.4f}, n {sm.size}")
    print(f"wrote {opts.out_json}, {opts.out_csv}, {opts.out_reliability}")
    return 0


def render_reliability_svg(bins) -> str:
    """Reliability diagram: mean predicted vs fraction positive, plus the
    diagonal. Pure text generation so reruns stay byte-identical."""
    size, margin = 420, 50
    span = size - 2 * margin

    def sx(v):
        return "%.6g" % (margin + v * span)

    def sy(v):
        return "%.6g" % (margin + (1.0 - v) * span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(1)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        f'stroke="gray" stroke-dasharray="4 3"/>',
    ]
    for k in range(6):
        v = k / 5.0
        label = "%.1f" % v
        parts.append(
            f'<text x="{sx(v)}" y="{float(sy(0)) + 18:.6g}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
        parts.append(
            f'<text x="{float(sx(0)) - 8:.6g}" y="{float(sy(v)) + 4:.6g}" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{sx(0.5)}" y="{size - 8}" font-size="12" '
        f'text-anchor="middle">mean predicted</text>'
    )
    parts.append(
        f'<text x="14" y="{sy(0.5)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {sy(0.5)})">fraction positive</text>'
    )
    points = [
        (mp, fp)
        for mp, fp, c in zip(bins.mean_predicted, bins.fraction_positive, bins.counts)
        if c > 0
    ]
    if points:
        path = " ".join(f"{sx(mp)},{sy(fp)}" for mp, fp in points)
        parts.append(f'<polyline points="{path}" fill="none" stroke="steelblue"/>')
        for mp, fp in points:
            parts.append(
                f'<circle cx="{sx(mp)}" cy="{sy(fp)}" r="4" fill="steelblue"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(opts) -> int:
    with utf8_input(opts.reliability), open(opts.reliability, encoding="utf-8") as fh:
        text = fh.read()
    try:
        bins = bins_from_csv_text(text)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{opts.reliability}: {exc}") from None
    atomic_write_text(opts.out, render_reliability_svg(bins))
    print(f"wrote {opts.out}")
    return 0


_COMMANDS = {
    "prepare": (PREPARE_OPTS, cmd_prepare),
    "synth": (SYNTH_OPTS, cmd_synth),
    "train": (TRAIN_OPTS, cmd_train),
    "evaluate": (EVALUATE_OPTS, cmd_evaluate),
    "report": (REPORT_OPTS, cmd_report),
}


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    config = read_config(args.config) if args.config else {}
    opts_table, handler = _COMMANDS[args.command]
    opts = _resolve(args, config, opts_table)
    _check_paths(opts_table, opts, args.config)
    return handler(opts)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except (TextuqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a resource error, like a full disk
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - invariant violations
        traceback.print_exc()
        return 2
