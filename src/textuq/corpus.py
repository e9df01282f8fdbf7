"""Data preparation: text preprocessing, embedding lookup with mean pooling,
dual-labeller agreement partitioning, stratified splits, evaluation views,
and a synthetic dual-labeller report generator.

File formats (all UTF-8, LF line endings; a text field holding a line
feed, carriage return, comma or quote is quoted):
  corpus CSV    id,text,primary_label,secondary_label (labels as words;
                secondary may be empty)
  feature CSV   id,label,secondary_label,f0..f{D-1}; floats printed with 17
                significant digits so a write/read round-trip is bit-exact;
                the reader skips blank lines
  embeddings    header "vocab_size dimension", then "token v1 .. vD" lines
"""

from __future__ import annotations

import csv
import io
import logging
import math
import unicodedata
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    FractionOverflow,
    InconsistentSetEmpty,
    InvalidConfig,
    MalformedHeader,
    MalformedRow,
    MissingSecondaryLabel,
    TooFewPoints,
)
from .labels import LABEL_NAMES, NEGATIVE, POSITIVE, UNCERTAIN, label_to_index

log = logging.getLogger(__name__)


# ---------------------------------------------------------------- text


class _SpaceTable(dict):
    """str.translate table: punctuation code points map to a space, every
    other code point to itself. Filled on first sight of each code point,
    so it never holds more entries than there are code points."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        # Unicode punctuation everywhere; symbol characters only within ASCII,
        # so technical glyphs in other scripts pass through untouched.
        cat = unicodedata.category(ch)
        out = " " if cat.startswith("P") or (code < 128 and cat.startswith("S")) else ch
        self[code] = out
        return out


_SPACES = _SpaceTable()


def preprocess_text(raw: str) -> list:
    """Lowercase, replace punctuation with spaces, split on whitespace.

    Idempotent: rejoining the tokens with spaces and preprocessing again
    returns the same list.
    """
    return raw.lower().translate(_SPACES).split()


# ---------------------------------------------------------------- embeddings


@dataclass
class EmbeddingTable:
    dimension: int
    vectors: dict  # token -> 1-d float array of length dimension


def load_embeddings(path) -> EmbeddingTable:
    """Parse the text token-vector format; duplicate tokens keep the first."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise MalformedHeader(f"{path}: header must be 'vocab_size dimension'")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise MalformedHeader(f"{path}: non-integer header fields {header}") from None
        if vocab_size < 0 or dim < 1:
            raise MalformedHeader(f"{path}: vocab_size {vocab_size}, dimension {dim}")

        vectors: dict = {}
        data_lines = 0
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            data_lines += 1
            token = fields[0]
            if len(fields) - 1 != dim:
                raise DimensionMismatch(
                    f"{path} line {lineno}: expected {dim} values, got {len(fields) - 1}"
                )
            try:
                vec = np.array([float(v) for v in fields[1:]])
            except ValueError:
                raise DimensionMismatch(
                    f"{path} line {lineno}: non-numeric vector entry"
                ) from None
            if token in vectors:
                log.warning("%s line %d: duplicate token %r kept first", path, lineno, token)
            else:
                vectors[token] = vec
        if data_lines != vocab_size:
            raise MalformedHeader(
                f"{path}: header claims {vocab_size} tokens, file has {data_lines}"
            )
    return EmbeddingTable(dimension=dim, vectors=vectors)


def write_embeddings(path, table: EmbeddingTable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{len(table.vectors)} {table.dimension}\n")
        for token in sorted(table.vectors):
            vals = " ".join("%.17g" % v for v in table.vectors[token])
            fh.write(f"{token} {vals}\n")


def embed_mean(tokens, table: EmbeddingTable):
    """Mean of in-vocabulary token vectors; returns (vector, all_oov_flag).

    Tokens are summed in sorted order so the float result cannot depend on
    token order. All-out-of-vocabulary inputs give the zero vector, flagged.
    """
    known = sorted(t for t in tokens if t in table.vectors)
    if not known:
        return np.zeros(table.dimension), True
    acc = np.zeros(table.dimension)
    for t in known:
        acc += table.vectors[t]
    return acc / len(known), False


# ---------------------------------------------------------------- corpus IO


@dataclass(frozen=True)
class CorpusRow:
    id: str
    text: str
    primary_label: int
    secondary_label: int | None


@dataclass
class LabelledExample:
    id: str
    features: np.ndarray
    primary_label: int
    secondary_label: int | None


def read_corpus_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "text", "primary_label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected corpus header, got {header}")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 4:
                raise MalformedRow(f"{path} line {lineno}: expected 4 fields, got {len(rec)}")
            ident, text, primary, secondary = rec
            rows.append(
                CorpusRow(
                    id=ident,
                    text=text,
                    primary_label=label_to_index(primary),
                    secondary_label=None if secondary == "" else label_to_index(secondary),
                )
            )
    return rows


def _csv_row_writer(fh):
    """A function write_row(fields, tail="\\n") that writes one CSV row to fh.

    The fields are quoted as csv.writer(fh, lineterminator="\\n") quotes
    them, and also when they hold a bare carriage return, which that writer
    leaves unquoted and every CSV reader then takes for a line end. ``tail``
    is written verbatim after the last field and must end the line.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")

    def write_row(fields, tail="\n"):
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        fh.write(buf.getvalue()[:-2])
        fh.write(tail)

    return write_row


def write_corpus_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_row = _csv_row_writer(fh)
        write_row(["id", "text", "primary_label", "secondary_label"])
        for row in rows:
            secondary = "" if row.secondary_label is None else LABEL_NAMES[row.secondary_label]
            write_row([row.id, row.text, LABEL_NAMES[row.primary_label], secondary])


def featurize(rows, table: EmbeddingTable):
    """Mean-pooled features per corpus row; returns (examples, all-OOV ids)."""
    examples, flagged = [], []
    for row in rows:
        vec, all_oov = embed_mean(preprocess_text(row.text), table)
        if all_oov:
            flagged.append(row.id)
        examples.append(
            LabelledExample(
                id=row.id,
                features=vec,
                primary_label=row.primary_label,
                secondary_label=row.secondary_label,
            )
        )
    return examples, flagged


def write_features_csv(path, examples) -> None:
    if not examples:
        raise EmptyInput("no examples to write")
    dim = len(examples[0].features)
    # the id and label fields go through the csv writer; the floats, which
    # never need quoting, are formatted in one % per row
    floats = ",%.17g" * dim + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_row = _csv_row_writer(fh)
        write_row(["id", "label", "secondary_label"] + [f"f{i}" for i in range(dim)])
        for ex in examples:
            if len(ex.features) != dim:
                raise DimensionMismatch(
                    f"example {ex.id!r} has {len(ex.features)} features, expected {dim}"
                )
            secondary = "" if ex.secondary_label is None else LABEL_NAMES[ex.secondary_label]
            write_row([ex.id, LABEL_NAMES[ex.primary_label], secondary],
                      floats % tuple(ex.features.tolist()))


def read_features_csv(path) -> list:
    """Feature rows; each example's features are a row view of one (n, D)
    matrix. Blank lines are skipped. A row with the wrong field count or a
    non-numeric or non-finite value raises MalformedRow naming the line."""
    with open(path, encoding="utf-8", newline="") as fh:
        line = fh.readline()
        header = next(csv.reader([line])) if line else None
        if header is None or header[:3] != ["id", "label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected feature header, got {header}")
        dim = len(header) - 3
        if dim < 1:
            raise MalformedRow(f"{path}: no feature columns")
        body = fh.tell()
        row_type = [("id", object), ("label", object), ("secondary", object),
                    ("x", np.float64, (dim,))]
        try:
            with warnings.catch_warnings():
                # a body with no rows is an empty data set, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=row_type, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1)
        except ValueError as exc:
            fh.seek(body)
            raise _bad_row(path, fh, dim) or MalformedRow(f"{path}: {exc}") from None
        features = np.ascontiguousarray(table["x"])
        if not np.isfinite(features).all():
            fh.seek(body)
            raise _bad_row(path, fh, dim) or MalformedRow(f"{path}: non-finite feature value")
    return [
        LabelledExample(
            id=ident,
            features=x,
            primary_label=label_to_index(primary),
            secondary_label=None if secondary == "" else label_to_index(secondary),
        )
        for ident, primary, secondary, x in zip(
            table["id"].tolist(), table["label"].tolist(), table["secondary"].tolist(),
            features,
        )
    ]


def _bad_row(path, fh, dim) -> MalformedRow | None:
    """The error for the first body row of ``fh`` with the wrong field count
    or a non-numeric or non-finite value, or None if every row is good.

    np.loadtxt's own messages count rows from 0 or 1 depending on the error,
    so a file it refused is scanned again here only to name the line.
    """
    for lineno, rec in enumerate(csv.reader(fh), start=2):
        if not rec:
            continue  # a blank line, which loadtxt skips too
        if len(rec) != dim + 3:
            return MalformedRow(
                f"{path} line {lineno}: expected {dim + 3} fields, got {len(rec)}"
            )
        try:
            values = [float(v) for v in rec[3:]]
        except ValueError:
            return MalformedRow(f"{path} line {lineno}: non-numeric feature value")
        if not all(math.isfinite(v) for v in values):
            return MalformedRow(
                f"{path} line {lineno}: non-finite feature value in row {rec[0]!r}"
            )
    return None


# ---------------------------------------------------------------- splits


def partition_by_agreement(examples):
    """(consistent, inconsistent) by primary == secondary; exhaustive, disjoint."""
    consistent, inconsistent = [], []
    for ex in examples:
        if ex.secondary_label is None:
            raise MissingSecondaryLabel(ex.id)
        if ex.primary_label == ex.secondary_label:
            consistent.append(ex)
        else:
            inconsistent.append(ex)
    return consistent, inconsistent


@dataclass(frozen=True)
class SplitSpec:
    val_fraction: float = 0.10
    test_fraction: float = 0.10
    seed: int = 0

    def validate(self) -> None:
        ok = (
            0.0 < self.val_fraction < 1.0
            and 0.0 < self.test_fraction < 1.0
            and self.val_fraction + self.test_fraction < 1.0
        )
        if not ok:
            raise FractionOverflow(
                f"val {self.val_fraction} + test {self.test_fraction} must stay below 1"
            )


def _largest_remainder(sizes, fraction, target, caps):
    """Per-stratum counts: floors of fraction*size, then +1 by largest
    fractional remainder until the global target is met, never above caps."""
    exact = [fraction * s for s in sizes]
    alloc = [min(int(e), c) for e, c in zip(exact, caps)]
    remaining = target - sum(alloc)
    order = sorted(range(len(sizes)), key=lambda i: (-(exact[i] - int(exact[i])), i))
    while remaining > 0:
        progressed = False
        for i in order:
            if remaining == 0:
                break
            if alloc[i] < caps[i]:
                alloc[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            break  # every stratum is at capacity; give what we can
    return alloc


def stratified_split(examples, spec: SplitSpec):
    """Deterministic (train, val, test) stratified by class x agreement.

    Global val/test sizes are round(fraction * N); strata get floor shares
    plus largest-remainder top-ups, so per-stratum proportions stay within
    one example of the target.
    """
    spec.validate()
    if not examples:
        raise EmptyInput("nothing to split")
    strata: dict = {}
    for i, ex in enumerate(examples):
        if ex.secondary_label is None:
            raise MissingSecondaryLabel(ex.id)
        key = (ex.primary_label, ex.primary_label == ex.secondary_label)
        strata.setdefault(key, []).append(i)

    n = len(examples)
    keys = sorted(strata)
    sizes = [len(strata[k]) for k in keys]
    val_alloc = _largest_remainder(sizes, spec.val_fraction, round(spec.val_fraction * n), sizes)
    caps = [s - v for s, v in zip(sizes, val_alloc)]
    test_alloc = _largest_remainder(sizes, spec.test_fraction, round(spec.test_fraction * n), caps)

    rng = np.random.default_rng(spec.seed)
    train_idx, val_idx, test_idx = [], [], []
    for key, n_val, n_test in zip(keys, val_alloc, test_alloc):
        members = np.array(strata[key])
        shuffled = members[rng.permutation(len(members))]
        val_idx.extend(shuffled[:n_val])
        test_idx.extend(shuffled[n_val : n_val + n_test])
        train_idx.extend(shuffled[n_val + n_test :])
    return (
        [examples[i] for i in sorted(train_idx)],
        [examples[i] for i in sorted(val_idx)],
        [examples[i] for i in sorted(test_idx)],
    )


# ---------------------------------------------------------------- test views


@dataclass
class TestView:
    ids: list
    features: np.ndarray  # (n, D)
    labels: np.ndarray  # (n,) class indices


def _view(examples, labels) -> TestView:
    return TestView(
        ids=[ex.id for ex in examples],
        features=np.stack([ex.features for ex in examples]),
        labels=np.array(labels),
    )


def make_test_views(test_examples, seed: int) -> dict:
    """The three evaluation views of the test split.

    NegINCONSTest scores the disagreement examples against the secondary
    labels, CheXINCONSTest against the primary ones, and CONSTest is a
    seeded size-matched subsample of the agreement examples.
    """
    consistent, inconsistent = partition_by_agreement(test_examples)
    if not inconsistent:
        raise InconsistentSetEmpty("test split has no labeller-disagreement examples")
    if len(consistent) < len(inconsistent):
        raise TooFewPoints(
            f"cannot size-match: {len(consistent)} consistent vs "
            f"{len(inconsistent)} inconsistent test examples"
        )
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(len(consistent), size=len(inconsistent), replace=False))
    cons_sample = [consistent[i] for i in pick]
    return {
        "NegINCONSTest": _view(inconsistent, [ex.secondary_label for ex in inconsistent]),
        "CheXINCONSTest": _view(inconsistent, [ex.primary_label for ex in inconsistent]),
        "CONSTest": _view(cons_sample, [ex.primary_label for ex in cons_sample]),
    }


# ---------------------------------------------------------------- synthetic


CONDITIONS = (
    "atelectasis",
    "cardiomegaly",
    "consolidation",
    "edema",
    "effusion",
    "fracture",
    "opacity",
    "pneumothorax",
)

# Report geometry matters more than prose here. Each template owns a fixed,
# disjoint context multiset; a report shuffles it (order never reaches the
# mean-pooled features) around its cue sentence and names the condition
# exactly once. Reports from the same template then differ by one token pair
# out of ~43 while different templates share almost nothing, so same-class
# points sit far inside the kernel lengthscale set by the between-class
# median distance and the GP can generalize across conditions.

# (finding cue, impression sentence, context multiset, primary, secondary)
_TEMPLATES = {
    "negative": (
        ("no", "evidence", "of", "{c}"),
        ("impression", "clear", "without", "disease"),
        (
            "lungs", "bilaterally", "cardiomediastinal", "silhouette",
            "normal", "size", "pulmonary", "vascularity", "within", "limits",
            "visualized", "osseous", "structures", "intact", "stable",
            "appearance", "unremarkable", "exam", "hila", "calcified",
            "granuloma", "benign", "degenerative", "spine", "surgical",
            "clips", "abnormality", "expanded", "chest", "radiographic",
            "midline", "aerated", "costochondral", "junctions", "preserved",
        ),
        NEGATIVE,
        NEGATIVE,
    ),
    "positive": (
        ("{c}", "is", "present"),
        ("impression", "acute", "process", "identified"),
        (
            "worsening", "increased", "interval", "development", "dense",
            "airspace", "opacification", "involving", "lower", "lobe",
            "associated", "volume", "loss", "obscuring", "hemidiaphragm",
            "border", "bronchograms", "layering", "costophrenic", "angle",
            "blunting", "moderate", "extent", "correlate", "clinically",
            "recommended", "followup", "imaging", "progression", "noted",
            "urgent", "communication", "ordering", "provider", "documented",
        ),
        POSITIVE,
        POSITIVE,
    ),
    "cannot_exclude": (
        ("cannot", "exclude", "{c}"),
        ("impression", "equivocal", "assessment", "limited"),
        (
            "technically", "suboptimal", "penetration", "low", "inspiratory",
            "effort", "crowding", "bronchovascular", "markings", "overlying",
            "soft", "tissue", "artifact", "obscures", "detail", "repeat",
            "radiograph", "inspiration", "may", "help", "comparison",
            "unavailable", "confidently", "evaluated", "region", "partially",
            "excluded", "consider", "dedicated", "ct", "apical", "lordotic",
            "positioning", "precludes", "certainty",
        ),
        UNCERTAIN,
        NEGATIVE,
    ),
    "suggestive": (
        ("suggestive", "of", "{c}"),
        ("impression", "probable", "early", "finding"),
        (
            "subtle", "hazy", "increasing", "asymmetric", "density", "right",
            "perihilar", "distribution", "could", "represent", "developing",
            "infection", "versus", "atelectatic", "band", "clinical",
            "correlation", "advised", "borderline", "prominence", "vessels",
            "possibly", "reflecting", "mild", "fluid", "overload", "suspect",
            "earlier", "films", "reviewed", "attention", "area", "serial",
            "studies", "suggested",
        ),
        UNCERTAIN,
        POSITIVE,
    ),
}


@dataclass(frozen=True)
class SynthConfig:
    n: int
    disagreement: float = 0.04
    negative_weight: float = 0.5  # negative vs positive among consistent rows
    cannot_exclude_weight: float = 0.5  # template mix among inconsistent rows
    filler_count: int = 35  # fixed per-report context budget; ~43 tokens total

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfig("n must be >= 1")
        if not 0.0 <= self.disagreement <= 1.0:
            raise InvalidConfig("disagreement must be in [0, 1]")
        for name in ("negative_weight", "cannot_exclude_weight"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidConfig(f"{name} must be in [0, 1]")
        if self.filler_count < 0:
            raise InvalidConfig("filler_count must be >= 0")


def synth_vocabulary() -> list:
    """Every token the generator can emit, sorted."""
    tokens = set(CONDITIONS)
    for finding, impression, context, _, _ in _TEMPLATES.values():
        for tok in finding + impression + context:
            if tok != "{c}":
                tokens.add(tok)
    return sorted(tokens)


def _context_tokens(context: tuple, count: int) -> list:
    # fixed multiset per template: cycle the context pool up to the budget
    return [context[i % len(context)] for i in range(count)]


def synth_generate(cfg: SynthConfig, seed: int) -> list:
    """Corpus rows from cue templates; deterministic for a fixed seed.

    Each row shuffles its template's context multiset, inserts the finding
    cue at a random point, and ends with the impression sentence.
    Disagreement rows use the cannot-exclude or suggestive templates, whose
    two labellers read the hedge differently.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    width = len(str(cfg.n - 1))
    rows = []
    for i in range(cfg.n):
        if rng.random() < cfg.disagreement:
            name = "cannot_exclude" if rng.random() < cfg.cannot_exclude_weight else "suggestive"
        else:
            name = "negative" if rng.random() < cfg.negative_weight else "positive"
        finding, impression, context, primary, secondary = _TEMPLATES[name]
        cond = CONDITIONS[rng.integers(len(CONDITIONS))]
        base = _context_tokens(context, cfg.filler_count)
        filler = [base[j] for j in rng.permutation(len(base))]
        cut = int(rng.integers(0, len(filler) + 1))
        tokens = (
            filler[:cut]
            + [t.replace("{c}", cond) for t in finding]
            + filler[cut:]
            + list(impression)
        )
        rows.append(
            CorpusRow(
                id=f"synth-{i:0{width}d}",
                text=" ".join(tokens),
                primary_label=primary,
                secondary_label=secondary,
            )
        )
    return rows


def synth_embeddings(dim: int, seed: int) -> EmbeddingTable:
    """Random unit-norm vector per generator vocabulary token, seeded."""
    if dim < 1:
        raise InvalidConfig("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    vectors = {}
    for token in synth_vocabulary():
        v = rng.normal(size=dim)
        vectors[token] = v / np.linalg.norm(v)
    return EmbeddingTable(dimension=dim, vectors=vectors)
