"""Data preparation: text preprocessing, embedding lookup with mean pooling,
dual-labeller agreement partitioning, stratified splits, evaluation views,
and a synthetic dual-labeller report generator.

From the feature CSV to the models the data is one FeatureTable: ids, an
(n, D) feature matrix and int64 primary and secondary label columns. Splits
are sorted row positions into it, and a view is a table whose ``labels`` are
the labels it is scored on.

File formats (all UTF-8, LF line endings; a text field holding a line
feed, carriage return, comma or quote is quoted):
  corpus CSV    id,text,primary_label,secondary_label (labels as words;
                secondary may be empty)
  feature CSV   id,label,secondary_label,f0..f{D-1}; floats printed with 17
                significant digits so a write/read round-trip is bit-exact;
                the reader skips blank lines
  embeddings    header "vocab_size dimension", then "token v1 .. vD" lines

Feature CSVs are read and written in contiguous pieces, one per worker: a
forked process per parallel.MIN_CHUNK_BYTES (4 MiB) of CSV text, at most one
per usable CPU, the caller doing the first piece (parallel.fork_map). Smaller
files, one CPU, no os.fork or other live threads mean one process. Reads
cut only at record ends and join the pieces in file order, so the results
and the bytes written do not depend on the worker count. A writing worker
puts its piece in an unnamed temporary file beside the output, which the
caller appends; every process formats one block of rows at a time, so each
holds its live data plus one block.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import logging
import math
import os
import shutil
import tempfile
import unicodedata
import warnings
from dataclasses import dataclass, replace

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
    check_int,
    utf8_input,
)
from .labels import LABEL_NAMES, NEGATIVE, POSITIVE, UNCERTAIN, label_to_index
from .parallel import fork_map, workers_for

NO_LABEL = -1  # a FeatureTable's secondary label for a row that has none

log = logging.getLogger(__name__)

_VALUE_BYTES = 22  # a %.17g feature value and its comma, about
_BLOCK_BYTES = 1 << 20  # the unit of the readers' and writers' I/O buffers
_POOL_BLOCK_BYTES = 1 << 18  # the sums of one block of pooled rows: they stay in cache


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
    """Parse the text token-vector format; duplicate tokens keep the first.
    A vector entry that is not a finite number raises DimensionMismatch."""
    with utf8_input(path), open(path, encoding="utf-8") as fh:
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
            if not np.isfinite(vec).all():
                raise DimensionMismatch(f"{path} line {lineno}: non-finite vector entry")
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


# ---------------------------------------------------------------- corpus IO


@dataclass(frozen=True)
class CorpusRow:
    id: str
    text: str
    primary_label: int
    secondary_label: int | None


@dataclass(frozen=True)
class FeatureTable:
    """Labelled feature rows as columns, one entry per row in each."""

    ids: np.ndarray  # (n,) object array of str
    features: np.ndarray  # (n, D) float64
    labels: np.ndarray  # (n,) int64 primary labels
    secondary: np.ndarray  # (n,) int64 secondary labels, NO_LABEL where absent

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, positions) -> FeatureTable:
        """The rows at ``positions`` (an index array or a slice), in that order."""
        return FeatureTable(self.ids[positions], self.features[positions],
                            self.labels[positions], self.secondary[positions])


def _csv_records(path, lines, first_line=1):
    """csv.reader over ``lines``, the first of which is line ``first_line`` of
    ``path``. A record csv refuses, such as a field past csv's size limit
    (an unclosed quote makes one), raises MalformedRow naming the line the
    record starts on."""
    reader = csv.reader(lines)
    while True:
        lineno = first_line + reader.line_num
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MalformedRow(f"{path} line {lineno}: {exc}") from None
        yield rec


def read_corpus_csv(path) -> list:
    with utf8_input(path), open(path, encoding="utf-8", newline="") as fh:
        reader = _csv_records(path, fh)
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
    """Mean-pooled features of corpus rows as a FeatureTable, and the ids of
    the rows with no in-vocabulary token (their features are zero).

    Row for row the bits of the test oracle ``embed_mean`` in
    tests/helpers.py (see ``_pool``).
    """
    features, counts = _pool(rows, table)
    ids = np.array([row.id for row in rows], dtype=object)
    labels = np.array([row.primary_label for row in rows], np.int64)
    secondary = np.array([NO_LABEL if row.secondary_label is None else row.secondary_label
                          for row in rows], np.int64)
    return FeatureTable(ids, features, labels, secondary), ids[counts == 0].tolist()


def _pool(rows, table: EmbeddingTable):
    """(features, in-vocabulary token counts) of ``rows``, features as the
    test oracle ``embed_mean`` in tests/helpers.py computes them: a row's
    known token vectors added in sorted-token order to +0.0, then divided
    by their count; +0.0 for a row with none.

    Only one row's tokens are held as strings at a time: each known token
    gets an id in first-seen order as it is met, and after the pass the ids
    are renumbered in sorted-token order and sorted within each row. The
    rows are then summed in blocks, longest first, one token position at a
    time. At each position the rows still adding are a prefix of the block,
    so no row is padded and each row sees only its own additions."""
    n, dim = len(rows), table.dimension
    seen: dict = {}  # known token -> id, in first-seen order
    counts = np.empty(n, np.intp)

    def known_ids():
        for i, row in enumerate(rows):
            ids = [seen.setdefault(t, len(seen)) for t in preprocess_text(row.text)
                   if t in table.vectors]
            counts[i] = len(ids)
            yield from ids

    flat = np.fromiter(known_ids(), np.intp)
    # renumber in sorted-token order, so that sorted ids are sorted tokens
    vocab = sorted(seen)
    rank = np.empty(len(vocab), np.intp)
    rank[np.fromiter(map(seen.__getitem__, vocab), np.intp, len(vocab))] = np.arange(len(vocab))
    # sort each row's ids: rows are contiguous runs of flat, so one sort of
    # (row, id) keys does it
    row_of = np.repeat(np.arange(n, dtype=np.intp), counts)
    row_of *= len(vocab)
    flat = rank[flat]
    flat += row_of
    flat.sort()
    flat -= row_of
    del row_of, rank
    vectors = np.array([table.vectors[t] for t in vocab], np.float64).reshape(len(vocab), dim)
    starts = np.cumsum(counts) - counts
    order = np.argsort(-counts, kind="stable")
    out = np.empty((n, dim))
    rows_per_block = max(1, _POOL_BLOCK_BYTES // (8 * dim))
    for lo in range(0, n, rows_per_block):
        block = order[lo:lo + rows_per_block]
        lengths, first = counts[block], starts[block]
        acc = np.zeros((len(block), dim))
        for j in range(lengths[0]):
            live = np.count_nonzero(lengths > j)
            acc[:live] += vectors[flat[first[:live] + j]]
        out[block] = acc / np.maximum(lengths, 1)[:, None]
    return out, counts


def _write_feature_rows(fh, table: FeatureTable, floats) -> None:
    write_row = _csv_row_writer(fh)
    for ident, label, secondary, x in zip(table.ids, table.labels.tolist(),
                                          table.secondary.tolist(), table.features.tolist()):
        secondary = "" if secondary == NO_LABEL else LABEL_NAMES[secondary]
        write_row([ident, LABEL_NAMES[label], secondary], floats % tuple(x))


def write_features_csv(path, table: FeatureTable) -> None:
    """Write ``table`` as a feature CSV: the caller formats the first piece
    of rows into ``path``, each worker its piece into an unnamed temporary
    file in the same directory, and the caller appends those in order."""
    n = len(table)
    if not n:
        raise EmptyInput("no examples to write")
    dim = table.features.shape[1]
    # the id and label fields go through the csv writer; the floats, which
    # never need quoting, are formatted in one % per row
    floats = ",%.17g" * dim + "\n"
    k = workers_for(n * dim * _VALUE_BYTES)
    bounds = [n * i // k for i in range(k + 1)]
    rows_per_block = max(1, _BLOCK_BYTES // (dim * _VALUE_BYTES))
    directory = os.path.dirname(os.path.abspath(path))

    with open(path, "w", encoding="utf-8", newline="") as fh, contextlib.ExitStack() as stack:
        _csv_row_writer(fh)(["id", "label", "secondary_label"] + [f"f{i}" for i in range(dim)])
        # opened before the fork, so that a worker's writes land where the
        # caller reads them back
        pieces = [fh] + [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline="", dir=directory)) for _ in range(k - 1)]

        def write_part(i):
            out = pieces[i]
            for start in range(bounds[i], bounds[i + 1], rows_per_block):
                stop = min(start + rows_per_block, bounds[i + 1])
                _write_feature_rows(out, table.take(slice(start, stop)), floats)
            out.flush()  # a worker ends in os._exit, which flushes nothing

        fork_map(write_part, range(k))
        for piece in pieces[1:]:
            piece.seek(0)
            shutil.copyfileobj(piece.buffer, fh.buffer, _BLOCK_BYTES)


def read_features_csv(path) -> FeatureTable:
    """The feature rows of a feature CSV as one table. Blank lines are
    skipped. A row with the wrong field count or a non-numeric or non-finite
    value raises MalformedRow naming the line.

    The body is parsed in record-aligned byte ranges, one per worker process
    (see ``parallel.workers_for``); the ranges' rows are joined in file order. Bytes that
    are not UTF-8 raise NotUtf8 naming the first such line, in any range.
    """
    with utf8_input(path), open(path, encoding="utf-8", newline="") as fh:
        line = fh.readline()
        header = next(_csv_records(path, [line])) if line else None
        if header is None or header[:3] != ["id", "label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected feature header, got {header}")
        dim = len(header) - 3
        if dim < 1:
            raise MalformedRow(f"{path}: no feature columns")
        body, size = len(line.encode("utf-8")), os.fstat(fh.fileno()).st_size
        parse = functools.partial(_parse_feature_rows, path, dim)
        ranges = _record_ranges(path, body, size, workers_for(size - body))
        try:
            try:
                parts = fork_map(parse, ranges)
            except ValueError:
                if len(ranges) == 1:
                    raise
                # numpy numbers rows from the start of its range, and a bare
                # quote inside an unquoted field (which RFC 4180 forbids) can
                # move a cut into a record: one pass gives the file's outcome
                parts = [parse((body, size))]
        except ValueError as exc:
            fh.seek(body)
            raise _bad_row(path, fh, dim) or MalformedRow(f"{path}: {exc}") from None
        ids, primaries, secondaries, features = (np.concatenate(c) for c in zip(*parts))
        if not np.isfinite(features).all():
            fh.seek(body)
            raise _bad_row(path, fh, dim) or MalformedRow(f"{path}: non-finite feature value")
    labels = np.array([label_to_index(w) for w in primaries], np.int64)
    secondary = np.array([NO_LABEL if w == "" else label_to_index(w) for w in secondaries],
                         np.int64)
    return FeatureTable(ids, features, labels, secondary)


def _record_ranges(path, start, stop, k) -> list:
    """At most k byte ranges that tile [start, stop) of a CSV file, each
    ending at a record end near an even share of the bytes.

    A record ends at a line feed that follows an even number of quote
    characters, counted from ``start``. In RFC 4180 CSV a quote only opens,
    closes or doubles inside a quoted field, so such a line feed is never
    inside one. UTF-8 continuation bytes are never quotes or line feeds.
    A bare quote inside an unquoted field, which RFC 4180 forbids and the
    writer never produces, can put a cut inside a record; the range that
    then fails to parse makes read_features_csv redo the body in one pass.
    """
    cuts, pos, quotes = [start], start, 0
    with open(path, "rb") as fb:
        fb.seek(start)
        for j in range(1, k):
            target = start + (stop - start) * j // k
            while pos < target:  # up to the target only the quote count matters
                block = fb.read(min(_BLOCK_BYTES, target - pos))
                if not block:
                    break
                quotes += block.count(b'"')
                pos += len(block)
            while line := fb.readline():
                quotes += line.count(b'"')
                pos += len(line)
                if quotes % 2 == 0 and line.endswith(b"\n"):
                    break
            cuts.append(pos)
    cuts.append(stop)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b] or [(start, stop)]


def _parse_feature_rows(path, dim, span):
    """(ids, labels, secondary labels, features) of the feature-CSV rows in
    the byte range ``span``; ValueError for a row np.loadtxt refuses."""
    start, stop = span
    row_type = [("id", object), ("label", object), ("secondary", object),
                ("x", np.float64, (dim,))]
    # a decode error is a ValueError too: it leaves the worker as NotUtf8, so
    # that it is not taken for a bad row
    with utf8_input(path), open(path, encoding="utf-8", newline="") as fh:
        fh.seek(start)  # a byte offset at a line start is a text-file position
        with warnings.catch_warnings():
            # a range with no rows is an empty data set, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(_lines_before(fh, start, stop), dtype=row_type,
                               delimiter=",", quotechar='"', comments=None, ndmin=1)
    return table["id"], table["label"], table["secondary"], table["x"]


def _lines_before(fh, pos, stop):
    """The lines of text file ``fh``, read from byte offset ``pos``, that
    start before byte offset ``stop``."""
    for line in fh:
        if pos >= stop:
            return
        pos += len(line.encode("utf-8"))
        yield line


def _bad_row(path, fh, dim) -> MalformedRow | None:
    """The error for the first body row of ``fh`` with the wrong field count
    or a non-numeric or non-finite value, or None if every row is good.

    np.loadtxt's own messages count rows from 0 or 1 depending on the error,
    so a file it refused is scanned again here only to name the line.
    """
    for lineno, rec in enumerate(_csv_records(path, fh, first_line=2), start=2):
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


def _agreement(table: FeatureTable) -> np.ndarray:
    """The mask of the rows whose two labels agree."""
    missing = np.flatnonzero(table.secondary == NO_LABEL)
    if missing.size:
        raise MissingSecondaryLabel(
            f"row {table.ids[missing[0]]!r} has no secondary label, and the "
            "agreement split needs one on every row")
    return table.labels == table.secondary


def partition_by_agreement(table: FeatureTable):
    """(consistent, inconsistent) row positions by primary == secondary;
    exhaustive, disjoint, each in table order."""
    agree = _agreement(table)
    return np.flatnonzero(agree), np.flatnonzero(~agree)


@dataclass(frozen=True)
class SplitSpec:
    val_fraction: float = 0.10
    test_fraction: float = 0.10
    seed: int = 0

    def validate(self) -> None:
        check_int(self.seed, "seed", 0)  # numpy seeds from integers >= 0 only
        for name in ("val_fraction", "test_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:  # NaN included
                raise FractionOverflow(f"{name} must be above 0 and below 1, got {value}")
        if not self.val_fraction + self.test_fraction < 1.0:
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


def stratified_split(table: FeatureTable, spec: SplitSpec):
    """Deterministic (train, val, test) row positions, each sorted,
    stratified by class x agreement.

    Global val/test sizes are round(fraction * N); strata get floor shares
    plus largest-remainder top-ups, so per-stratum proportions stay within
    one example of the target.
    """
    spec.validate()
    n = len(table)
    if not n:
        raise EmptyInput("nothing to split")
    # strata in (class, agreement) order, each one's rows in table order
    stratum = 2 * table.labels + _agreement(table)
    keys, sizes = np.unique(stratum, return_counts=True)
    sizes = sizes.tolist()
    val_alloc = _largest_remainder(sizes, spec.val_fraction, round(spec.val_fraction * n), sizes)
    caps = [s - v for s, v in zip(sizes, val_alloc)]
    test_alloc = _largest_remainder(sizes, spec.test_fraction, round(spec.test_fraction * n), caps)

    rng = np.random.default_rng(spec.seed)
    train, val, test = [], [], []
    for key, n_val, n_test in zip(keys, val_alloc, test_alloc):
        members = np.flatnonzero(stratum == key)
        shuffled = members[rng.permutation(len(members))]
        val.append(shuffled[:n_val])
        test.append(shuffled[n_val : n_val + n_test])
        train.append(shuffled[n_val + n_test :])
    return tuple(np.sort(np.concatenate(part)) for part in (train, val, test))


# ---------------------------------------------------------------- test views


def make_test_views(test: FeatureTable, seed: int) -> dict:
    """The three evaluation views of the test split, as tables whose
    ``labels`` are the labels each view is scored on.

    NegINCONSTest scores the disagreement rows against the secondary
    labels, CheXINCONSTest against the primary ones, and CONSTest is a
    seeded size-matched subsample of the agreement rows.
    """
    consistent, inconsistent = partition_by_agreement(test)
    if not len(inconsistent):
        raise InconsistentSetEmpty("test split has no labeller-disagreement examples")
    if len(consistent) < len(inconsistent):
        raise TooFewPoints(
            f"cannot size-match: {len(consistent)} consistent vs "
            f"{len(inconsistent)} inconsistent test examples"
        )
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(len(consistent), size=len(inconsistent), replace=False))
    incons = test.take(inconsistent)
    return {
        "NegINCONSTest": replace(incons, labels=incons.secondary),
        "CheXINCONSTest": incons,
        "CONSTest": test.take(consistent[pick]),
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


NEGATIVE_WEIGHT = 0.5  # negative vs positive among consistent rows
CANNOT_EXCLUDE_WEIGHT = 0.5  # cannot-exclude vs suggestive among inconsistent rows
FILLER_COUNT = 35  # tokens in every template's context multiset; ~43 per report in all


@dataclass(frozen=True)
class SynthConfig:
    """The row count and the disagreement rate; the rest are constants."""

    n: int
    disagreement: float = 0.04

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfig("n must be >= 1")
        if not 0.0 <= self.disagreement <= 1.0:
            raise InvalidConfig("disagreement must be in [0, 1]")


def synth_vocabulary() -> list:
    """Every token the generator can emit, sorted."""
    tokens = set(CONDITIONS)
    for finding, impression, context, _, _ in _TEMPLATES.values():
        for tok in finding + impression + context:
            if tok != "{c}":
                tokens.add(tok)
    return sorted(tokens)


def synth_generate(cfg: SynthConfig, seed: int) -> list:
    """Corpus rows from cue templates; deterministic for a fixed seed.

    Each row shuffles its template's context multiset, inserts the finding
    cue at a random point, and ends with the impression sentence.
    Disagreement rows use the cannot-exclude or suggestive templates, whose
    two labellers read the hedge differently.
    """
    cfg.validate()
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    width = len(str(cfg.n - 1))
    rows = []
    for i in range(cfg.n):
        if rng.random() < cfg.disagreement:
            name = "cannot_exclude" if rng.random() < CANNOT_EXCLUDE_WEIGHT else "suggestive"
        else:
            name = "negative" if rng.random() < NEGATIVE_WEIGHT else "positive"
        finding, impression, context, primary, secondary = _TEMPLATES[name]
        cond = CONDITIONS[rng.integers(len(CONDITIONS))]
        filler = [context[j] for j in rng.permutation(len(context))]
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
