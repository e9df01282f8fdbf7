"""Data preparation: text preprocessing, embedding lookup with mean pooling,
dual-labeller agreement partitioning, stratified splits, evaluation views,
and a synthetic dual-labeller report generator.

From the feature CSV to the models the data is one FeatureTable: ids, an
(n, D) feature matrix and int64 primary and secondary label columns. Splits
are sorted row positions into it, and a view is a table whose ``labels`` are
the labels it is scored on.

File formats (all UTF-8, LF line endings; a text field holding a line
feed, carriage return, comma or quote is quoted; the corpus CSV and the
embeddings, which users edit, may start with a byte-order mark):
  corpus CSV    id,text,primary_label,secondary_label (labels as words;
                secondary may be empty)
  feature CSV   id,label,secondary_label,f0..f{D-1}; floats printed with 17
                significant digits so a write/read round-trip is bit-exact;
                the reader skips blank lines
  embeddings    header "vocab_size dimension", then "token v1 .. vD" lines

Reports with the same tokens, in whatever order, pool to the same row, so
featurize pools each distinct sorted token sequence once. Feature CSVs are
read and written in the calling process, a block of rows at a time; the
writer formats, and the reader parses, each distinct feature row once,
matching rows by their exact bits or text. The pooled sequences, the
writer's row texts and the reader's texts not yet parsed are held at most
one block at a time; a row seen again after its block is converted again.
A CSV row that needs no quoting is written as its joined fields, and any
other through the csv module. The reader reads the file as bytes in one
pass and parses straight into one (n, D) matrix. A file with a quote (a
quoted id), a carriage return, a line of fewer than three commas (a blank
line) or bytes that are not UTF-8 takes the general path, one structured
np.loadtxt over the text, as does a file whose values np.loadtxt refuses,
so errors are reported as before.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
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
    with utf8_input(path), open(path, encoding="utf-8-sig") as fh:
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
    with utf8_input(path), open(path, encoding="utf-8-sig", newline="") as fh:
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
    leaves unquoted and every CSV reader then takes for a line end. A row
    that needs no quoting, one whose fields hold no comma, quote, carriage
    return or line feed and which is not one empty field (csv writes that
    as ""), is written as its fields joined by commas; any other goes
    through csv.writer. ``tail`` is written verbatim after the last field
    and must end the line.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")

    def write_row(fields, tail="\n"):
        line = ",".join(fields)
        if (line.count(",") != len(fields) - 1 or '"' in line or "\r" in line
                or "\n" in line or not line):
            buf.seek(0)
            buf.truncate()
            writer.writerow(fields)
            line = buf.getvalue()[:-2]
        fh.write(line)
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
    tests/helpers.py. Each distinct sorted token sequence is pooled once,
    and the rows that repeat it get its row's bits (see ``_pool``).
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

    Rows with the same tokens, in whatever order, have the same features,
    so each row's tokens are sorted and each distinct sorted sequence is
    pooled once, into the row where it is first seen; the rows that repeat
    it are then copied from that row. Only one row's tokens are held as
    strings at a time. The distinct sequences are held, and pooled, one
    block at a time, so a sequence met again after its block was pooled is
    pooled again. A block is summed longest first, one token position at a
    time: at each position the rows still adding are a prefix of the block,
    so no row is padded and each row sees only its own additions."""
    n, dim = len(rows), table.dimension
    vectors = table.vectors
    cap = max(1, _POOL_BLOCK_BYTES // (8 * dim))
    out = np.empty((n, dim))
    counts: list = []  # each row's known-token count
    source: list = []  # the row each row's features are pooled into
    firsts: dict = {}  # the block's sorted token sequences -> the row each is pooled into
    block_lengths: list = []  # the known-token count of each of the block's sequences
    known: dict = {}  # the block's known tokens -> vector rows, in first-seen order
    flat: list = []  # the block's vector rows, sequence after sequence

    def pool_block():
        block = np.fromiter(firsts.values(), np.intp, len(firsts))
        lengths = np.array(block_lengths, np.intp)
        starts = np.cumsum(lengths) - lengths
        order = np.argsort(-lengths, kind="stable")
        block, lengths, starts = block[order], lengths[order], starts[order]
        ids = np.array(flat, np.intp)
        vecs = np.array([vectors[t] for t in known], np.float64).reshape(len(known), dim)
        acc = np.zeros((len(block), dim))
        for j in range(lengths[0]):
            live = np.count_nonzero(lengths > j)
            acc[:live] += vecs[ids[starts[:live] + j]]
        out[block] = acc / np.maximum(lengths, 1)[:, None]
        for held in (firsts, block_lengths, known, flat):
            held.clear()

    for row in rows:
        tokens = preprocess_text(row.text)
        tokens.sort()
        key = " ".join(tokens)  # tokens hold no whitespace, so the key is the sequence
        first = firsts.get(key)
        if first is None:
            if len(firsts) == cap:
                pool_block()
            first = firsts[key] = len(source)
            ids = [known.setdefault(t, len(known)) for t in tokens if t in vectors]
            flat += ids
            block_lengths.append(len(ids))
            counts.append(len(ids))
        else:
            counts.append(counts[first])
        source.append(first)
    if firsts:
        pool_block()
    _copy_from_sources(out, source, cap)
    return out, np.array(counts, np.intp)


def _copy_from_sources(matrix, source, step) -> None:
    """Copy each row of ``matrix`` from the row ``source`` names for it,
    ``step`` rows at a time. A row's source is at or before it and holds
    its own values, so the rows can be copied in place."""
    source = np.array(source, np.intp)
    if np.any(source != np.arange(len(source))):
        for lo in range(0, len(source), step):
            matrix[lo:lo + step] = matrix[source[lo:lo + step]]


def _write_feature_rows(fh, table: FeatureTable, floats, texts: dict, cap: int) -> None:
    """Write the rows of ``table``, their values formatted by ``floats``.

    ``texts`` maps the bytes of a feature row to its formatted values, so a
    row seen before is not formatted again; it is emptied before it would
    hold more than ``cap`` texts. The key is bitwise, so -0.0 and +0.0 stay
    apart."""
    write_row = _csv_row_writer(fh)
    for ident, label, secondary, x in zip(table.ids, table.labels.tolist(),
                                          table.secondary.tolist(), table.features):
        key = x.tobytes()
        text = texts.get(key)
        if text is None:
            if len(texts) >= cap:
                texts.clear()
            text = texts[key] = floats % tuple(x.tolist())
        secondary = "" if secondary == NO_LABEL else LABEL_NAMES[secondary]
        write_row([ident, LABEL_NAMES[label], secondary], text)


def write_features_csv(path, table: FeatureTable) -> None:
    """Write ``table`` as a feature CSV, a block of rows at a time,
    formatting each distinct feature row once and keeping the texts of at
    most one block of rows (see _write_feature_rows)."""
    n = len(table)
    if not n:
        raise EmptyInput("no examples to write")
    dim = table.features.shape[1]
    # the id and label fields go through the csv writer; the floats, which
    # never need quoting, are formatted in one % per row
    floats = ",%.17g" * dim + "\n"
    rows_per_block = max(1, _BLOCK_BYTES // (dim * _VALUE_BYTES))
    texts: dict = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _csv_row_writer(fh)(["id", "label", "secondary_label"] + [f"f{i}" for i in range(dim)])
        for start in range(0, n, rows_per_block):
            _write_feature_rows(fh, table.take(slice(start, start + rows_per_block)), floats,
                                texts, rows_per_block)


def read_features_csv(path) -> FeatureTable:
    """The feature rows of a feature CSV as one table. Blank lines are
    skipped. A row with the wrong field count or a non-numeric or non-finite
    value raises MalformedRow naming the line; bytes that are not UTF-8
    raise NotUtf8 naming the first such line.
    """
    with utf8_input(path), open(path, encoding="utf-8", newline="") as fh:
        line = fh.readline()
        header = next(_csv_records(path, [line])) if line else None
        if header is None or header[:3] != ["id", "label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected feature header, got {header}")
        dim = len(header) - 3
        if dim < 1:
            raise MalformedRow(f"{path}: no feature columns")
        body = len(line.encode("utf-8"))
        try:
            ids, primaries, secondaries, features = _parse_feature_rows(path, fh, dim, body)
        except ValueError as exc:
            fh.seek(body)
            raise _bad_row(path, fh, dim) or MalformedRow(f"{path}: {exc}") from None
        if not np.isfinite(features).all():
            fh.seek(body)
            raise _bad_row(path, fh, dim) or MalformedRow(f"{path}: non-finite feature value")
    labels = np.array([label_to_index(w) for w in primaries], np.int64)
    secondary = np.array([NO_LABEL if w == "" else label_to_index(w) for w in secondaries],
                         np.int64)
    return FeatureTable(ids, features, labels, secondary)


def _parse_feature_rows(path, fh, dim, start):
    """(ids, labels, secondary labels, features) of the feature-CSV rows of
    ``path`` from byte offset ``start``, to the end of the file; ValueError
    for a row np.loadtxt refuses. ``fh`` is ``path`` open as text.

    A plain body, one with no quote or carriage return whose every line
    holds at least three commas and is UTF-8, is read as bytes in one pass
    that parses each distinct text of values once (see
    ``_parse_plain_body``). Any other body (quoted fields, blank lines, CR
    line ends, bytes that are not UTF-8), and a plain one whose values
    np.loadtxt refuses, is parsed from ``fh`` by one structured np.loadtxt,
    whose error is the one reported.
    """
    row_type = [("id", object), ("label", object), ("secondary", object),
                ("x", np.float64, (dim,))]
    # a decode error is a ValueError too: it leaves here as NotUtf8, so that
    # it is not taken for a bad row
    with utf8_input(path):
        plain = _parse_plain_body(path, start, dim)
        if plain is not None:
            return plain
        fh.seek(start)  # a byte offset at a line start is a text-file position
        with warnings.catch_warnings():
            # a body with no rows is an empty data set, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, dtype=row_type, delimiter=",", quotechar='"',
                               comments=None, ndmin=1)
    # the id and feature columns are copied out of the records, so that the
    # matrix is contiguous and the table keeps no records alive
    return table["id"].copy(), table["label"], table["secondary"], table["x"].copy()


def _parse_plain_body(path, start, dim):
    """_parse_feature_rows' result for the lines of ``path`` from byte
    offset ``start``, read as bytes in one pass, or None if there are none,
    a line holds a quote, a carriage return or fewer than three commas, a
    field is not UTF-8, or np.loadtxt refuses a line's values or finds
    other than ``dim``.

    Each line is split at its third comma, and each distinct text after it
    is parsed once, straight into the row of the one (n, dim) matrix where
    it is first seen; the rows that repeat it are then copied from that
    row. The texts are held, and parsed, a block at a time, so one seen
    again after its block was parsed is parsed again. The row count is
    known only at the end of the file: a body whose texts fit in one block
    is parsed there, into a matrix of its size, while a block parsed
    earlier sizes the matrix by the rows the bytes read so far promise for
    the whole body, plus a block. The matrix is resized in place if that
    was too few, and cut to the rows read at the end.
    """
    cap = max(1, _BLOCK_BYTES // (dim * _VALUE_BYTES))
    features = None
    source: list = []  # the row each row's values are parsed into
    ids, labels, secondaries = [], [], []
    tails: dict = {}  # the block's value texts -> the row each is parsed into

    def parse_tails(fb, body) -> bool:
        nonlocal features
        rows, read = len(source), fb.tell() - start
        if features is None or len(features) < rows:
            size = rows if read >= body else max(rows, rows * body // read + cap)
            if features is None:
                features = np.empty((size, dim))
            else:
                features.resize((size, dim), refcheck=False)
        values = _parse_values(tails, dim)
        if values is None:
            return False
        features[list(tails.values())] = values
        tails.clear()
        return True

    # a buffer of 1 byte would ask for line buffering, which binary files lack
    with open(path, "rb", buffering=max(_BLOCK_BYTES, 2)) as fb:
        body = os.fstat(fb.fileno()).st_size - start
        fb.seek(start)
        for line in fb:
            if b'"' in line or b"\r" in line:
                return None
            fields = line.split(b",", 3)
            if len(fields) < 4:
                return None
            ident, label, secondary, tail = fields
            first = tails.get(tail)
            if first is None:
                if not tail.isascii():
                    return None  # np.loadtxt would read its bytes as Latin-1
                if len(tails) == cap and not parse_tails(fb, body):
                    return None
                first = tails[tail] = len(source)
            source.append(first)
            try:
                ids.append(ident.decode("utf-8"))
                labels.append(label.decode("utf-8"))
                secondaries.append(secondary.decode("utf-8"))
            except UnicodeDecodeError:
                return None
        if not source or not parse_tails(fb, body):
            return None
    if len(features) > len(source):
        features.resize((len(source), dim), refcheck=False)
    _copy_from_sources(features, source, cap)
    return (np.array(ids, dtype=object), np.array(labels, dtype=object),
            np.array(secondaries, dtype=object), features)


def _parse_values(texts, dim):
    """The (len(texts), dim) array of the comma-separated values of each
    text, or None if np.loadtxt refuses one or one holds other than ``dim``
    values (loadtxt skips a blank one)."""
    try:
        values = np.loadtxt(list(texts), dtype=np.float64, delimiter=",", comments=None,
                            ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(texts), dim) else None


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
