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
read and written in the calling process: the writer formats, in one pass
over the rows, and the reader parses each distinct feature row once,
matching rows by their exact bits or text. The pooled sequences, the
writer's row texts and the reader's texts not yet parsed are held at most
one block at a time; a row seen again after its block is converted again.
A CSV row that needs no quoting is written as its joined fields, and any
other through the csv module. The reader reads the file once, splitting
lines at their commas until one holds a quote or a carriage return and
the csv module reads the rest, parses into one (n, D) matrix, and names
the line of the first bad row, a value np.loadtxt refuses (such as 1_0)
and an unknown label word included. keep_rows does every in-place row
move: pooling's and the reader's repeated rows, and train's cut to its rows.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import unicodedata
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
_LABEL_INDEX = {name.encode(): i for i, name in enumerate(LABEL_NAMES)}  # word -> label
_SECONDARY_INDEX = {**_LABEL_INDEX, b"": NO_LABEL}


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
    """(line, record) for each csv.reader record of ``lines``, the first of
    which is line ``first_line`` of ``path``; ``line`` is the line the
    record starts on. A record csv refuses, such as a field past csv's size
    limit (an unclosed quote makes one), raises MalformedRow naming it."""
    reader = csv.reader(lines)
    while True:
        lineno = first_line + reader.line_num
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MalformedRow(f"{path} line {lineno}: {exc}") from None
        yield lineno, rec


def read_corpus_csv(path) -> list:
    """The rows of a corpus CSV. A record with the wrong field count or an
    unknown label word raises MalformedRow naming the line it starts on."""
    with utf8_input(path), open(path, encoding="utf-8-sig", newline="") as fh:
        records = _csv_records(path, fh)
        _, header = next(records, (1, None))
        if header != ["id", "text", "primary_label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected corpus header, got {header}")
        rows = []
        for lineno, rec in records:
            if len(rec) != 4:
                raise MalformedRow(f"{path} line {lineno}: expected 4 fields, got {len(rec)}")
            ident, text, primary, secondary = rec
            try:
                row = CorpusRow(ident, text, label_to_index(primary),
                                None if secondary == "" else label_to_index(secondary))
            except MalformedRow as exc:  # an unknown label word
                raise MalformedRow(f"{path} line {lineno}: {exc}") from None
            rows.append(row)
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
    pooled once, into the row where it is first seen; ``keep_rows`` then
    copies the rows that repeat it from that row. Only one row's tokens
    are held as strings at a time. The distinct sequences are held, and
    pooled, one block at a time, so a sequence met again after its block
    was pooled is pooled again. A block is summed longest first, one
    token position at a time: at each position the rows still adding are
    a prefix of the block, so no row is padded and each row sees only its
    own additions."""
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
    return keep_rows(out, source), np.array(counts, np.intp)


def keep_rows(matrix, rows):
    """``matrix`` cut in place to the rows at ``rows``, in that order: row i
    is set to row rows[i] a block of rows at a time, and the rest is freed,
    so no second matrix is made. Each rows[i] is at or after i (sorted,
    distinct positions), or at or before i at a row that keeps its own
    values (rows[rows[i]] == rows[i]), so no block reads a row that an
    earlier block wrote. ``matrix`` must own its data and have no views."""
    rows = np.asarray(rows, np.intp)
    if np.any(rows != np.arange(len(rows))):
        step = max(1, _BLOCK_BYTES // (matrix.itemsize * matrix.shape[1]))
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            matrix[lo:lo + len(block)] = matrix[block]
    matrix.resize((len(rows), matrix.shape[1]), refcheck=False)
    return matrix


def write_features_csv(path, table: FeatureTable) -> None:
    """Write ``table`` as a feature CSV, formatting each distinct feature
    row once. The formatted values are kept by the bytes of their row, so
    -0.0 and +0.0 stay apart, and at most one block of rows' texts is kept:
    a row met again after they were dropped is formatted again."""
    if not len(table):
        raise EmptyInput("no examples to write")
    dim = table.features.shape[1]
    # the id and label fields go through the csv writer; the floats, which
    # never need quoting, are formatted in one % per row
    floats = ",%.17g" * dim + "\n"
    cap = max(1, _BLOCK_BYTES // (dim * _VALUE_BYTES))
    texts: dict = {}  # a feature row's bytes -> its formatted values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_row = _csv_row_writer(fh)
        write_row(["id", "label", "secondary_label"] + [f"f{i}" for i in range(dim)])
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


def read_features_csv(path) -> FeatureTable:
    """The feature rows of a feature CSV as one table, read in one pass;
    blank lines are skipped. The first row with the wrong field count, a
    non-numeric or non-finite value or an unknown label word, checked in
    that order within a row, raises MalformedRow naming its line; bytes
    that are not UTF-8 raise NotUtf8 naming the first such line.

    Each distinct text of values is parsed once, a block of texts at a time,
    into the row of one (n, dim) matrix where it is first seen; a block
    parsed before the end sizes the matrix by the rows the bytes read so far
    promise, plus a block. ``keep_rows`` then fills the repeated rows.
    """
    # a buffer of 1 byte would ask for line buffering, which binary files lack
    with utf8_input(path), open(path, "rb", buffering=max(_BLOCK_BYTES, 2)) as fb:
        text = io.TextIOWrapper(fb, encoding="utf-8", newline="")
        line = text.readline()  # the header ends at a CR too, as csv's lines do
        text.detach()
        header = next(_csv_records(path, [line]))[1] if line else None
        if header is None or header[:3] != ["id", "label", "secondary_label"]:
            raise MalformedRow(f"{path}: expected feature header, got {header}")
        dim = len(header) - 3
        if dim < 1:
            raise MalformedRow(f"{path}: no feature columns")
        start = len(line.encode("utf-8"))
        fb.seek(start)
        body = os.fstat(fb.fileno()).st_size - start
        cap = max(1, _BLOCK_BYTES // (dim * _VALUE_BYTES))
        features = np.empty((0, dim))
        source: list = []  # the row each row's values are parsed into
        ids, labels, secondaries = [], [], []
        texts: dict = {}  # the block's value texts -> (the row, the line) each is first seen on

        def parse_block():
            rows, read = len(source), fb.tell() - start
            if len(features) < rows:
                size = rows if read >= body else max(rows, rows * body // read + cap)
                features.resize((size, dim), refcheck=False)
            try:
                values = _parse_values(texts, dim)
                if values is None or not np.isfinite(values).all():
                    raise _bad_text(path, dim, texts, ids)
                features[[row for row, _ in texts.values()]] = values
            finally:  # a block is parsed once, whether it passes or not
                texts.clear()

        try:
            for lineno, ident, label, secondary, values in _feature_records(path, fb, dim):
                first = texts.get(values)
                if first is None:
                    if len(texts) == cap:
                        parse_block()
                    first = texts[values] = (len(source), lineno)
                source.append(first[0])
                ids.append(ident)
                primary, second = _LABEL_INDEX.get(label), _SECONDARY_INDEX.get(secondary)
                if primary is None or second is None:
                    word = (label if primary is None else secondary).decode("utf-8")
                    raise MalformedRow(f"{path} line {lineno}: unknown label {word!r}")
                labels.append(primary)
                secondaries.append(second)
        finally:  # also when a line failed: a bad value on it or before it is named first
            if texts:
                parse_block()
    return FeatureTable(np.array(ids, dtype=object), keep_rows(features, source),
                        np.array(labels, np.int64), np.array(secondaries, np.int64))


def _feature_records(path, fb, dim):
    """(line, id, label, secondary label, values) for each row of the
    feature CSV ``fb`` from line 2 on, the labels and the comma-joined values
    as bytes; blank lines are skipped. Lines are split at their third comma
    until one holds a quote or a carriage return; the csv module reads the
    rest, each record naming the line it starts on, its values stripped as
    np.loadtxt strips them. A line of fewer than four fields, or a record of
    other than dim + 3 or with a comma in a value, raises MalformedRow."""
    for lineno, line in enumerate(fb, start=2):
        if b'"' in line or b"\r" in line:
            break
        fields = line.split(b",", 3)
        if len(fields) == 4:
            ident, label, secondary, values = fields
            yield lineno, ident.decode("utf-8"), label, secondary, values
        elif line != b"\n":
            raise _field_count(path, lineno, dim, len(fields))
    else:
        return
    fb.seek(-len(line), os.SEEK_CUR)
    text = io.TextIOWrapper(fb, encoding="utf-8", newline="")
    try:
        for lineno, rec in _csv_records(path, text, first_line=lineno):
            if not rec:
                continue
            if len(rec) != dim + 3:
                raise _field_count(path, lineno, dim, len(rec))
            values = ",".join(v.strip() for v in rec[3:])
            if values.count(",") != dim - 1:
                raise MalformedRow(f"{path} line {lineno}: non-numeric feature value")
            yield lineno, rec[0], rec[1].encode(), rec[2].encode(), values.encode()
    finally:
        text.detach()  # fb stays open: the reader sizes its matrix by fb.tell()


def _field_count(path, lineno, dim, fields) -> MalformedRow:
    return MalformedRow(f"{path} line {lineno}: expected {dim + 3} fields, got {fields}")


def _parse_values(texts, dim):
    """The (len(texts), dim) array of the comma-separated values of each
    text, or None if np.loadtxt refuses one or one holds other than ``dim``
    values (loadtxt skips a blank one). A text beyond ASCII is decoded
    first: np.loadtxt reads bytes as Latin-1."""
    lines = [t if t.isascii() else t.decode("utf-8") for t in texts]
    if not any(line.strip() for line in lines):
        return None  # np.loadtxt would warn that there is no data
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(texts), dim) else None


def _bad_text(path, dim, texts, ids) -> MalformedRow:
    """The error for the first of a block's ``texts`` whose row has the
    wrong field count or a non-numeric or non-finite value, in that order;
    the block must hold one."""
    for text, (row, lineno) in texts.items():
        fields = text.count(b",") + 4
        if fields != dim + 3:
            return _field_count(path, lineno, dim, fields)
        values = _parse_values([text], dim)
        if values is None:
            return MalformedRow(f"{path} line {lineno}: non-numeric feature value")
        if not np.isfinite(values).all():
            return MalformedRow(
                f"{path} line {lineno}: non-finite feature value in row {ids[row]!r}")


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
