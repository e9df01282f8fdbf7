import collections
import contextlib
import csv
import io
import logging
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    embed_mean,
    reference_examples,
    reference_make_test_views,
    reference_preprocess_text,
    reference_read_features_csv,
    reference_stratified_split,
    reference_write_features_csv,
    table_with_repeats,
    traced_peak,
)
from textuq import corpus as corpus_mod
from textuq.corpus import (
    NO_LABEL,
    CorpusRow,
    EmbeddingTable,
    FeatureTable,
    SplitSpec,
    SynthConfig,
    featurize,
    load_embeddings,
    make_test_views,
    partition_by_agreement,
    preprocess_text,
    read_corpus_csv,
    read_features_csv,
    stratified_split,
    synth_embeddings,
    synth_generate,
    synth_vocabulary,
    write_corpus_csv,
    write_embeddings,
    write_features_csv,
)
from textuq.errors import (
    DimensionMismatch,
    EmptyInput,
    FractionOverflow,
    InconsistentSetEmpty,
    InvalidConfig,
    MalformedHeader,
    MalformedRow,
    MissingSecondaryLabel,
    NotUtf8,
    TooFewPoints,
)
from textuq.labels import NEGATIVE, POSITIVE, UNCERTAIN


class TestPreprocess:
    def test_strips_punctuation_and_lowercases(self):
        assert preprocess_text("No edema.") == ["no", "edema"]

    def test_empty_string(self):
        assert preprocess_text("") == []

    def test_collapses_whitespace_and_newlines(self):
        assert preprocess_text("MILD  EDEMA,\nSTABLE") == ["mild", "edema", "stable"]

    def test_unicode_punctuation_splits_tokens(self):
        assert preprocess_text("mild–moderate") == ["mild", "moderate"]
        assert preprocess_text("left-sided") == ["left", "sided"]

    def test_ascii_symbols_removed_other_symbols_kept(self):
        assert preprocess_text("cost $5") == ["cost", "5"]
        assert preprocess_text("37° C") == ["37°", "c"]

    @given(st.text(max_size=80))
    def test_idempotent(self, raw):
        tokens = preprocess_text(raw)
        assert preprocess_text(" ".join(tokens)) == tokens

    @pytest.mark.parametrize("raw", [
        "İstanbul ΣΑΣ straße", "a\u00a0b\u2028c", "x¿y¡z", "x+y=z^2 ~ `q` <a|b>",
        "٣٫٥ ١٬٠٠٠", "𝔸𝕓𝕔!🙂", "ǅ ǈ ǋ", "\x00\x1f\x7f",
    ])
    def test_matches_the_reference_tokenizer_on_chosen_text(self, raw):
        assert preprocess_text(raw) == reference_preprocess_text(raw)

    @given(st.text(max_size=200))
    def test_matches_the_reference_tokenizer(self, raw):
        assert preprocess_text(raw) == reference_preprocess_text(raw)


def small_table():
    return EmbeddingTable(
        dimension=2,
        vectors={"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])},
    )


class TestEmbedMean:
    def test_two_token_mean(self):
        vec, all_oov = embed_mean(["a", "b"], small_table())
        assert np.array_equal(vec, [0.5, 0.5])
        assert all_oov is False

    def test_single_token_is_exact(self):
        vec, _ = embed_mean(["b"], small_table())
        assert np.array_equal(vec, [0.0, 1.0])

    def test_all_oov_gives_zeros_and_flag(self):
        vec, all_oov = embed_mean(["zzz"], small_table())
        assert np.array_equal(vec, np.zeros(2))
        assert all_oov is True

    def test_unknown_tokens_are_skipped(self):
        vec, all_oov = embed_mean(["a", "zzz", "b"], small_table())
        assert np.array_equal(vec, [0.5, 0.5])
        assert all_oov is False

    def test_repeated_tokens_weight_the_mean(self):
        vec, _ = embed_mean(["a", "a", "b"], small_table())
        assert np.allclose(vec, [2.0 / 3.0, 1.0 / 3.0])

    @given(st.permutations(["a", "b", "a", "zzz", "b", "b"]))
    def test_order_never_changes_the_result(self, tokens):
        base, _ = embed_mean(["a", "b", "a", "zzz", "b", "b"], small_table())
        vec, _ = embed_mean(tokens, small_table())
        assert np.array_equal(vec, base)


class TestEmbeddingsIo:
    def test_parses_a_hand_written_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar 4 5 6\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert np.array_equal(table.vectors["foo"], [1.0, 2.0, 3.0])
        assert np.array_equal(table.vectors["bar"], [4.0, 5.0, 6.0])

    def test_empty_vocabulary_is_valid(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 200\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dimension == 200
        assert table.vectors == {}

    def test_wrong_vector_width_names_the_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar 4 5\n", encoding="utf-8")
        with pytest.raises(DimensionMismatch, match="line 3"):
            load_embeddings(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nfoo 1 x\n", encoding="utf-8")
        with pytest.raises(DimensionMismatch, match="line 2"):
            load_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "-NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_entry(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\nfoo 1 2\nbar 1 {value}\n", encoding="utf-8")
        with pytest.raises(DimensionMismatch, match=f"^{path} line 3: non-finite vector entry$"):
            load_embeddings(path)

    @pytest.mark.parametrize("raw, lineno", [
        (b"\xff2 2\nfoo 1 2\nbar 3 4\n", 1),
        (b"2 2\nfoo 1 2\nb\xc3ar 3 4\n", 3),  # a truncated two-byte sequence
    ])
    def test_not_utf8_names_the_line(self, tmp_path, raw, lineno):
        path = tmp_path / "emb.txt"
        path.write_bytes(raw)
        with pytest.raises(NotUtf8, match=f"^{path} line {lineno}: not UTF-8 text"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", ["3", "a b", "-1 3", "2 0"])
    def test_bad_headers(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\nfoo 1 2\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            load_embeddings(path)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nfoo 1 2\nbar 3 4\n", encoding="utf-8")
        with pytest.raises(MalformedHeader, match="claims 3"):
            load_embeddings(path)

    def test_duplicate_tokens_keep_the_first_and_warn(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1 2\nfoo 3 4\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="textuq.corpus"):
            table = load_embeddings(path)
        assert np.array_equal(table.vectors["foo"], [1.0, 2.0])
        assert any("duplicate token" in rec.message for rec in caplog.records)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1 2\n\nbar 3 4\n", encoding="utf-8")
        assert len(load_embeddings(path).vectors) == 2

    def test_write_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(
            dimension=4,
            vectors={f"tok{i}": rng.normal(size=4) for i in range(6)},
        )
        path = tmp_path / "emb.txt"
        write_embeddings(path, table)
        back = load_embeddings(path)
        assert back.dimension == 4
        assert sorted(back.vectors) == sorted(table.vectors)
        for token, vec in table.vectors.items():
            assert np.array_equal(back.vectors[token], vec)


def corpus_rows():
    return [
        CorpusRow(id="r0", text="No edema.", primary_label=NEGATIVE, secondary_label=NEGATIVE),
        CorpusRow(
            id="r1",
            text='Suggestive of "edema", mild',
            primary_label=UNCERTAIN,
            secondary_label=POSITIVE,
        ),
        CorpusRow(id="r2", text="edema, stable", primary_label=POSITIVE, secondary_label=None),
    ]


class TestCorpusCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, corpus_rows())
        assert read_corpus_csv(path) == corpus_rows()

    def test_bytes_match_a_plain_csv_writer(self, tmp_path):
        # quoting differs from csv.writer(lineterminator="\n") only for a
        # field with a bare \r, which none of these rows has
        rows = corpus_rows() + [CorpusRow("q,1", 'say "no"\nedema', NEGATIVE, None)]
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, rows)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["id", "text", "primary_label", "secondary_label"])
        names = ["negative", "uncertain", "positive"]
        for r in rows:
            secondary = "" if r.secondary_label is None else names[r.secondary_label]
            writer.writerow([r.id, r.text, names[r.primary_label], secondary])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    @given(fields=st.lists(st.text(alphabet=st.sampled_from(
        [",", '"', "\r", "\n", "\0", "\u2028", " ", "a"]), max_size=4), max_size=5))
    @example(fields=[""])
    @example(fields=["", ""])
    @example(fields=[])
    def test_the_row_writer_writes_what_the_csv_module_writes(self, fields):
        # csv.writer with a CRLF terminator also quotes a field with a bare
        # CR; the row writer ends the row with its own tail instead
        want = io.StringIO()
        csv.writer(want, lineterminator="\r\n").writerow(fields)
        got = io.StringIO()
        corpus_mod._csv_row_writer(got)(fields, tail="|\n")
        assert got.getvalue() == want.getvalue()[:-2] + "|\n"

    def test_round_trip_keeps_a_bare_carriage_return(self, tmp_path):
        rows = [
            CorpusRow("cr\rid", "no edema\rstable", NEGATIVE, NEGATIVE),
            CorpusRow("r1", "mild\r\nedema\r", POSITIVE, None),
        ]
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, rows)
        assert b'\n"cr\rid","no edema\rstable",' in path.read_bytes()
        assert read_corpus_csv(path) == rows

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text,label\nr0,No edema.,negative\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_corpus_csv(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "id,text,primary_label,secondary_label\nr0,No edema.,negative\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="line 2"):
            read_corpus_csv(path)

    def test_rejects_unknown_label_word(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "id,text,primary_label,secondary_label\nr0,No edema.,maybe,negative\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow):
            read_corpus_csv(path)

    def test_rejects_non_utf8_naming_the_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, corpus_rows())
        raw = path.read_bytes().replace(b"r1", b"r\xff1")
        path.write_bytes(raw)
        lineno = raw[:raw.index(b"\xff")].count(b"\n") + 1
        with pytest.raises(NotUtf8, match=f"^{path} line {lineno}: not UTF-8 text"):
            read_corpus_csv(path)

    def test_an_unclosed_quote_past_the_field_limit_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text,primary_label,secondary_label\nr0,a,negative,\n"
                        'r1,"' + "word " * 40_000 + "\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{path} line 3: field larger than field limit"):
            read_corpus_csv(path)


def feature_table(ids, features, labels, secondary):
    """A FeatureTable from plain lists; None is a missing secondary label."""
    return FeatureTable(
        ids=np.array(ids, dtype=object),
        features=np.asarray(features, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        secondary=np.array([NO_LABEL if s is None else s for s in secondary], dtype=np.int64),
    )


def assert_tables_equal(got, want):
    assert got.ids.tolist() == want.ids.tolist()
    assert got.features.tobytes() == want.features.tobytes()
    assert got.features.shape == want.features.shape
    for column in ("labels", "secondary"):
        assert getattr(got, column).dtype == np.int64
        assert getattr(got, column).tolist() == getattr(want, column).tolist()


class TestFeatureTable:
    def test_take_picks_rows_in_the_given_order(self):
        table = feature_table(["a", "b", "c"], [[0.0], [1.0], [2.0]], [0, 1, 2], [0, None, 1])
        picked = table.take(np.array([2, 0]))
        assert len(picked) == 2
        assert_tables_equal(picked, feature_table(["c", "a"], [[2.0], [0.0]], [2, 0], [1, 0]))
        assert_tables_equal(table.take(slice(1, 2)),
                            feature_table(["b"], [[1.0]], [1], [None]))


def _row_bytes(tmp, table, i):
    """The bytes of row i of the table as the writer writes it."""
    one = Path(tmp) / "one.csv"
    write_features_csv(one, table.take([i]))
    raw = one.read_bytes()
    return raw[raw.index(b"\n") + 1:]


def _table(n, dim, ids=None):
    feats = np.random.default_rng(n * 10 + dim).normal(size=(n, dim))
    return feature_table([f"e{i}" for i in range(n)] if ids is None else ids, feats,
                         [i % 3 for i in range(n)],
                         [None if i % 4 == 1 else (i + 1) % 3 for i in range(n)])


class TestFeaturesCsv:
    def table(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(3, 4))
        feats[0, 0] = 1e-300  # subnormal-adjacent values must survive the trip
        feats[1, 1] = -0.1
        return feature_table(["e0", "e1", "e2"], feats, [NEGATIVE, UNCERTAIN, POSITIVE],
                             [NEGATIVE, POSITIVE, None])

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "features.csv"
        table = self.table()
        write_features_csv(path, table)
        assert_tables_equal(read_features_csv(path), table)

    def test_header_names_the_feature_columns(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv(path, self.table())
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "id,label,secondary_label,f0,f1,f2,f3"

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(EmptyInput):
            write_features_csv(tmp_path / "features.csv", self.table().take(slice(0, 0)))

    def test_bytes_match_the_reference_writer(self, tmp_path):
        # ids that need quoting, an empty id, a missing secondary label, and
        # values whose %.17g forms are unusual
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain"]
        special = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e-300]
        feats = np.random.default_rng(3).normal(size=(len(ids), len(special)))
        feats[np.arange(len(ids)), np.arange(len(special))] = special
        table = feature_table(ids, feats, [i % 3 for i in range(len(ids))],
                              [None if i % 2 else (i + 1) % 3 for i in range(len(ids))])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_features_csv(got, table)
        reference_write_features_csv(want, table)
        # the one deliberate difference: the reference left the bare \r
        # unquoted, which no reader could get back
        assert b"\ncr\rhere," in want.read_bytes()
        assert got.read_bytes() == want.read_bytes().replace(b"\ncr\rhere,", b'\n"cr\rhere",')

    @pytest.mark.parametrize("block_bytes", [None, 200, 1])
    def test_bytes_match_the_reference_writer_at_any_block_size(self, tmp_path, block_bytes):
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain", "é"] * 3
        table = _table(len(ids), 6, ids)
        table.features[0] = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e-300]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(corpus_mod, "_BLOCK_BYTES", block_bytes)
            write_features_csv(got, table)
        reference_write_features_csv(want, table)
        # the reference leaves a bare \r unquoted (see above)
        assert got.read_bytes() == want.read_bytes().replace(b"\ncr\rhere,", b'\n"cr\rhere",')
        assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]  # no other file left

    def test_the_writer_holds_one_block_of_text(self, tmp_path):
        # the writer formats a block of rows at a time (0.35 MB here);
        # formatting half of this table at once peaked at 6.6 MB
        table, _ = featurize(synth_generate(SynthConfig(n=2000), seed=5),
                             synth_embeddings(dim=200, seed=6))
        _, peak = traced_peak(write_features_csv, tmp_path / "features.csv", table)
        assert peak <= 4e6

    def test_read_rejects_non_numeric_and_non_finite_values(self, tmp_path):
        path = tmp_path / "features.csv"
        head = "id,label,secondary_label,f0,f1\ne0,negative,,0.5,0.7\n"
        path.write_text(head + "e1,positive,,0.5,abc\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match="line 3: non-numeric"):
            read_features_csv(path)
        for bad in ("nan", "inf", "-inf", "1e999"):
            path.write_text(head + f"e1,positive,,{bad},0.7\n", encoding="utf-8")
            with pytest.raises(MalformedRow, match="line 3: non-finite .* 'e1'"):
                read_features_csv(path)

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("id,label\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_features_csv(path)
        path.write_text("id,label,secondary_label\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match="no feature columns"):
            read_features_csv(path)
        path.write_text("id,label,secondary_label,f0\ne0,negative,,0.5,0.7\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match="line 2"):
            read_features_csv(path)


def _reader_outcome(read, path):
    """(ids, labels, secondary labels, feature bytes per row, column dtypes)
    or the error text."""
    try:
        table = read(path)
    except MalformedRow as exc:
        return "MalformedRow: " + str(exc)
    return (
        table.ids.tolist(),
        table.labels.tolist(),
        table.secondary.tolist(),
        [row.tobytes() for row in table.features],
        (table.features.dtype, table.labels.dtype, table.secondary.dtype),
    )


@contextlib.contextmanager
def _counted_value_parses():
    """A list of the number of texts in each ``corpus._parse_values`` call
    made inside the block."""
    parsed = []
    parse_values = corpus_mod._parse_values

    def counted(texts, dim):
        parsed.append(len(texts))
        return parse_values(texts, dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_mod, "_parse_values", counted)
        yield parsed


_AWKWARD_IDS = st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "#", " ", "a", "é"]),
                       max_size=6)
_AWKWARD_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
) | st.floats(allow_nan=False, allow_infinity=False)


def _kind_table(kind, seed):
    """A 9-row table of 3 values whose rows are all distinct ("distinct"),
    take 3 values ("repeated", "quoted", "non-ascii"), and whose ids need
    quoting ("quoted") or are valid UTF-8 beyond ASCII ("non-ascii")."""
    table = table_with_repeats(9, 9 if kind == "distinct" else 3, 3, seed=seed,
                               quoted_ids=kind == "quoted")
    if kind == "non-ascii":
        table.ids[:] = [f"é{i}\u2028ü" for i in range(9)]
    return table


class TestReadFeaturesCsv:
    """The one-pass reader against the original row-at-a-time reader."""

    @given(
        rows=st.lists(
            st.tuples(_AWKWARD_IDS, st.integers(0, 2), st.sampled_from([None, 0, 1, 2])),
            min_size=1, max_size=6,
        ),
        dim=st.integers(1, 4),
        data=st.data(),
    )
    def test_matches_the_reference_reader(self, rows, dim, data):
        feats = np.array(
            data.draw(st.lists(_AWKWARD_FLOATS, min_size=len(rows) * dim,
                               max_size=len(rows) * dim))
        ).reshape(len(rows), dim)
        ids, primaries, secondaries = zip(*rows)
        table = feature_table(ids, feats, primaries, secondaries)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features_csv(path, table)
            got = _reader_outcome(read_features_csv, path)
            assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[0] == table.ids.tolist()
        assert got[3] == [row.tobytes() for row in feats]

    @pytest.mark.parametrize("body", [
        "e1,positive,,0.5,abc\n",  # non-numeric
        "e1,positive,,0.5,\n",  # empty value
        "e1,positive,,0.5\n",  # too few fields
        "e1,positive,,0.5,0.7,0.9\n",  # too many fields
        "e1,positive\n",
        "e1,positive,,nan,0.7\n",  # non-finite
        "e1,positive,,0.5,-inf\n",
        "e1,positive,,1e999,0.7\n",
        '"two\nlines",positive,,0.5,0.7\ne2,negative,,nan,0.7\n',  # a quoted newline
        "e1,positive,,0.5,0.7\ne2,negative,,0.5,0.7\ne3,uncertain,,x,0.7\n",
        "e1,positive,,0.5,0.7\ne2,negative,,nan,x\n",  # non-numeric wins over non-finite
        "e1,positive,,inf,0.7\ne2,negative,,0.5\n",  # the first bad row wins
        "e1,positive,,0.5,0.7\ncr\rhere,negative,,0.5,0.7\n",  # an unquoted bare \r
    ])
    def test_rejects_a_bad_row_with_the_reference_message(self, tmp_path, body):
        path = tmp_path / "features.csv"
        path.write_text("id,label,secondary_label,f0,f1\ne0,negative,,0.5,0.7\n" + body,
                        encoding="utf-8", newline="")
        got = _reader_outcome(read_features_csv, path)
        assert got.startswith(f"MalformedRow: {path} line ")
        assert got == _reader_outcome(reference_read_features_csv, path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        "", "\n", "id,label\n", "id,label,secondary_label\n",
        "id,label,secondary_label,f0\n",  # header only: no rows, no warning
        "id,label,secondary_label,f0\ne0,maybe,,0.5\n",  # unknown label word
    ])
    def test_header_and_label_outcomes_match_the_reference(self, tmp_path, text):
        path = tmp_path / "features.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _reader_outcome(read_features_csv, path) == _reader_outcome(
            reference_read_features_csv, path)

    @pytest.mark.filterwarnings("error")  # an empty body is no warning either
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("id,label,secondary_label,f0\n\ne0,negative,,0.5\n\n\n"
                        "e1,positive,negative,-1\n", encoding="utf-8")
        back = read_features_csv(path)
        assert back.ids.tolist() == ["e0", "e1"] and back.features.tolist() == [[0.5], [-1.0]]
        path.write_text("id,label,secondary_label,f0\n\n\n", encoding="utf-8")
        empty = read_features_csv(path)
        assert len(empty) == 0 and empty.features.shape == (0, 1)

    def test_a_bad_row_after_blank_lines_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("id,label,secondary_label,f0\ne0,negative,,0.5\n\n"
                        "e1,positive,,abc\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{path} line 4: non-numeric"):
            read_features_csv(path)

    def test_a_value_only_python_float_accepts_is_still_malformed(self, tmp_path):
        # float("1_0") is 10.0, but the file format has no digit separators
        path = tmp_path / "features.csv"
        path.write_text("id,label,secondary_label,f0\ne0,negative,,1_0\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{path}: could not convert string '1_0'"):
            read_features_csv(path)

    def test_features_are_rows_of_one_contiguous_matrix(self, tmp_path):
        path = tmp_path / "features.csv"
        feats = np.arange(12.0).reshape(4, 3)
        write_features_csv(path, feature_table([f"e{i}" for i in range(4)], feats,
                                               [0] * 4, [0] * 4))
        back = read_features_csv(path)
        assert back.features.shape == (4, 3) and back.features.flags.c_contiguous
        assert np.array_equal(back.features, feats)

    def test_round_trip_keeps_a_bare_carriage_return(self, tmp_path):
        path = tmp_path / "features.csv"
        table = feature_table(["cr\rhere", "\r"], [[0.5, -0.0], [1e-300, 2.0]], [0, 2], [None, 1])
        write_features_csv(path, table)
        assert b'\n"cr\rhere",negative,,' in path.read_bytes()
        for read in (read_features_csv, reference_read_features_csv):
            assert_tables_equal(read(path), table)

    @given(
        rows=st.lists(
            st.tuples(_AWKWARD_IDS, st.integers(0, 2), st.sampled_from([None, 0, 1, 2]),
                      st.booleans()),
            min_size=1, max_size=8,
        ),
        dim=st.integers(1, 3),
        data=st.data(),
    )
    def test_matches_the_reference_reader_with_blank_lines(self, rows, dim, data):
        feats = np.array(
            data.draw(st.lists(_AWKWARD_FLOATS, min_size=len(rows) * dim,
                               max_size=len(rows) * dim))
        ).reshape(len(rows), dim)
        ids, primaries, secondaries, blank_before = zip(*rows)
        table = feature_table(ids, feats, primaries, secondaries)
        with tempfile.TemporaryDirectory() as tmp:
            plain, blanks = Path(tmp) / "plain.csv", Path(tmp) / "blanks.csv"
            write_features_csv(plain, table)
            # the same rows with a blank line before each flagged one
            raw = plain.read_bytes()
            blanks.write_bytes(raw[:raw.index(b"\n") + 1] + b"".join(
                (b"\n" if blank else b"") + _row_bytes(tmp, table, i)
                for i, blank in enumerate(blank_before)))
            got = _reader_outcome(read_features_csv, blanks)
            assert got == _reader_outcome(reference_read_features_csv, plain)
        assert got[0] == list(ids)
        assert got[3] == [row.tobytes() for row in feats]

    def test_non_utf8_gives_one_message_and_one_parse(self, tmp_path):
        # the decode error names the file's first undecodable line; the file
        # is larger than the text buffer the header is read through
        path = tmp_path / "features.csv"
        write_features_csv(path, _table(400, 2))
        raw = path.read_bytes().replace(b"e397,", b"e\xe9397,").replace(b"e398,", b"\xff398,")
        path.write_bytes(raw)
        parsed = []  # the bodies parsed

        def parse(path, fh, dim, start):
            parsed.append(start)
            return parse_rows(path, fh, dim, start)

        parse_rows = corpus_mod._parse_feature_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "_parse_feature_rows", parse)
            with pytest.raises(NotUtf8) as excinfo:
                read_features_csv(path)
        assert len(parsed) == 1  # not parsed again in one pass, as a bad row would be
        assert str(excinfo.value) == f"{path} line 399: not UTF-8 text (invalid continuation byte)"

    def test_non_utf8_in_the_header(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(b"id,label,secondary_label,f\xff0\ne0,negative,,0.5\n")
        with pytest.raises(NotUtf8, match=f"^{path} line 1: "):
            read_features_csv(path)

    def test_an_unclosed_quote_past_the_field_limit_names_the_line(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv(path, _table(6, 2))
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write('"e9,negative,,0.5,0.7\n' + "0.5,\n" * 40_000)
        with pytest.raises(MalformedRow, match=f"^{path} line 8: field larger than field limit"):
            read_features_csv(path)

    @pytest.mark.parametrize("bad", [
        "e9,positive,,0.5,abc\n",  # non-numeric
        "e9,positive,,0.5\n",  # too few fields
        "e9,positive,,0.5,0.7,0.9\n",  # too many fields
        "e9,positive,,nan,0.7\n",  # non-finite
        "e9,positive,,0.5,-inf\n",
        "e9,positive,,1e999,0.7\n",
        "cr\rhere,negative,,0.5,0.7\n",  # an unquoted bare \r
    ])
    @pytest.mark.parametrize("row", [0, 5, 11])
    @pytest.mark.parametrize("block_bytes", [None, 64])
    def test_a_bad_row_in_any_block_gives_the_reference_message(
            self, tmp_path, block_bytes, row, bad):
        # 12 rows of 2 values; at 64 bytes a block holds the values of one
        # row, so the bad row is in the first, a middle or the last block
        path = tmp_path / "features.csv"
        write_features_csv(path, _table(11, 2))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(row + 1, bad)
        path.write_text("".join(lines), encoding="utf-8", newline="")
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(corpus_mod, "_BLOCK_BYTES", block_bytes)
            got = _reader_outcome(read_features_csv, path)
        assert got.startswith(f"MalformedRow: {path} line {row + 2}: ")
        assert got == _reader_outcome(reference_read_features_csv, path)

    @pytest.mark.parametrize("copies", [1, 80])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_quoted_id_over_many_lines_reads_as_the_reference(self, tmp_path, where, copies):
        ids = ["e0", "e1", "e2"]
        ids[where] = 'q,"x"\n' * copies
        path = tmp_path / "features.csv"
        write_features_csv(path, _table(3, 2, ids))
        got = _reader_outcome(read_features_csv, path)
        assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[0] == ids

    @pytest.mark.parametrize("block_bytes", [None, 64])
    def test_a_value_only_numpy_refuses_is_named_by_numpys_row(self, tmp_path, block_bytes):
        # the reference reads 1_0 as 10.0; numpy's message counts rows from
        # the start of the body, whichever block of the plain parse met it
        path = tmp_path / "features.csv"
        write_features_csv(path, _table(6, 1))
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("e9,negative,,1_0\n")
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(corpus_mod, "_BLOCK_BYTES", block_bytes)
            got = _reader_outcome(read_features_csv, path)
        assert got == (f"MalformedRow: {path}: could not convert string '1_0' to float64 "
                       "at row 6, column 4.")

    @pytest.mark.parametrize("kind", ["distinct", "repeated", "quoted", "non-ascii"])
    def test_every_parse_path_gives_one_contiguous_matrix(self, tmp_path, kind):
        path = tmp_path / "features.csv"
        table = _kind_table(kind, seed=4)
        write_features_csv(path, table)
        back = read_features_csv(path)
        # a matrix of its own: no records or parts of the parse are kept alive
        assert back.features.flags.c_contiguous and back.features.base is None
        assert_tables_equal(back, table)

    @pytest.mark.parametrize("kind", ["distinct", "repeated", "quoted", "non-ascii"])
    def test_a_last_row_without_a_newline_reads_as_the_reference(self, tmp_path, kind):
        path = tmp_path / "features.csv"
        table = _kind_table(kind, seed=5)
        write_features_csv(path, table)
        path.write_bytes(path.read_bytes()[:-1])
        with _counted_value_parses() as parsed:
            got = _reader_outcome(read_features_csv, path)
        assert bool(parsed) == (kind != "quoted")  # only quoted ids leave the byte pass
        assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[3] == [row.tobytes() for row in table.features]

    @pytest.mark.parametrize("kind", ["distinct", "repeated", "quoted"])
    def test_crlf_line_ends_read_as_the_reference(self, tmp_path, kind):
        path = tmp_path / "features.csv"
        table = _kind_table(kind, seed=6)
        write_features_csv(path, table)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with _counted_value_parses() as parsed:
            got = _reader_outcome(read_features_csv, path)
        assert parsed == []  # the byte pass handed the file over at its first line
        assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[3] == [row.tobytes() for row in table.features]

    @pytest.mark.parametrize("marker", [b"", b'"', b"\r"])
    @pytest.mark.parametrize("block_bytes", [1, 7, None])
    def test_a_quote_or_cr_in_the_last_line_at_any_block_size(self, tmp_path, block_bytes,
                                                               marker):
        # a quote or CR in the last line makes the body not plain, however
        # many blocks the byte pass parsed before it; a last line without a
        # newline is read
        path = tmp_path / "features.csv"
        path.write_bytes(b"id,label,secondary_label,f0\n"
                         + b"e0,negative,,0.5\ne1,positive,,0.25\n" * 3
                         + b"e6,negative" + marker + b",,1")
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(corpus_mod, "_BLOCK_BYTES", block_bytes)
            got = _reader_outcome(read_features_csv, path)
        assert got == _reader_outcome(reference_read_features_csv, path)
        assert isinstance(got, str) == bool(marker)
        if not marker:
            assert got[0] == ["e0", "e1"] * 3 + ["e6"]


    @pytest.mark.parametrize("long_first", [False, True])
    @pytest.mark.parametrize("block_bytes", [30, 200, None])
    def test_lines_of_other_lengths_than_the_first_blocks_read_as_the_reference(
            self, tmp_path, block_bytes, long_first):
        # 60 distinct rows whose values print 1 or 23 characters long, the
        # long ones first or last: the rows the first block's bytes promise
        # are too many or too few, and the matrix is cut or grown to fit
        short = np.tile([0.5, -1.0], (30, 1))
        short[:, 0] += np.arange(30)
        long = np.full((30, 2), -1.2345678901234567e-300) * np.arange(1, 31)[:, None]
        feats = np.vstack([long, short] if long_first else [short, long])
        table = feature_table([f"é{i}" for i in range(60)], feats, [i % 3 for i in range(60)],
                              [i % 3 for i in range(60)])
        path = tmp_path / "features.csv"
        write_features_csv(path, table)
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(corpus_mod, "_BLOCK_BYTES", block_bytes)
            with _counted_value_parses() as parsed:
                back = read_features_csv(path)
        assert sum(parsed) == 60 and len(parsed) == (1 if block_bytes is None else 60 // max(
            1, block_bytes // (2 * corpus_mod._VALUE_BYTES)))
        assert back.features.flags.c_contiguous and back.features.base is None
        assert_tables_equal(back, table)
        assert _reader_outcome(read_features_csv, path) == _reader_outcome(
            reference_read_features_csv, path)


class TestRepeatedRows:
    """The writer and the reader convert every distinct feature row to and
    from text once, with the references' bytes and tables."""

    @pytest.mark.parametrize("distinct", [1, 32, 120])
    def test_round_trip_matches_the_references(self, tmp_path, distinct):
        table = table_with_repeats(120, distinct, 5, seed=distinct)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        parsed = []  # the texts parsed, per np.loadtxt call
        parse_values = corpus_mod._parse_values

        def counted(texts, dim):
            parsed.append(len(texts))
            return parse_values(texts, dim)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "_parse_values", counted)
            write_features_csv(got, table)
            outcome = _reader_outcome(read_features_csv, got)
        reference_write_features_csv(want, table)
        assert got.read_bytes() == want.read_bytes()
        assert outcome == _reader_outcome(reference_read_features_csv, got)
        assert outcome[3] == [row.tobytes() for row in table.features]
        assert sum(parsed) == distinct

    @pytest.mark.parametrize("distinct", [1, 32, 120])
    def test_round_trip_in_small_blocks_matches_the_references(self, tmp_path, distinct):
        # at 440 bytes a block holds the texts of 4 rows of 5 values; a text
        # met again after its block was parsed is parsed again
        table = table_with_repeats(120, distinct, 5, seed=distinct)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        parsed = []  # the texts parsed, per np.loadtxt call
        parse_values = corpus_mod._parse_values

        def counted(texts, dim):
            parsed.append(len(texts))
            return parse_values(texts, dim)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "_BLOCK_BYTES", 440)
            mp.setattr(corpus_mod, "_parse_values", counted)
            write_features_csv(got, table)
            outcome = _reader_outcome(read_features_csv, got)
        reference_write_features_csv(want, table)
        assert got.read_bytes() == want.read_bytes()
        assert outcome == _reader_outcome(reference_read_features_csv, got)
        assert outcome[3] == [row.tobytes() for row in table.features]
        assert max(parsed) <= 4 and distinct <= sum(parsed) <= 120
        assert sum(parsed) == distinct if distinct <= 4 else len(parsed) > 1

    def test_rows_that_differ_in_the_sign_of_a_zero_stay_apart(self, tmp_path):
        path = tmp_path / "features.csv"
        table = feature_table(["a", "b", "c", "d"], [[0.0, 1.0], [-0.0, 1.0]] * 2,
                              [0] * 4, [0] * 4)
        write_features_csv(path, table)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",", 3)[3] for line in lines] == ["0,1", "-0,1"] * 2
        back = read_features_csv(path)
        assert np.signbit(back.features[:, 0]).tolist() == [False, True] * 2
        assert_tables_equal(back, table)

    @pytest.mark.parametrize("quoted", [0, -1])
    def test_a_quoted_id_first_or_last_reads_as_the_reference(self, tmp_path, quoted):
        table = table_with_repeats(40, 4, 3, seed=7)
        table.ids[quoted] = 'a,"b"'
        path = tmp_path / "features.csv"
        write_features_csv(path, table)
        with _counted_value_parses() as parsed:
            got = _reader_outcome(read_features_csv, path)
        assert parsed == []  # the byte pass handed the file over before its first parse
        assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[0] == table.ids.tolist()
        assert got[3] == [row.tobytes() for row in table.features]

    @pytest.mark.parametrize("bad, problem", [
        ("abc", "non-numeric feature value"),
        ("nan", "non-finite feature value in row 'e{}'"),
    ])
    def test_a_bad_value_in_a_repeated_row_is_named_at_its_first_line(
            self, tmp_path, bad, problem):
        path = tmp_path / "features.csv"
        write_features_csv(path, table_with_repeats(60, 3, 4, seed=11))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        target = lines[45].split(",", 3)[3]
        rows = [i for i, line in enumerate(lines) if line.split(",", 3)[3] == target]
        assert len(rows) > 1
        for i in rows:
            head = lines[i][: len(lines[i]) - len(target)]
            lines[i] = head + bad + target[target.index(","):]
        path.write_text("".join(lines), encoding="utf-8")
        got = _reader_outcome(read_features_csv, path)
        first = rows[0] + 1  # lines[0] is line 1, the header
        assert got == f"MalformedRow: {path} line {first}: " + problem.format(rows[0] - 1)
        assert got == _reader_outcome(reference_read_features_csv, path)

    def test_the_writers_dict_holds_at_most_one_block_of_texts(self, tmp_path):
        seen = []  # (texts held, the cap) after each block
        write_rows = corpus_mod._write_feature_rows

        def spied(fh, table, floats, texts, cap):
            write_rows(fh, table, floats, texts, cap)
            seen.append((len(texts), cap))

        # 2 rows of 4 values per 200-byte block: 25 blocks of distinct rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "_BLOCK_BYTES", 200)
            mp.setattr(corpus_mod, "_write_feature_rows", spied)
            write_features_csv(tmp_path / "features.csv", table_with_repeats(50, 50, 4, seed=3))
        assert seen == [(2, 2)] * 25

    def test_reading_all_distinct_rows_peaks_as_the_structured_reader_did(self, tmp_path):
        # 2000 distinct rows of 200 values in one process: one structured
        # np.loadtxt over the whole range peaked at 7.24 MB by tracemalloc
        path = tmp_path / "features.csv"
        table = table_with_repeats(2000, 2000, 200, seed=12)
        write_features_csv(path, table)
        back, peak = traced_peak(read_features_csv, path)
        assert_tables_equal(back, table)
        assert peak <= 7.3e6

    def test_reading_repeated_rows_holds_one_copy_of_the_matrix(self, tmp_path):
        # 10 000 rows of 32 distinct values, as on the benchmark corpus, peak
        # at 19.8 MB: the 16 MB matrix, 1.8 MB of id and label strings and
        # the 2 MB finiteness mask; parsing two halves and joining them
        # peaked at 36.1 MB
        path = tmp_path / "features.csv"
        table = table_with_repeats(10_000, 32, 200, seed=13)
        write_features_csv(path, table)
        back, peak = traced_peak(read_features_csv, path)
        assert_tables_equal(back, table)
        assert peak <= table.features.nbytes + corpus_mod._BLOCK_BYTES + 3e6


class TestFeaturize:
    def test_flags_all_oov_rows(self):
        rows = [
            CorpusRow(id="r0", text="a b", primary_label=0, secondary_label=0),
            CorpusRow(id="r1", text="zzz qqq", primary_label=1, secondary_label=None),
        ]
        table, flagged = featurize(rows, small_table())
        assert flagged == ["r1"]
        assert_tables_equal(table, feature_table(["r0", "r1"], [[0.5, 0.5], [0.0, 0.0]],
                                                 [0, 1], [0, None]))

    def test_applies_preprocessing_before_lookup(self):
        rows = [CorpusRow(id="r0", text="A, B!", primary_label=0, secondary_label=0)]
        table, flagged = featurize(rows, small_table())
        assert flagged == []
        assert np.array_equal(table.features, [[0.5, 0.5]])

    def test_matches_embed_mean_bit_for_bit_on_the_criterion_5_corpus(self):
        # what `synth --n 10000 --seed 5 --dim 200` writes
        rows = synth_generate(SynthConfig(n=10000), seed=5)
        table = synth_embeddings(dim=200, seed=6)
        features, flagged = featurize(rows, table)
        assert flagged == []
        assert features.ids.tolist() == [row.id for row in rows]
        assert features.labels.tolist() == [row.primary_label for row in rows]
        assert features.secondary.tolist() == [row.secondary_label for row in rows]
        for row, got in zip(rows, features.features):
            want, _ = embed_mean(preprocess_text(row.text), table)
            assert got.tobytes() == want.tobytes(), row.id

    def test_adds_in_sorted_token_order_whatever_order_tokens_are_first_seen(self):
        # the tokens are first seen as c, b, a, the reverse of sorted order;
        # added a, b, c they sum to 0, added c, b, a to 1
        table = EmbeddingTable(dimension=1, vectors={
            "a": np.array([1.0]), "b": np.array([1e16]), "c": np.array([-1e16])})
        texts = ["c b a", "b a c", "a c b c"]
        rows = [CorpusRow(id=f"r{i}", text=t, primary_label=0, secondary_label=None)
                for i, t in enumerate(texts)]
        features, _ = featurize(rows, table)
        want = [embed_mean(preprocess_text(t), table)[0] for t in texts]
        assert [x.tobytes() for x in features.features] == [v.tobytes() for v in want]
        assert features.features[0, 0] == 0.0

    def test_peak_memory_stays_below_twice_the_features(self):
        # holding every row's token strings at once peaked at 3.5 times the
        # feature matrix on this corpus
        rows = synth_generate(SynthConfig(n=2000), seed=5)
        table = synth_embeddings(dim=200, seed=6)
        (features, _), peak = traced_peak(featurize, rows, table)
        assert peak <= 2 * features.features.nbytes

    def test_reports_with_no_repeated_tokens_pool_a_block_at_a_time(self):
        # 2000 distinct token multisets of 200-dimensional vectors peak at
        # 4.3 MB with their sequences pooled a block at a time, and at
        # 12.3 MB pooled all at once
        rng = np.random.default_rng(7)
        vocab = synth_vocabulary()
        rows = [CorpusRow(f"r{i}", " ".join(rng.choice(vocab, size=40)), 0, None)
                for i in range(2000)]
        (features, _), peak = traced_peak(featurize, rows, synth_embeddings(dim=200, seed=6))
        assert peak <= 2 * features.features.nbytes

    @pytest.mark.parametrize("pool_block_bytes", [None, 48])
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "-0", "zzz", "qq", "A", "b!"]),
                     max_size=12).map(" ".join),
            max_size=9,
        ),
    )
    @example(texts=["zzz", "qq zzz", "zzz", "", "zzz qq", "", "a b", "b a", "zzz"])
    @example(texts=["a", "b", "c", "a b", "b c", "a", "c a", "b", "a c"])
    def test_matches_embed_mean_on_duplicate_oov_and_empty_rows(self, pool_block_bytes, texts):
        # "-0" is a -0.0 vector: only a +0.0 start keeps it from the sum's sign.
        # At 48 bytes a block holds 2 distinct token sequences of 3 values,
        # so a sequence met again after its block was pooled is pooled again
        table = EmbeddingTable(dimension=3, vectors={
            "a": np.array([1.0, -2.5, 1e-300]), "b": np.array([0.1, 0.2, -1e300]),
            "c": np.array([5e-324, -0.0, 3.0]), "0": np.array([-0.0, -0.0, -0.0]),
        })
        rows = [CorpusRow(id=f"r{i}", text=t, primary_label=0, secondary_label=None)
                for i, t in enumerate(texts)]
        with pytest.MonkeyPatch.context() as mp:
            if pool_block_bytes is not None:
                mp.setattr(corpus_mod, "_POOL_BLOCK_BYTES", pool_block_bytes)
            features, flagged = featurize(rows, table)
        want = [embed_mean(preprocess_text(t), table) for t in texts]
        assert flagged == [row.id for row, (_, oov) in zip(rows, want) if oov]
        assert features.features.shape == (len(texts), 3)
        assert [x.tobytes() for x in features.features] == [v.tobytes() for v, _ in want]


def labelled(pairs, features=None):
    """A table of rows x0, x1, ... with the given (primary, secondary) labels;
    row i's features are [i, 0] unless given."""
    n = len(pairs)
    if features is None:
        features = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return feature_table([f"x{i}" for i in range(n)], features,
                         [p for p, _ in pairs], [s for _, s in pairs])


class TestPartition:
    def test_splits_by_labeller_agreement(self):
        table = labelled([(NEGATIVE, NEGATIVE), (UNCERTAIN, POSITIVE), (POSITIVE, POSITIVE)])
        consistent, inconsistent = partition_by_agreement(table)
        assert consistent.tolist() == [0, 2]
        assert inconsistent.tolist() == [1]

    def test_missing_secondary_label_names_the_row(self):
        with pytest.raises(MissingSecondaryLabel,
                           match="^row 'x1' has no secondary label, and the agreement split "
                                 "needs one on every row$"):
            partition_by_agreement(labelled([(0, 0), (1, None), (2, None)]))


class TestSplitSpec:
    def test_default_is_valid(self):
        SplitSpec().validate()

    @pytest.mark.parametrize("val, test, message", [
        (0.0, 0.1, "val_fraction must be above 0"),
        (0.1, 0.0, "test_fraction must be above 0"),
        (0.5, 0.5, "val 0.5 + test 0.5 must stay below 1"),
        (-0.1, 0.1, "val_fraction must be above 0"),
        (0.1, 1.0, "test_fraction must be above 0 and below 1, got 1.0"),
        (float("nan"), 0.1, "val_fraction must be above 0 and below 1, got nan"),
    ])
    def test_rejects_degenerate_fractions(self, val, test, message):
        with pytest.raises(FractionOverflow, match=re.escape(message)):
            SplitSpec(val_fraction=val, test_fraction=test).validate()


class TestStratifiedSplit:
    def test_single_stratum_hits_exact_sizes(self):
        table = labelled([(NEGATIVE, NEGATIVE)] * 100)
        train, val, test = stratified_split(table, SplitSpec(seed=0))
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_six_strata_allocation(self):
        sizes = [397, 251, 149, 103, 59, 41]
        strata = [
            (NEGATIVE, NEGATIVE), (POSITIVE, POSITIVE), (UNCERTAIN, UNCERTAIN),
            (NEGATIVE, POSITIVE), (POSITIVE, NEGATIVE), (UNCERTAIN, POSITIVE),
        ]
        table = labelled([pair for size, pair in zip(sizes, strata) for _ in range(size)])
        train, val, test = stratified_split(table, SplitSpec(seed=1))
        assert len(val) == 100 and len(test) == 100
        assert len(train) + len(val) + len(test) == 1000
        for size, (p, s) in zip(sizes, strata):
            in_val = np.count_nonzero((table.labels[val] == p) & (table.secondary[val] == s))
            assert abs(in_val - 0.1 * size) <= 1.0, (p, s)

    def test_partitions_without_loss_or_leak(self):
        rng = np.random.default_rng(2)
        table = labelled(rng.integers(0, 3, size=(137, 2)).tolist())
        positions = np.concatenate(stratified_split(table, SplitSpec(seed=3)))
        assert sorted(positions.tolist()) == list(range(137))

    def test_deterministic_and_seed_sensitive(self):
        table = labelled([(i % 3, i % 3) for i in range(90)])
        val_a = stratified_split(table, SplitSpec(seed=4))[1]
        val_b = stratified_split(table, SplitSpec(seed=4))[1]
        val_c = stratified_split(table, SplitSpec(seed=5))[1]
        assert val_a.tolist() == val_b.tolist()
        assert val_a.tolist() != val_c.tolist()

    def test_outputs_preserve_corpus_order(self):
        table = labelled([(i % 3, i % 3) for i in range(60)])
        for part in stratified_split(table, SplitSpec(seed=6)):
            assert part.tolist() == sorted(part.tolist())

    def test_rejects_empty_and_unlabelled(self):
        with pytest.raises(EmptyInput):
            stratified_split(labelled([]), SplitSpec())
        with pytest.raises(MissingSecondaryLabel, match="^row 'x0' has no secondary label"):
            stratified_split(labelled([(0, None)]), SplitSpec())


def view_fixture(n_cons=8, n_incons=3):
    return labelled([(NEGATIVE, NEGATIVE)] * n_cons
                    + [(UNCERTAIN, POSITIVE if j % 2 else NEGATIVE) for j in range(n_incons)])


class TestMakeTestViews:
    def test_view_layout(self):
        views = make_test_views(view_fixture(), seed=0)
        assert sorted(views) == ["CONSTest", "CheXINCONSTest", "NegINCONSTest"]
        neg, chex = views["NegINCONSTest"], views["CheXINCONSTest"]
        assert neg.ids.tolist() == chex.ids.tolist()
        assert np.array_equal(neg.features, chex.features)
        assert np.all(neg.labels != chex.labels)
        assert np.all(chex.labels == UNCERTAIN)
        assert len(views["CONSTest"]) == len(neg)

    def test_consistent_sample_uses_primary_labels(self):
        views = make_test_views(view_fixture(), seed=0)
        cons = views["CONSTest"]
        assert np.all(cons.labels == NEGATIVE)
        assert set(cons.ids.tolist()) <= {f"x{i}" for i in range(8)}

    def test_deterministic_subsample(self):
        a = make_test_views(view_fixture(n_cons=40, n_incons=5), seed=7)
        b = make_test_views(view_fixture(n_cons=40, n_incons=5), seed=7)
        c = make_test_views(view_fixture(n_cons=40, n_incons=5), seed=8)
        assert a["CONSTest"].ids.tolist() == b["CONSTest"].ids.tolist()
        assert a["CONSTest"].ids.tolist() != c["CONSTest"].ids.tolist()

    def test_requires_some_disagreement(self):
        with pytest.raises(InconsistentSetEmpty):
            make_test_views(view_fixture(n_incons=0), seed=0)

    def test_requires_enough_consistent_examples(self):
        with pytest.raises(TooFewPoints):
            make_test_views(view_fixture(n_cons=2, n_incons=3), seed=0)


@st.composite
def _label_pairs(draw):
    """(primary, secondary) label rows, three in five agreeing; up to 30 rows
    over 6 strata leave many strata empty or with one row. Half the draws
    take the secondary label of one row away."""
    rows = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0, 0, 0, 1, 2])),
                         max_size=30))
    pairs = [(p, (p + shift) % 3) for p, shift in rows]
    missing = draw(st.none() | st.integers(0, len(pairs) - 1)) if pairs else None
    if missing is not None:
        pairs[missing] = (pairs[missing][0], None)
    return pairs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyInput, MissingSecondaryLabel, InconsistentSetEmpty, TooFewPoints) as exc:
        return type(exc).__name__


class TestMatchesTheListReference:
    """The table versions of stratified_split and make_test_views against
    the original ones over one record per row (tests/helpers.py)."""

    @given(pairs=_label_pairs(), val=st.sampled_from([0.1, 0.2, 0.45]),
           test=st.sampled_from([0.1, 0.3]), seed=st.integers(0, 2**32))
    def test_stratified_split_picks_the_same_rows(self, pairs, val, test, seed):
        table = labelled(pairs)
        spec = SplitSpec(val_fraction=val, test_fraction=test, seed=seed)
        got = _outcome(stratified_split, table, spec)
        want = _outcome(reference_stratified_split, reference_examples(table), spec)
        if isinstance(want, str):
            assert got == want
        else:
            assert [part.tolist() for part in got] == [
                [int(ex.id[1:]) for ex in part] for part in want]

    @given(pairs=_label_pairs(), seed=st.integers(0, 2**32), data=st.data())
    def test_make_test_views_picks_the_same_rows(self, pairs, seed, data):
        features = np.array(data.draw(st.lists(_AWKWARD_FLOATS, min_size=2 * len(pairs),
                                               max_size=2 * len(pairs))))
        table = labelled(pairs, features.reshape(len(pairs), 2))
        got = _outcome(make_test_views, table, seed)
        want = _outcome(reference_make_test_views, reference_examples(table), seed)
        if isinstance(want, str):
            assert got == want
            return
        assert list(got) == list(want)
        for name, (ids, feats, labels) in want.items():
            assert got[name].ids.tolist() == ids
            assert got[name].features.tobytes() == feats.tobytes()
            assert got[name].labels.dtype == labels.dtype
            assert got[name].labels.tolist() == labels.tolist()


class TestSynthConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n=0).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(n=10, disagreement=1.5).validate()


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n=50)
        assert synth_generate(cfg, seed=0) == synth_generate(cfg, seed=0)
        assert synth_generate(cfg, seed=0) != synth_generate(cfg, seed=1)

    def test_zero_disagreement_is_fully_consistent(self):
        rows = synth_generate(SynthConfig(n=200, disagreement=0.0), seed=2)
        assert all(r.primary_label == r.secondary_label for r in rows)

    def test_realized_disagreement_near_target(self):
        rows = synth_generate(SynthConfig(n=10_000, disagreement=0.04), seed=0)
        frac = np.mean([r.primary_label != r.secondary_label for r in rows])
        assert 0.02 <= frac <= 0.06

    def test_disagreement_rows_are_hedged_reads(self):
        rows = synth_generate(SynthConfig(n=2000, disagreement=0.2), seed=3)
        for row in rows:
            if row.primary_label != row.secondary_label:
                assert row.primary_label == UNCERTAIN
                assert row.secondary_label in (NEGATIVE, POSITIVE)

    def test_ids_are_zero_padded_and_unique(self):
        rows = synth_generate(SynthConfig(n=100), seed=4)
        assert rows[0].id == "synth-00"
        assert rows[-1].id == "synth-99"
        assert len({r.id for r in rows}) == 100

    def test_tokens_stay_within_the_generator_vocabulary(self):
        vocab = set(synth_vocabulary())
        rows = synth_generate(SynthConfig(n=100), seed=5)
        for row in rows:
            assert set(preprocess_text(row.text)) <= vocab

    def test_every_report_holds_its_templates_whole_context(self):
        # each template's context multiset has FILLER_COUNT tokens, and a
        # report carries it whole around the cue, then the impression
        templates = corpus_mod._TEMPLATES.values()
        assert {len(context) for _, _, context, _, _ in templates} == {corpus_mod.FILLER_COUNT}
        for row in synth_generate(SynthConfig(n=200, disagreement=0.2), seed=8):
            tokens = row.text.split()
            owners = [(finding, impression) for finding, impression, context, _, _ in templates
                      if not collections.Counter(context) - collections.Counter(tokens)]
            assert len(owners) == 1
            finding, impression = owners[0]
            assert tokens[-len(impression):] == list(impression)
            assert len(tokens) == corpus_mod.FILLER_COUNT + len(finding) + len(impression)

    def test_featurization_never_flags_synth_rows(self):
        rows = synth_generate(SynthConfig(n=50), seed=6)
        _, flagged = featurize(rows, synth_embeddings(dim=8, seed=7))
        assert flagged == []


class TestSynthEmbeddings:
    def test_covers_the_vocabulary_with_unit_vectors(self):
        table = synth_embeddings(dim=16, seed=0)
        assert sorted(table.vectors) == synth_vocabulary()
        for vec in table.vectors.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic(self):
        a = synth_embeddings(dim=8, seed=1)
        b = synth_embeddings(dim=8, seed=1)
        assert all(np.array_equal(a.vectors[t], b.vectors[t]) for t in a.vectors)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InvalidConfig):
            synth_embeddings(dim=0, seed=0)
