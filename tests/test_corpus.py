import contextlib
import csv
import io
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    reference_preprocess_text,
    reference_read_features_csv,
    reference_write_features_csv,
)
from textuq import corpus as corpus_mod
from textuq.corpus import (
    CorpusRow,
    EmbeddingTable,
    LabelledExample,
    SplitSpec,
    SynthConfig,
    embed_mean,
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
    TooFewPoints,
)
from textuq.labels import NEGATIVE, POSITIVE, UNCERTAIN
from textuq.parallel import fork_map


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


class TestFeaturesCsv:
    def examples(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(3, 4))
        feats[0, 0] = 1e-300  # subnormal-adjacent values must survive the trip
        feats[1, 1] = -0.1
        labels = [NEGATIVE, UNCERTAIN, POSITIVE]
        secondary = [NEGATIVE, POSITIVE, None]
        return [
            LabelledExample(id=f"e{i}", features=feats[i], primary_label=labels[i],
                            secondary_label=secondary[i])
            for i in range(3)
        ]

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "features.csv"
        examples = self.examples()
        write_features_csv(path, examples)
        back = read_features_csv(path)
        assert [ex.id for ex in back] == ["e0", "e1", "e2"]
        for orig, loaded in zip(examples, back):
            assert np.array_equal(loaded.features, orig.features)
            assert loaded.primary_label == orig.primary_label
            assert loaded.secondary_label == orig.secondary_label

    def test_header_names_the_feature_columns(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features_csv(path, self.examples())
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "id,label,secondary_label,f0,f1,f2,f3"

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(EmptyInput):
            write_features_csv(tmp_path / "features.csv", [])

    def test_bytes_match_the_reference_writer(self, tmp_path):
        # ids that need quoting, an empty id, a missing secondary label, and
        # values whose %.17g forms are unusual
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain"]
        special = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e-300]
        feats = np.random.default_rng(3).normal(size=(len(ids), len(special)))
        feats[np.arange(len(ids)), np.arange(len(special))] = special
        examples = [
            LabelledExample(id=ident, features=feats[i], primary_label=i % 3,
                            secondary_label=None if i % 2 else (i + 1) % 3)
            for i, ident in enumerate(ids)
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_features_csv(got, examples)
        reference_write_features_csv(want, examples)
        # the one deliberate difference: the reference left the bare \r
        # unquoted, which no reader could get back
        assert b"\ncr\rhere," in want.read_bytes()
        assert got.read_bytes() == want.read_bytes().replace(b"\ncr\rhere,", b'\n"cr\rhere",')

    def test_write_rejects_ragged_features(self, tmp_path):
        examples = self.examples()
        examples[2].features = examples[2].features[:3]
        with pytest.raises(DimensionMismatch, match="'e2'"):
            write_features_csv(tmp_path / "features.csv", examples)

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
    """(ids, labels, secondary labels, feature bytes) or the error text."""
    try:
        examples = read(path)
    except MalformedRow as exc:
        return "MalformedRow: " + str(exc)
    return (
        [ex.id for ex in examples],
        [ex.primary_label for ex in examples],
        [ex.secondary_label for ex in examples],
        [ex.features.tobytes() for ex in examples],
    )


_AWKWARD_IDS = st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "#", " ", "a", "é"]),
                       max_size=6)
_AWKWARD_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
) | st.floats(allow_nan=False, allow_infinity=False)


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
        examples = [
            LabelledExample(id=ident, features=feats[i], primary_label=primary,
                            secondary_label=secondary)
            for i, (ident, primary, secondary) in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features_csv(path, examples)
            got = _reader_outcome(read_features_csv, path)
            assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[0] == [ex.id for ex in examples]
        assert got[3] == [ex.features.tobytes() for ex in examples]

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
        assert [(ex.id, ex.features.tolist()) for ex in back] == [("e0", [0.5]), ("e1", [-1.0])]
        path.write_text("id,label,secondary_label,f0\n\n\n", encoding="utf-8")
        assert read_features_csv(path) == []

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
        write_features_csv(path, [
            LabelledExample(id=f"e{i}", features=feats[i], primary_label=0, secondary_label=0)
            for i in range(4)
        ])
        back = read_features_csv(path)
        matrix = back[0].features.base
        assert matrix.shape == (4, 3) and matrix.flags.c_contiguous
        assert all(ex.features.base is matrix for ex in back)
        assert np.array_equal(matrix, feats)

    def test_round_trip_keeps_a_bare_carriage_return(self, tmp_path):
        path = tmp_path / "features.csv"
        examples = [
            LabelledExample(id="cr\rhere", features=np.array([0.5, -0.0]), primary_label=0,
                            secondary_label=None),
            LabelledExample(id="\r", features=np.array([1e-300, 2.0]), primary_label=2,
                            secondary_label=1),
        ]
        write_features_csv(path, examples)
        assert b'\n"cr\rhere",negative,,' in path.read_bytes()
        for read in (read_features_csv, reference_read_features_csv):
            back = read(path)
            assert [ex.id for ex in back] == ["cr\rhere", "\r"]
            assert [ex.features.tobytes() for ex in back] == [
                ex.features.tobytes() for ex in examples]


@contextlib.contextmanager
def in_workers(k, block_bytes=None):
    """Feature-CSV reads and writes use up to k worker processes whatever the
    file size. Yields the list of the item counts fork_map is called with."""
    calls = []

    def counting_fork_map(fn, items):
        items = list(items)
        calls.append(len(items))
        return fork_map(fn, items)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_mod, "usable_cpus", lambda: k)
        mp.setattr(corpus_mod, "_MIN_CHUNK_BYTES", 1)
        mp.setattr(corpus_mod, "fork_map", counting_fork_map)
        if block_bytes is not None:
            mp.setattr(corpus_mod, "_BLOCK_BYTES", block_bytes)
        yield calls


def _row_bytes(tmp, ex):
    """The bytes of one example's row as the writer writes it."""
    one = Path(tmp) / "one.csv"
    write_features_csv(one, [ex])
    raw = one.read_bytes()
    return raw[raw.index(b"\n") + 1:]


def _examples(n, dim, ids=None):
    feats = np.random.default_rng(n * 10 + dim).normal(size=(n, dim))
    return [
        LabelledExample(id=f"e{i}" if ids is None else ids[i], features=feats[i],
                        primary_label=i % 3, secondary_label=None if i % 4 == 1 else (i + 1) % 3)
        for i in range(n)
    ]


class TestFeaturesCsvInWorkers:
    """Reads and writes split over forked workers give the one-process results."""

    @pytest.mark.parametrize("cpus, nbytes, want", [
        (4, 0, 1),
        (4, (8 << 20) - 1, 1),  # one worker per full 4 MiB
        (4, 8 << 20, 2),
        (4, 100 << 20, 4),  # never more than the usable CPUs
        (1, 100 << 20, 1),
    ])
    def test_worker_rule(self, monkeypatch, cpus, nbytes, want):
        monkeypatch.setattr(corpus_mod, "usable_cpus", lambda: cpus)
        assert corpus_mod._workers(nbytes) == want

    @given(
        rows=st.lists(
            st.tuples(_AWKWARD_IDS, st.integers(0, 2), st.sampled_from([None, 0, 1, 2]),
                      st.booleans()),
            min_size=1, max_size=8,
        ),
        dim=st.integers(1, 3),
        k=st.integers(2, 4),
        data=st.data(),
    )
    def test_reader_matches_the_reference_reader(self, rows, dim, k, data):
        feats = np.array(
            data.draw(st.lists(_AWKWARD_FLOATS, min_size=len(rows) * dim,
                               max_size=len(rows) * dim))
        ).reshape(len(rows), dim)
        examples = [
            LabelledExample(id=ident, features=feats[i], primary_label=primary,
                            secondary_label=secondary)
            for i, (ident, primary, secondary, _) in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            plain, blanks = Path(tmp) / "plain.csv", Path(tmp) / "blanks.csv"
            write_features_csv(plain, examples)
            # the same rows with a blank line before each flagged one
            raw = plain.read_bytes()
            blanks.write_bytes(raw[:raw.index(b"\n") + 1] + b"".join(
                (b"\n" if blank else b"") + _row_bytes(tmp, ex)
                for ex, (_, _, _, blank) in zip(examples, rows)))
            with in_workers(k) as calls:
                got = _reader_outcome(read_features_csv, blanks)
            assert got == _reader_outcome(reference_read_features_csv, plain)
        assert 1 <= calls[0] <= k
        assert got[0] == [ex.id for ex in examples]
        assert got[3] == [ex.features.tobytes() for ex in examples]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_cut_target_inside_a_quoted_field(self, tmp_path, k):
        # the middle row's id is a quoted field over the whole middle of the file
        ids = ["e0", 'q,"x"\n' * 80, "e2"]
        path = tmp_path / "features.csv"
        write_features_csv(path, _examples(3, 2, ids))
        raw = path.read_bytes()
        body = raw.index(b"\n") + 1
        field = (raw.index(b'"q,'), raw.index(b'\n",') + 2)
        targets = [body + (len(raw) - body) * j // k for j in range(1, k)]
        assert all(field[0] < t < field[1] for t in targets)
        with in_workers(k) as calls:
            got = _reader_outcome(read_features_csv, path)
        assert calls == [2]  # one cut, after the quoted row
        assert got == _reader_outcome(reference_read_features_csv, path)
        assert got[0] == ids

    @pytest.mark.parametrize("k", [2, 3])
    def test_ranges_tile_the_body_at_record_ends(self, tmp_path, k):
        path = tmp_path / "features.csv"
        write_features_csv(path, _examples(40, 3, [f'id "{i}"\n' for i in range(40)]))
        raw = path.read_bytes()
        body = raw.index(b"\n") + 1
        ranges = corpus_mod._record_ranges(path, body, len(raw), k)
        assert len(ranges) == k
        assert ranges[0][0] == body and ranges[-1][1] == len(raw)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        for _, end in ranges[:-1]:
            assert raw[end - 1:end] == b"\n" and raw[body:end].count(b'"') % 2 == 0

    @pytest.mark.parametrize("bad", [
        "e9,positive,,0.5,abc\n",  # non-numeric
        "e9,positive,,0.5\n",  # too few fields
        "e9,positive,,0.5,0.7,0.9\n",  # too many fields
        "e9,positive,,nan,0.7\n",  # non-finite
        "e9,positive,,0.5,-inf\n",
        "e9,positive,,1e999,0.7\n",
        "cr\rhere,negative,,0.5,0.7\n",  # an unquoted bare \r
    ])
    @pytest.mark.parametrize("k", [2, 3])
    def test_a_bad_row_in_a_workers_range_gives_the_reference_message(self, tmp_path, bad, k):
        path = tmp_path / "features.csv"
        write_features_csv(path, _examples(6, 2))
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write(bad + "e10,negative,,0.5,0.7\n")
        with in_workers(k) as calls:
            got = _reader_outcome(read_features_csv, path)
        assert calls[0] == k  # the bad row, second to last, is in a worker's range
        assert got.startswith(f"MalformedRow: {path} line 8: ")
        assert got == _reader_outcome(reference_read_features_csv, path)

    def test_a_value_only_numpy_refuses_gives_the_one_process_message(self, tmp_path):
        # the reference reads 1_0 as 10.0; numpy's message names the row
        # counted from the start of the body, not of a worker's range
        path = tmp_path / "features.csv"
        write_features_csv(path, _examples(6, 1))
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("e9,negative,,1_0\n")
        want = _reader_outcome(read_features_csv, path)
        assert want.startswith(f"MalformedRow: {path}: could not convert string '1_0'")
        with in_workers(2) as calls:
            assert _reader_outcome(read_features_csv, path) == want
        assert calls == [2]

    def test_features_are_rows_of_one_contiguous_matrix(self, tmp_path):
        path = tmp_path / "features.csv"
        examples = _examples(9, 3)
        write_features_csv(path, examples)
        with in_workers(3) as calls:
            back = read_features_csv(path)
        assert calls == [3]
        matrix = back[0].features.base
        assert matrix.shape == (9, 3) and matrix.flags.c_contiguous
        assert all(ex.features.base is matrix for ex in back)
        assert matrix.tobytes() == np.stack([ex.features for ex in examples]).tobytes()

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("id,label,secondary_label,f0\n\n\n\n\n", encoding="utf-8")
        with in_workers(4):
            assert read_features_csv(path) == []

    @pytest.mark.parametrize("k, block_bytes", [(2, None), (3, 1), (4, 200)])
    def test_writer_bytes_match_the_reference_writer(self, tmp_path, k, block_bytes):
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain", "é"] * 3
        examples = _examples(len(ids), 6, ids)
        examples[0].features[:] = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e-300]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        with in_workers(k, block_bytes) as calls:
            write_features_csv(got, examples)
        assert calls == [k]
        reference_write_features_csv(want, examples)
        # the reference leaves a bare \r unquoted (see TestFeaturesCsv)
        assert got.read_bytes() == want.read_bytes().replace(b"\ncr\rhere,", b'\n"cr\rhere",')

    def test_writer_checks_for_ragged_rows_before_any_worker_starts(self, tmp_path):
        examples = _examples(8, 3)
        examples[6].features = examples[6].features[:2]
        path = tmp_path / "features.csv"
        with in_workers(2) as calls, pytest.raises(DimensionMismatch, match="'e6'"):
            write_features_csv(path, examples)
        assert calls == [] and not path.exists()


class TestFeaturize:
    def test_flags_all_oov_rows(self):
        rows = [
            CorpusRow(id="r0", text="a b", primary_label=0, secondary_label=0),
            CorpusRow(id="r1", text="zzz qqq", primary_label=1, secondary_label=1),
        ]
        examples, flagged = featurize(rows, small_table())
        assert flagged == ["r1"]
        assert np.array_equal(examples[0].features, [0.5, 0.5])
        assert np.array_equal(examples[1].features, [0.0, 0.0])

    def test_applies_preprocessing_before_lookup(self):
        rows = [CorpusRow(id="r0", text="A, B!", primary_label=0, secondary_label=0)]
        examples, flagged = featurize(rows, small_table())
        assert flagged == []
        assert np.array_equal(examples[0].features, [0.5, 0.5])


def labelled(i, primary, secondary, value=None):
    feats = np.array([float(i), 0.0]) if value is None else np.asarray(value, dtype=float)
    return LabelledExample(id=f"x{i}", features=feats, primary_label=primary,
                           secondary_label=secondary)


class TestPartition:
    def test_splits_by_labeller_agreement(self):
        examples = [
            labelled(0, NEGATIVE, NEGATIVE),
            labelled(1, UNCERTAIN, POSITIVE),
            labelled(2, POSITIVE, POSITIVE),
        ]
        consistent, inconsistent = partition_by_agreement(examples)
        assert [ex.id for ex in consistent] == ["x0", "x2"]
        assert [ex.id for ex in inconsistent] == ["x1"]

    def test_missing_secondary_label_names_the_example(self):
        with pytest.raises(MissingSecondaryLabel, match="x1"):
            partition_by_agreement([labelled(0, 0, 0), labelled(1, 1, None)])


class TestSplitSpec:
    def test_default_is_valid(self):
        SplitSpec().validate()

    @pytest.mark.parametrize(
        "val,test",
        [(0.0, 0.1), (0.1, 0.0), (0.5, 0.5), (-0.1, 0.1), (0.1, 1.0)],
    )
    def test_rejects_degenerate_fractions(self, val, test):
        with pytest.raises(FractionOverflow):
            SplitSpec(val_fraction=val, test_fraction=test).validate()


class TestStratifiedSplit:
    def test_single_stratum_hits_exact_sizes(self):
        examples = [labelled(i, NEGATIVE, NEGATIVE) for i in range(100)]
        train, val, test = stratified_split(examples, SplitSpec(seed=0))
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_six_strata_allocation(self):
        sizes = [397, 251, 149, 103, 59, 41]
        strata = [
            (NEGATIVE, NEGATIVE), (POSITIVE, POSITIVE), (UNCERTAIN, UNCERTAIN),
            (NEGATIVE, POSITIVE), (POSITIVE, NEGATIVE), (UNCERTAIN, POSITIVE),
        ]
        examples = []
        for size, (p, s) in zip(sizes, strata):
            examples.extend(labelled(len(examples) + j, p, s) for j in range(size))
        train, val, test = stratified_split(examples, SplitSpec(seed=1))
        assert len(val) == 100 and len(test) == 100
        assert len(train) + len(val) + len(test) == 1000
        for size, (p, s) in zip(sizes, strata):
            in_val = sum(
                1 for ex in val
                if ex.primary_label == p and ex.secondary_label == s
            )
            assert abs(in_val - 0.1 * size) <= 1.0, (p, s)

    def test_partitions_without_loss_or_leak(self):
        rng = np.random.default_rng(2)
        examples = [
            labelled(i, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            for i in range(137)
        ]
        train, val, test = stratified_split(examples, SplitSpec(seed=3))
        ids = [ex.id for part in (train, val, test) for ex in part]
        assert sorted(ids) == sorted(ex.id for ex in examples)
        assert len(set(ids)) == len(ids)

    def test_deterministic_and_seed_sensitive(self):
        examples = [labelled(i, i % 3, i % 3) for i in range(90)]
        val_a = stratified_split(examples, SplitSpec(seed=4))[1]
        val_b = stratified_split(examples, SplitSpec(seed=4))[1]
        val_c = stratified_split(examples, SplitSpec(seed=5))[1]
        assert [ex.id for ex in val_a] == [ex.id for ex in val_b]
        assert [ex.id for ex in val_a] != [ex.id for ex in val_c]

    def test_outputs_preserve_corpus_order(self):
        examples = [labelled(i, i % 3, i % 3) for i in range(60)]
        order = {ex.id: i for i, ex in enumerate(examples)}
        for part in stratified_split(examples, SplitSpec(seed=6)):
            positions = [order[ex.id] for ex in part]
            assert positions == sorted(positions)

    def test_rejects_empty_and_unlabelled(self):
        with pytest.raises(EmptyInput):
            stratified_split([], SplitSpec())
        with pytest.raises(MissingSecondaryLabel):
            stratified_split([labelled(0, 0, None)], SplitSpec())


def view_fixture(n_cons=8, n_incons=3):
    examples = [labelled(i, NEGATIVE, NEGATIVE) for i in range(n_cons)]
    examples += [
        labelled(n_cons + j, UNCERTAIN, POSITIVE if j % 2 else NEGATIVE)
        for j in range(n_incons)
    ]
    return examples


class TestMakeTestViews:
    def test_view_layout(self):
        views = make_test_views(view_fixture(), seed=0)
        assert sorted(views) == ["CONSTest", "CheXINCONSTest", "NegINCONSTest"]
        neg, chex = views["NegINCONSTest"], views["CheXINCONSTest"]
        assert neg.ids == chex.ids
        assert np.array_equal(neg.features, chex.features)
        assert np.all(neg.labels != chex.labels)
        assert np.all(chex.labels == UNCERTAIN)
        assert len(views["CONSTest"].ids) == len(neg.ids)

    def test_consistent_sample_uses_primary_labels(self):
        views = make_test_views(view_fixture(), seed=0)
        cons = views["CONSTest"]
        assert all(ident.startswith("x") for ident in cons.ids)
        assert np.all(cons.labels == NEGATIVE)
        assert set(cons.ids) <= {f"x{i}" for i in range(8)}

    def test_deterministic_subsample(self):
        a = make_test_views(view_fixture(n_cons=40, n_incons=5), seed=7)
        b = make_test_views(view_fixture(n_cons=40, n_incons=5), seed=7)
        c = make_test_views(view_fixture(n_cons=40, n_incons=5), seed=8)
        assert a["CONSTest"].ids == b["CONSTest"].ids
        assert a["CONSTest"].ids != c["CONSTest"].ids

    def test_requires_some_disagreement(self):
        with pytest.raises(InconsistentSetEmpty):
            make_test_views(view_fixture(n_incons=0), seed=0)

    def test_requires_enough_consistent_examples(self):
        with pytest.raises(TooFewPoints):
            make_test_views(view_fixture(n_cons=2, n_incons=3), seed=0)


class TestSynthConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n=0).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(n=10, disagreement=1.5).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(n=10, negative_weight=-0.1).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(n=10, cannot_exclude_weight=2.0).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(n=10, filler_count=-1).validate()


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
