"""Every text reader, fed arbitrary bytes, either returns or raises one of
the classes cli.main maps to exit 1 (TextuqError, OSError): no other
exception, and so no exit-2 traceback, can come from a malformed input.
The model loader is also fed valid model files with one part changed."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_read_features_csv, table_with_repeats
from textuq import cli, parallel
from textuq.corpus import (
    SplitSpec,
    load_embeddings,
    read_corpus_csv,
    read_features_csv,
    write_features_csv,
)
from textuq.ensemble import EnsembleConfig, fit_ensemble
from textuq.errors import TextuqError
from textuq.model_io import ModelMeta, load_model, save_model
from textuq.svgp import init_model

# fragments that steer the parsers into their field, number, quoting and
# decoding paths: separators, quotes, line ends, numbers and non-numbers,
# label words, and invalid or truncated UTF-8
_FRAGMENTS = st.sampled_from([
    b",", b'"', b"\n", b"\r", b"\r\n", b" ", b"=", b"#", b"\x00", b"-",
    b"1", b"0.5", b"-2.5e3", b"1e999", b"nan", b"inf", b"-inf", b"1_0", b"abc", b"",
    b"negative", b"uncertain", b"positive", b"\xff", b"\xc3\xa9", b"\xe2\x82", b"\xed\xa0\x80",
])
_HEADERS = [
    b"",
    b"id,text,primary_label,secondary_label\n",
    b"2 3\n",
    b"id,label,secondary_label,f0,f1\n",
    b"bin_low,bin_high,mean_predicted,fraction_positive,count\n",
    b"seed = 1\n",
    b'{"format": "textuq-model-v2", ',
]
_INPUTS = st.one_of(
    st.binary(max_size=300),
    st.tuples(
        st.sampled_from(_HEADERS),
        st.lists(_FRAGMENTS | st.binary(max_size=3), max_size=40).map(b"".join),
    ).map(b"".join),
)


def _report(path):
    return cli.cmd_report(SimpleNamespace(reliability=path, out=path.with_suffix(".svg")))


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@pytest.mark.parametrize("read", [
    read_corpus_csv, load_embeddings, read_features_csv, cli.read_config, _report, load_model,
], ids=["corpus", "embeddings", "features", "config", "report", "model"])
@given(raw=_INPUTS)
def test_arbitrary_bytes_return_or_raise_a_user_error(input_file, read, raw):
    input_file.write_bytes(raw)
    try:
        read(input_file)
    except (TextuqError, OSError):
        pass


def _features_outcome(read, path, workers=1):
    """The table ``read`` returns, as comparable lists, or the TextuqError
    it raises, as text; ``workers`` is the most worker processes it uses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "usable_cpus", lambda: workers)
        mp.setattr(parallel, "MIN_CHUNK_BYTES", 1)
        try:
            table = read(path)
        except TextuqError as exc:
            return f"{type(exc).__name__}: {exc}"
    return (table.ids.tolist(), table.labels.tolist(), table.secondary.tolist(),
            [row.tobytes() for row in table.features])


@given(data=st.data())
def test_a_changed_feature_file_reads_as_the_reference_or_raises_a_user_error(input_file, data):
    # files of repeated rows, whose ranges take the reader's plain path
    # unless a change adds a quote, a carriage return or a blank line
    n = data.draw(st.integers(1, 12))
    table = table_with_repeats(n, data.draw(st.integers(1, n)), data.draw(st.integers(1, 3)),
                               seed=data.draw(st.integers(0, 9)),
                               quoted_ids=data.draw(st.booleans()))
    write_features_csv(input_file, table)
    raw = input_file.read_bytes()
    for _ in range(data.draw(st.integers(0, 2))):  # change, insert or drop a few bytes
        at = data.draw(st.integers(raw.index(b"\n") + 1, len(raw)))
        cut = data.draw(st.integers(0, 3))
        raw = raw[:at] + data.draw(_FRAGMENTS | st.binary(max_size=3)) + raw[at + cut:]
    input_file.write_bytes(raw)
    try:
        got = _features_outcome(read_features_csv, input_file)
    except OSError:
        return
    try:
        want = _features_outcome(reference_read_features_csv, input_file)
    except UnicodeDecodeError:  # the reference leaves it unwrapped
        want = "NotUtf8"
    if not isinstance(want, str):
        # the reference also takes values numpy refuses, such as 1_0
        assert got == want or got.startswith("MalformedRow: ")
    if b'"' not in raw and b"\r" not in raw:
        assert _features_outcome(read_features_csv, input_file, workers=2) == got


@pytest.fixture(scope="module")
def model_texts(tmp_path_factory):
    """A small valid GP and ensemble model file, as text."""
    root = tmp_path_factory.mktemp("models")
    rng = np.random.default_rng(0)
    feats, labels = rng.normal(size=(12, 2)), rng.integers(0, 3, size=12)
    ens = fit_ensemble(feats, labels, EnsembleConfig(members=1, hidden_units=2, epochs=1,
                                                     batch_size=6))[0]
    save_model(root / "gp.json", init_model(feats, m=2), ModelMeta(SplitSpec()))
    save_model(root / "ens.json", ens, ModelMeta(SplitSpec()))
    return [(root / name).read_text(encoding="ascii") for name in ("gp.json", "ens.json")]


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


# JSON values to put in place of a part of a model file: wrong types, bad
# numbers, base64-like text and small arrays or objects of them
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(alphabet="AQg8=+/*\u00e9", max_size=12),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["data", "shape", "weights"]), kids, max_size=2),
    max_leaves=6,
)


@given(data=st.data())
def test_a_changed_model_file_loads_or_raises_a_user_error(input_file, model_texts, data):
    text = data.draw(st.sampled_from(model_texts))
    if data.draw(st.booleans()):  # change one JSON value, or drop one key
        doc = json.loads(text)
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(_JSON)
        raw = json.dumps(doc).encode("utf-8")
    else:  # change, insert or drop a few bytes
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 3))
        raw = text.encode("ascii")
        raw = raw[:at] + data.draw(_FRAGMENTS | st.binary(max_size=3)) + raw[at + cut:]
    input_file.write_bytes(raw)
    try:
        load_model(input_file)
    except (TextuqError, OSError):
        pass
