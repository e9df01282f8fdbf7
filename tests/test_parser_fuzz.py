"""Every text reader, fed arbitrary bytes, either returns or raises one of
the classes cli.main maps to exit 1 (TextuqError, OSError): no other
exception, and so no exit-2 traceback, can come from a malformed input."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textuq import cli
from textuq.corpus import load_embeddings, read_corpus_csv, read_features_csv
from textuq.errors import TextuqError

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
    read_corpus_csv, load_embeddings, read_features_csv, cli.read_config, _report,
], ids=["corpus", "embeddings", "features", "config", "report"])
@given(raw=_INPUTS)
def test_arbitrary_bytes_return_or_raise_a_user_error(input_file, read, raw):
    input_file.write_bytes(raw)
    try:
        read(input_file)
    except (TextuqError, OSError):
        pass
