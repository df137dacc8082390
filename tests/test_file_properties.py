"""Property tests over the fiducial, design and channel file readers.

Every document either loads or is refused with ParseError or DomainError; a
document that loads round-trips byte for byte through `save_*`; and the CLI's
`verify-design --fiducial` turns every document into exit 0, 1 or 2 with no
traceback.  The examples are derandomized, so a run is reproducible.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from transposim import (  # noqa: E402
    DomainError,
    ParseError,
    load_channel,
    load_design,
    load_fiducial,
    save_channel,
    save_design,
    save_fiducial,
)
from test_properties import (  # noqa: E402
    CLI_SETTINGS, SETTINGS, assert_clean_exit, json_values, numbers, run_cli, write_doc,
)


def pairs(vec):
    return [[float(c.real), float(c.imag)] for c in vec]


def complex_parts(draw, size):
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * size, max_size=2 * size))
    return np.array(parts[:size]) + 1j * np.array(parts[size:])


@st.composite
def unit_vector(draw, d):
    v = complex_parts(draw, d)
    norm = np.linalg.norm(v)
    return pairs(v / norm if norm > 1e-6 else np.eye(d)[0])


@st.composite
def vector_docs(draw, counts):
    """{"dim": d, "vectors": [...]}: unit vectors of length d, as many as `counts` draws."""
    d = draw(st.integers(1, 4))
    k = draw(counts(d))
    return {"dim": d, "vectors": [draw(unit_vector(d)) for _ in range(k)]}


@st.composite
def channel_docs(draw):
    """The CJ matrix of a random channel: the Kraus operators are blocks of an isometry."""
    d, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q, _ = np.linalg.qr(complex_parts(draw, r * d * d).reshape(r * d, d))
    # chi[(i, a), (j, b)] = (1/d) sum_k K_k[a, i] conj(K_k[b, j])
    v = q.reshape(r, d, d).transpose(0, 2, 1).reshape(r, d * d)
    chi = np.einsum("ki,kj->ij", v, v.conj()) / d
    return {"d_in": d, "d_out": d, "cj": [pairs(row) for row in chi]}


def near(docs, keys, grid):
    """A document of `docs` with one part replaced: a key's value, a row, an entry or a number."""

    @st.composite
    def strategy(draw):
        doc = draw(docs)
        rows = doc[grid]
        where = draw(st.sampled_from(["key", "row", "entry", "number", "delete"]))
        if where == "key":
            doc[draw(st.sampled_from(keys))] = draw(json_values)
        elif where == "delete":
            del doc[draw(st.sampled_from(keys + [grid]))]
        elif not rows:
            rows.append(draw(json_values))
        else:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows[i]) - 1))
            if where == "row":
                rows[i] = draw(json_values)
            elif where == "entry":
                rows[i][j] = draw(json_values)
            else:
                rows[i][j][draw(st.integers(0, 1))] = draw(numbers)
        return doc

    return strategy()


fiducial_docs = vector_docs(lambda d: st.integers(0, 2) | st.just(1))
design_docs = vector_docs(lambda d: st.integers(0, d * d + 2))
any_fiducial_doc = st.one_of(fiducial_docs, near(fiducial_docs, ["dim"], "vectors"), json_values)
any_design_doc = st.one_of(design_docs, near(design_docs, ["dim"], "vectors"), json_values)
any_channel_doc = st.one_of(channel_docs(), near(channel_docs(), ["d_in", "d_out"], "cj"), json_values)

# (loader, saver, the loaded record's numbers as one array)
FORMATS = {
    "fiducial": (load_fiducial, save_fiducial, lambda f: f.ket.vec),
    "design": (load_design, save_design, lambda g: g.vector_stack),
    "channel": (load_channel, save_channel, lambda ch: ch.cj.mat),
}


def load_or_refuse(kind, path):
    try:
        return FORMATS[kind][0](path)
    except (DomainError, ParseError):
        return None


def check_loaded(kind, doc, record):
    """A loaded record holds the document's numbers bit for bit."""
    grid = doc["cj"] if kind == "channel" else doc["vectors"]
    want = np.array([[complex(*pair) for pair in row] for row in grid]).reshape(-1)
    assert FORMATS[kind][2](record).reshape(-1).tobytes() == want.tobytes()


def check_round_trip(kind, doc):
    load, save, numbers_of = FORMATS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        record = load_or_refuse(kind, write_doc(tmp, doc))
        if record is None:
            return
        check_loaded(kind, doc, record)
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        save(record, first)
        back = load(first)
        save(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert numbers_of(back).tobytes() == numbers_of(record).tobytes()


@SETTINGS
@given(doc=any_fiducial_doc)
def test_a_fiducial_file_loads_or_raises_and_round_trips(doc):
    check_round_trip("fiducial", doc)


@SETTINGS
@given(doc=any_design_doc)
def test_a_design_file_loads_or_raises_and_round_trips(doc):
    check_round_trip("design", doc)


@SETTINGS
@given(doc=any_channel_doc)
def test_a_channel_file_loads_or_raises_and_round_trips(doc):
    check_round_trip("channel", doc)


@SETTINGS
@given(doc=channel_docs())
def test_a_drawn_channel_is_accepted(doc):
    # the generator itself must reach the accepting branch, or the round trip checks nothing
    with tempfile.TemporaryDirectory() as tmp:
        assert load_or_refuse("channel", write_doc(tmp, doc)) is not None


# the qubit SIC fiducial of Renes et al., which verifies: exit 0
QUBIT_SIC = {"dim": 2, "vectors": [pairs([np.sqrt((3 + np.sqrt(3)) / 6),
                                          np.exp(1j * np.pi / 4) * np.sqrt((3 - np.sqrt(3)) / 6)])]}


@CLI_SETTINGS
@given(doc=st.just(QUBIT_SIC) | any_fiducial_doc, data=st.data())
def test_verify_design_exits_0_1_or_2_on_any_fiducial_file(doc, data):
    # the file's own dimension half of the time, so that most files reach the SIC check
    own = doc.get("dim") if isinstance(doc, dict) and isinstance(doc.get("dim"), int) else None
    dim = data.draw(st.integers(1, 4) if own is None else st.just(own) | st.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_doc(tmp, doc)
        code, err = run_cli(["verify-design", "--kind", "sic", "--dim", str(dim), "--fiducial", path])
    assert_clean_exit(code, err)
