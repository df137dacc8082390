"""Property tests over the fiducial file reader.

Every document either loads or is refused with ParseError or DomainError; a
document that loads round-trips byte for byte through `save_fiducial`; and the CLI's
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
    load_fiducial,
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
any_fiducial_doc = st.one_of(fiducial_docs, near(fiducial_docs, ["dim"], "vectors"), json_values)


@SETTINGS
@given(doc=any_fiducial_doc)
def test_a_fiducial_file_loads_or_raises_and_round_trips(doc):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            f = load_fiducial(write_doc(tmp, doc))
        except (DomainError, ParseError):
            return
        # the loaded record holds the document's numbers bit for bit
        want = np.array([complex(*pair) for pair in doc["vectors"][0]])
        assert f.ket.vec.tobytes() == want.tobytes()
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        save_fiducial(f, first)
        back = load_fiducial(first)
        save_fiducial(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert back.ket.vec.tobytes() == f.ket.vec.tobytes()


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
