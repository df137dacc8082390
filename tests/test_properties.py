"""Property tests over the cut grammar and the state-file parser.

Every input either parses or is refused with DomainError or ParseError; the
CLI turns every input into exit 0, 1 or 2 with no traceback; and a state that
parses round-trips byte for byte through `save_state`.  The examples are
derandomized, so a run is reproducible.
"""

import contextlib
import io
import json
import math
import os
import string
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from transposim import DensityMatrix, DomainError, ParseError, parse_state_file, save_state  # noqa: E402
from transposim.cli import _parse_cut, main  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)
CLI_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def cut_specs(n):
    """The n party letters split once by '|', in the grammar's shape, or any text."""
    shaped = st.builds(
        lambda letters, k: "".join(letters[:k]) + "|" + "".join(letters[k:]),
        st.permutations(string.ascii_uppercase[:n]),
        st.integers(1, max(1, n - 1)),
    )
    return st.one_of(shaped, st.text(alphabet="ABCDE|", max_size=7), st.text(max_size=7))


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
# factor dims of total dimension <= 9, so that a drawn matrix stays small
small_dims = st.lists(st.integers(1, 3), min_size=1, max_size=2) | st.lists(
    st.integers(1, 2), min_size=3, max_size=3
)
numbers = st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def states(draw, dims=small_dims):
    """A density matrix A A^dag / tr, written as the file format's [re, im] pairs."""
    dims = list(draw(dims))
    n = math.prod(dims)
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * n * n, max_size=2 * n * n))
    a = np.array(parts[: n * n]).reshape(n, n) + 1j * np.array(parts[n * n:]).reshape(n, n)
    m = a @ a.conj().T
    tr = np.trace(m).real
    m = m / tr if tr > 1e-6 else np.eye(n) / n
    return {"dims": dims, "matrix": [[[float(c.real), float(c.imag)] for c in row] for row in m]}


@st.composite
def near_states(draw, dims=small_dims):
    """A state document with one part replaced: a dims entry, a row, an entry or a number."""
    doc = draw(states(dims))
    n = len(doc["matrix"])
    where = draw(st.sampled_from(["dims", "dim", "row", "entry", "number", "key"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if where == "dims":
        doc["dims"] = draw(json_values)
    elif where == "dim":
        doc["dims"][0] = draw(json_values)
    elif where == "row":
        doc["matrix"][i] = draw(json_values)
    elif where == "entry":
        doc["matrix"][i][j] = draw(json_values)
    elif where == "number":
        doc["matrix"][i][j][draw(st.integers(0, 1))] = draw(numbers)
    else:
        del doc[draw(st.sampled_from(["dims", "matrix"]))]
    return doc


state_docs = st.one_of(states(), near_states(), json_values)


@st.composite
def detect_inputs(draw):
    """A state file and a cut over its parties; half of the dims have no witness."""
    dims = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 3), (2,), (2, 3), (4, 4)]))
    doc = draw(st.one_of(states(st.just(dims)), near_states(st.just(dims)), json_values))
    return doc, draw(cut_specs(len(dims)))


def write_doc(directory, doc, name="state.json"):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def parse_or_refuse(path):
    try:
        return parse_state_file(path)
    except (DomainError, ParseError):
        return None


@SETTINGS
@given(n=st.integers(1, 5), data=st.data())
def test_a_cut_spec_parses_or_raises_domain_error(n, data):
    spec = data.draw(cut_specs(n))
    try:
        index, label = _parse_cut(spec, n)
    except DomainError:
        return
    parties = string.ascii_uppercase[:n]
    halves = spec.split("|")
    assert label == spec and 0 <= index < n
    assert parties[index] in halves
    assert sorted("".join(halves)) == sorted(parties)


@SETTINGS
@given(doc=state_docs)
def test_a_state_file_parses_or_raises_domain_or_parse_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        rho = parse_or_refuse(write_doc(tmp, doc))
    if rho is not None:
        assert isinstance(rho, DensityMatrix)
        assert list(rho.dims) == doc["dims"]
        want = np.array([[complex(*pair) for pair in row] for row in doc["matrix"]])
        assert rho.mat.tobytes() == want.tobytes()


@SETTINGS
@given(doc=st.one_of(states(), near_states()))
def test_an_accepted_state_round_trips_byte_exactly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        rho = parse_or_refuse(write_doc(tmp, doc))
        if rho is None:
            return
        first = os.path.join(tmp, "first.json")
        second = os.path.join(tmp, "second.json")
        save_state(rho, first)
        back = parse_state_file(first)
        save_state(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert back.dims == rho.dims
    assert back.mat.tobytes() == rho.mat.tobytes()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        # a refusal is one line of text
        assert err.endswith("\n") and err.count("\n") == 1, err


@CLI_SETTINGS
@given(inputs=detect_inputs())
def test_detect_exits_0_1_or_2_on_any_state_and_cut(inputs):
    doc, spec = inputs
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli(["detect", "--state", write_doc(tmp, doc), "--cut", spec])
    assert_clean_exit(code, err)


@CLI_SETTINGS
@given(doc=state_docs)
def test_apply_exits_0_1_or_2_on_any_state(doc):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        code, err = run_cli(["apply-approx-transpose", "--state", write_doc(tmp, doc), "--out", out])
        if code == 0:
            # the output state is itself a valid state file
            assert parse_state_file(out).dims
    assert_clean_exit(code, err)
