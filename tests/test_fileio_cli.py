import json
from types import SimpleNamespace

import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    DomainError,
    ParseError,
    ValidationError,
    builtin_fiducial,
    haar_random_density,
    load_fiducial,
    parse_state_file,
    save_fiducial,
    save_state,
)
from transposim import acceptance, designs, fileio
from transposim.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_maximally_mixed(tmp_path):
    path = write_json(
        tmp_path / "mixed.json",
        {"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    )
    rho = parse_state_file(path)
    assert np.abs(rho.mat - np.eye(2) / 2).max() == 0.0
    assert rho.dims == (2,)


def test_parse_trace_guard(tmp_path):
    path = write_json(
        tmp_path / "trace.json",
        {"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.4, 0]]]},
    )
    with pytest.raises(ValidationError) as err:
        parse_state_file(path)
    assert err.value.check == "trace"
    assert abs(err.value.residual - 0.1) < 1e-12


def test_parse_hermiticity_guard(tmp_path):
    path = write_json(
        tmp_path / "herm.json",
        {"dims": [2], "matrix": [[[0.5, 0], [0.3, 0]], [[0.1, 0], [0.5, 0]]]},
    )
    with pytest.raises(ValidationError) as err:
        parse_state_file(path)
    assert err.value.check == "hermitian"


def test_parse_psd_guard(tmp_path):
    path = write_json(
        tmp_path / "psd.json",
        {"dims": [2], "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
    )
    with pytest.raises(ValidationError) as err:
        parse_state_file(path)
    assert err.value.check == "psd"


@pytest.mark.parametrize(
    "rows, check, residual",
    [
        ([[0.5, 0.3], [0.1, 0.5]], "hermitian", 0.2),
        ([[0.6, 0.0], [0.0, 0.5]], "trace", 0.1),
        ([[1.5, 0.0], [0.0, -0.5]], "psd", 0.5),
    ],
    ids=["non-hermitian", "trace-1.1", "negative-eigenvalue"],
)
def test_density_matrix_names_the_failed_check(tmp_path, rows, check, residual):
    doc = {"dims": [2], "matrix": [[[x, 0.0] for x in row] for row in rows]}
    with pytest.raises(ValidationError) as parsed:
        parse_state_file(write_json(tmp_path / "rho.json", doc))
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.array(rows))
    assert isinstance(err.value, DomainError)
    assert err.value.check == parsed.value.check == check
    assert err.value.residual == parsed.value.residual
    assert abs(err.value.residual - residual) < 1e-12


def test_parse_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError):
        parse_state_file(str(bad))
    with pytest.raises(ParseError):
        parse_state_file(write_json(tmp_path / "keys.json", {"dims": [2]}))
    with pytest.raises(ParseError):
        parse_state_file(
            write_json(
                tmp_path / "nan.json",
                {"dims": [1], "matrix": [[[float("nan"), 0]]]},
            )
        )
    with pytest.raises(ParseError):
        parse_state_file(
            write_json(tmp_path / "shape.json", {"dims": [2], "matrix": [[[1, 0]]]})
        )


def test_state_roundtrip_is_exact(tmp_path):
    rho = haar_random_density(4, 5, dims=(2, 2))
    path = tmp_path / "rho.json"
    save_state(rho, str(path))
    back = parse_state_file(str(path))
    assert np.array_equal(back.mat, rho.mat)
    assert back.dims == rho.dims


def singlet_file(tmp_path):
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    rho = DensityMatrix(np.outer(v, v.conj()), dims=(2, 2))
    path = tmp_path / "singlet.json"
    save_state(rho, str(path))
    return str(path)


def test_cli_verify_design_sic(capsys):
    assert main(["verify-design", "--dim", "2", "--kind", "sic"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_verify_design_mub_non_prime():
    assert main(["verify-design", "--dim", "4", "--kind", "mub"]) == 2


def test_cli_verify_design_bad_fiducial(tmp_path):
    doc = {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}
    path = tmp_path / "fid.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-design", "--dim", "2", "--kind", "sic", "--fiducial", str(path)]) == 1


def test_cli_search_fiducial_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "fid.json"
    code = main(
        ["search-fiducial", "--dim", "2", "--seed", "3", "--out", str(out_path)]
    )
    assert code == 0
    assert main(["verify-design", "--dim", "2", "--kind", "sic", "--fiducial", str(out_path)]) == 0


def test_cli_apply_cross_check(tmp_path, capsys):
    state = singlet_file(tmp_path)
    # two-qubit total dimension 4 has no built-in fiducial: formula only
    assert main(["apply-approx-transpose", "--state", state]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_apply_keeps_the_files_factor_dims(tmp_path, capsys):
    # the channel acts on the whole 4-dimensional space; the output is written
    # with the file's two qubit factors
    state, out_path, json_path = singlet_file(tmp_path), tmp_path / "out.json", tmp_path / "r.json"
    argv = ["apply-approx-transpose", "--state", state, "--via", "formula"]
    assert main(argv + ["--out", str(out_path), "--json", str(json_path)]) == 0
    transformed = parse_state_file(str(out_path))
    assert transformed.dims == (2, 2)
    singlet = parse_state_file(state).mat
    expected = (singlet.T + np.eye(4)) / 5
    assert np.abs(transformed.mat - expected).max() < 1e-12
    assert json.loads(json_path.read_text())["output_state"]["dims"] == [2, 2]


def test_cli_apply_qubit_all_vias(tmp_path, capsys):
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    path = tmp_path / "zero.json"
    save_state(rho, str(path))
    out_path = tmp_path / "out.json"
    code = main(
        [
            "apply-approx-transpose",
            "--state",
            str(path),
            "--via",
            "optics",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "formula|design" in out
    transformed = parse_state_file(str(out_path))
    assert np.abs(transformed.mat - np.diag([2 / 3, 1 / 3])).max() < 1e-10


def test_cli_apply_optics_rejected_for_qutrit(tmp_path):
    rho = DensityMatrix(np.eye(3) / 3)
    path = tmp_path / "q3.json"
    save_state(rho, str(path))
    assert main(["apply-approx-transpose", "--state", str(path), "--via", "optics"]) == 2


def test_cli_apply_qutrit_cross_check(tmp_path, capsys):
    rho = haar_random_density(3, 21)
    path = tmp_path / "q3.json"
    save_state(rho, str(path))
    assert main(["apply-approx-transpose", "--state", str(path), "--via", "two-step"]) == 0
    out = capsys.readouterr().out
    assert "formula|two-step" in out
    assert "optics" not in out


def test_cli_detect_singlet(tmp_path, capsys):
    state = singlet_file(tmp_path)
    report = tmp_path / "report.json"
    code = main(["detect", "--state", state, "--cut", "A|B", "--json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "detected" in out
    doc = json.loads(report.read_text())
    entry = doc["cuts"][0]
    assert entry["cut"] == "A|B"
    assert abs(entry["value"]) < 1e-12
    assert abs(entry["threshold"] - 1 / 6) < 1e-12
    assert entry["verdict"] == "detected"
    assert entry["ppt"] == "NPT"


def test_cli_detect_with_shots(tmp_path):
    state = singlet_file(tmp_path)
    report = tmp_path / "report.json"
    code = main(
        [
            "detect",
            "--state",
            state,
            "--cut",
            "A|B",
            "--shots",
            "10000",
            "--confidence",
            "0.99",
            "--seed",
            "7",
            "--json",
            str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["estimator"]["verdict"] == "detected"
    assert doc["estimator"]["shots"] == 10000


def test_cli_detect_bad_cut(tmp_path):
    state = singlet_file(tmp_path)
    assert main(["detect", "--state", state, "--cut", "A|A"]) == 2
    assert main(["detect", "--state", state, "--cut", "AB"]) == 2


def test_cli_detect_builds_no_design(tmp_path, capsys, monkeypatch):
    # (|01> - |10>)/sqrt(2) on two ququarts: there is no built-in fiducial for d = 4
    def refused(*args):
        raise AssertionError("detect built a design")

    monkeypatch.setattr(designs, "builtin_fiducial", refused)
    monkeypatch.setattr(designs, "sic_from_fiducial", refused)
    v = np.zeros(16, dtype=complex)
    v[1], v[4] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    state = tmp_path / "qq4.json"
    save_state(DensityMatrix(np.outer(v, v.conj()), dims=(4, 4)), str(state))
    report = tmp_path / "report.json"
    assert main(["detect", "--state", str(state), "--cut", "A|B", "--json", str(report)]) == 0
    assert "detected" in capsys.readouterr().out
    entry = json.loads(report.read_text())["cuts"][0]
    assert abs(entry["value"]) < 1e-12 and entry["verdict"] == "detected"
    assert abs(entry["threshold"] - 1 / 20) < 1e-15


@pytest.mark.parametrize("dims, cut", [((8, 8), "A|B"), ((4, 4, 4), "B|CA")])
def test_cli_detect_runs_where_no_fiducial_is_built_in(tmp_path, capsys, dims, cut):
    big_d = int(np.prod(dims))
    state = tmp_path / "mixed.json"
    save_state(DensityMatrix(np.eye(big_d) / big_d, dims=dims), str(state))
    assert main(["detect", "--state", str(state), "--cut", cut]) == 0
    out = capsys.readouterr().out
    assert f"cut             : {cut}" in out and "value           : 0.015625" in out


def test_cli_json_reports_are_byte_stable(tmp_path):
    state = singlet_file(tmp_path)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["detect", "--state", state, "--cut", "A|B", "--shots", "500", "--seed", "9"]
    assert main(args + ["--json", str(r1)]) == 0
    assert main(args + ["--json", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_tripartite_demo(tmp_path, capsys):
    report = tmp_path / "tri.json"
    assert main(["tripartite-demo", "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "A|BC" in out and "boundary" in out and "detected" in out
    doc = json.loads(report.read_text())
    assert len(doc["cuts"]) == 3
    assert any("1/18" in n for n in doc.get("notes", []))


def test_cli_missing_state_file():
    assert main(["detect", "--state", "/nonexistent.json", "--cut", "A|B"]) == 2


def qubit_fiducial_file(tmp_path):
    s = 1 / np.sqrt(6)
    fid = [np.sqrt(3 + np.sqrt(3)) * s, np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3)) * s]
    return write_json(
        tmp_path / "fid2.json", {"dim": 2, "vectors": [[[c.real, c.imag] for c in fid]]}
    )


def assert_one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_cli_fiducial_dimension_must_match_state(tmp_path, capsys):
    state = tmp_path / "q3.json"
    save_state(DensityMatrix(np.eye(3) / 3), str(state))
    argv = ["apply-approx-transpose", "--state", str(state), "--via", "design"]
    code = main(argv + ["--fiducial", qubit_fiducial_file(tmp_path)])
    err = assert_one_line_usage_error(code, capsys)
    assert "dimension 2" in err and "dimension 3" in err


@pytest.mark.parametrize("via", ["formula", "design"])
def test_cli_apply_refuses_a_non_normalized_fiducial(tmp_path, capsys, via):
    state = tmp_path / "q3.json"
    save_state(DensityMatrix(np.eye(3) / 3), str(state))
    fid = write_json(tmp_path / "fid3.json", {"dim": 3, "vectors": [[[1, 0], [1, 0], [0, 0]]]})
    argv = ["apply-approx-transpose", "--state", str(state), "--via", via, "--fiducial", fid]
    err = assert_one_line_usage_error(main(argv), capsys)
    assert "norm" in err


def test_cli_apply_loads_the_fiducial_once(tmp_path, monkeypatch):
    state = tmp_path / "q2.json"
    save_state(DensityMatrix(np.eye(2) / 2), str(state))
    paths = []
    # the CLI imports load_fiducial from designs when it reads a fiducial file
    monkeypatch.setattr(designs, "load_fiducial", lambda p: paths.append(p) or load_fiducial(p))
    fid = qubit_fiducial_file(tmp_path)
    argv = ["apply-approx-transpose", "--state", str(state), "--via", "optics", "--fiducial", fid]
    assert main(argv) == 0
    assert paths == [fid]


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": "abc", "vectors": [[[1.0, 0.0], [0.0, 0.0]]]},
        {"dim": 2, "vectors": 5},
        # coercible values are refused too, not read as d = 2, d = 1, or numbers
        {"dim": 2.7, "vectors": [[[0.6, 0.0], [0.8, 0.0]]]},
        {"dim": True, "vectors": [[[1.0, 0.0]]]},
        {"dim": 2, "vectors": [[["1.0", "0"], [0.0, 0.0]]]},
    ],
    ids=["dim-abc", "vectors-5", "dim-float", "dim-bool", "string-entries"],
)
def test_cli_malformed_fiducial_file_is_a_usage_error(tmp_path, capsys, doc):
    path = write_json(tmp_path / "fid.json", doc)
    with pytest.raises(ParseError):
        load_fiducial(path)
    code = main(["verify-design", "--dim", "2", "--kind", "sic", "--fiducial", path])
    assert_one_line_usage_error(code, capsys)


def test_cli_names_the_vector_count_of_a_two_vector_fiducial_file(tmp_path, capsys):
    # the second vector is not normalized; the count is reported, not the norm
    path = write_json(tmp_path / "two.json", {"dim": 2, "vectors": [
        [[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.7]]]})
    code = main(["verify-design", "--dim", "2", "--kind", "sic", "--fiducial", path])
    err = assert_one_line_usage_error(code, capsys)
    assert "a fiducial file holds exactly one vector, found 2" in err


def test_cli_json_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    report = tmp_path / "missing_dir" / "report.json"
    code = main(["tripartite-demo", "--json", str(report)])
    err = assert_one_line_usage_error(code, capsys)
    assert "cannot write" in err
    with pytest.raises(ParseError):
        save_state(DensityMatrix(np.eye(2) / 2), str(report))
    with pytest.raises(ParseError):
        save_fiducial(builtin_fiducial(2), str(report))


def test_a_document_that_cannot_be_serialized_leaves_the_target_as_it_was(tmp_path):
    path = tmp_path / "state.json"
    save_state(DensityMatrix(np.eye(2) / 2), str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        fileio.write_json({"dims": [2], "matrix": object()}, str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_cli_detect_rejects_shots_below_one_before_printing(tmp_path, capsys, shots):
    state = singlet_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--state", state, "--cut", "A|B", "--shots", shots])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--shots" in err


def test_cli_detect_refuses_a_shot_count_numpy_cannot_sample(tmp_path, capsys):
    # 2**63 ended in a 20-line OverflowError traceback after the exact verdict was printed
    argv = ["detect", "--state", singlet_file(tmp_path), "--cut", "A|B", "--shots", str(2**63)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "shot count" in err


@pytest.mark.parametrize(
    "dims, first",
    [([2.9], [0.5, 0.0]), ([True, 2], [0.5, 0.0]), ([2], [10**400, 0])],
    ids=["dims-float", "dims-bool", "entry-beyond-float-range"],
)
def test_state_file_refuses_values_outside_the_codec(tmp_path, dims, first):
    doc = {"dims": dims, "matrix": [[first, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    with pytest.raises(ParseError):
        parse_state_file(write_json(tmp_path / "rho.json", doc))


def assert_refused_before_printing(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and option in err


@pytest.mark.parametrize("max_dim", ["1", "-1", "9"])
def test_cli_verify_all_refuses_max_dim_outside_2_to_8(capsys, max_dim):
    # 1 and -1 left criteria 01, 02, 03 and 07 with nothing to check
    assert_refused_before_printing(["verify-all", "--max-dim", max_dim], "--max-dim", capsys)


@pytest.mark.parametrize("confidence", ["1.5", "0", "1", "nan"])
def test_cli_detect_refuses_confidence_outside_0_1_before_printing(tmp_path, capsys, confidence):
    argv = ["detect", "--state", singlet_file(tmp_path), "--cut", "A|B", "--shots", "100"]
    assert_refused_before_printing(argv + ["--confidence", confidence], "--confidence", capsys)


@pytest.mark.parametrize("max_iters", ["0", "-5"])
def test_cli_search_fiducial_refuses_max_iters_below_one(capsys, max_iters):
    argv = ["search-fiducial", "--dim", "2", "--max-iters", max_iters]
    assert_refused_before_printing(argv, "--max-iters", capsys)


@pytest.mark.parametrize("command", ["search-fiducial", "detect"])
def test_cli_refuses_a_negative_seed_before_printing(tmp_path, capsys, command):
    # numpy raises ValueError on a negative seed, so the parser must refuse it first
    argv = {
        "search-fiducial": ["search-fiducial", "--dim", "3"],
        "detect": ["detect", "--state", singlet_file(tmp_path), "--cut", "A|B", "--shots", "100"],
    }[command]
    assert_refused_before_printing(argv + ["--seed", "-1"], "--seed", capsys)


@pytest.mark.parametrize("command, option", [
    ("verify-design", "--seed"),
    ("search-fiducial", "--tolerance"),
    ("apply-approx-transpose", "--seed"),
    ("detect", "--tolerance"),
    ("detect", "--fiducial"),
    ("tripartite-demo", "--seed"),
    ("tripartite-demo", "--tolerance"),
    ("verify-all", "--seed"),
    ("verify-all", "--tolerance"),
])
def test_cli_refuses_an_option_that_the_subcommand_does_not_read(
    tmp_path, capsys, command, option
):
    # each was parsed and then ignored: verify-all --tolerance 1e9 passed 13/13
    argv = {
        "verify-design": ["verify-design", "--dim", "2", "--kind", "sic"],
        "search-fiducial": ["search-fiducial", "--dim", "2"],
        "apply-approx-transpose": ["apply-approx-transpose", "--state", singlet_file(tmp_path)],
        "detect": ["detect", "--state", singlet_file(tmp_path), "--cut", "A|B"],
        "tripartite-demo": ["tripartite-demo"],
        "verify-all": ["verify-all"],
    }[command]
    value = qubit_fiducial_file(tmp_path) if option == "--fiducial" else "1"
    assert_refused_before_printing(argv + [option, value], option, capsys)


@pytest.mark.parametrize("tolerance", ["nan", "-1e-10", "0", "inf"])
def test_cli_tolerance_must_be_finite_and_positive(capsys, tolerance):
    argv = ["verify-design", "--dim", "2", "--kind", "sic", "--tolerance", tolerance]
    assert_refused_before_printing(argv, "--tolerance", capsys)


def test_cli_search_fiducial_refuses_a_dimension_beyond_64(capsys, monkeypatch):
    def no_allocation(v):
        raise AssertionError("an orbit was computed")

    monkeypatch.setattr(designs, "_weyl_orbit", no_allocation)
    code = main(["search-fiducial", "--dim", str(10**6)])
    err = assert_one_line_usage_error(code, capsys)
    assert "64" in err


def test_cli_verify_design_refuses_a_mub_dimension_beyond_64(capsys, monkeypatch):
    def no_allocation(*args):
        raise AssertionError("the primality test or the two-design check ran")

    monkeypatch.setattr(designs, "_is_prime", no_allocation)
    monkeypatch.setattr(designs, "_pair_projector_sum", no_allocation)
    code = main(["verify-design", "--kind", "mub", "--dim", "101"])
    err = assert_one_line_usage_error(code, capsys)
    assert "64" in err


def test_cli_verify_all_json_is_byte_stable(tmp_path, monkeypatch):
    # the search's wall time differs between runs; criterion 12 reads the
    # clock only to time the search
    clock = iter([0.0, 0.1, 0.0, 0.5])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify-all", "--max-dim", "2", "--json", str(r1)]) == 0
    assert main(["verify-all", "--max-dim", "2", "--json", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
