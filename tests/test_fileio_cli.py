import json

import numpy as np
import pytest

from transposim import (
    DensityMatrix,
    ParseError,
    ValidationError,
    builtin_fiducial,
    haar_random_density,
    load_fiducial,
    parse_state_file,
    save_fiducial,
    save_state,
)
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


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": "abc", "vectors": [[[1.0, 0.0], [0.0, 0.0]]]},
        {"dim": 2, "vectors": 5},
    ],
    ids=["dim-abc", "vectors-5"],
)
def test_cli_malformed_fiducial_file_is_a_usage_error(tmp_path, capsys, doc):
    path = write_json(tmp_path / "fid.json", doc)
    with pytest.raises(ParseError):
        load_fiducial(path)
    code = main(["verify-design", "--dim", "2", "--kind", "sic", "--fiducial", path])
    assert_one_line_usage_error(code, capsys)


def test_cli_json_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    report = tmp_path / "missing_dir" / "report.json"
    code = main(["tripartite-demo", "--json", str(report)])
    err = assert_one_line_usage_error(code, capsys)
    assert "cannot write" in err
    with pytest.raises(ParseError):
        save_state(DensityMatrix(np.eye(2) / 2), str(report))
    with pytest.raises(ParseError):
        save_fiducial(builtin_fiducial(2), str(report))


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_cli_detect_rejects_shots_below_one_before_printing(tmp_path, capsys, shots):
    state = singlet_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--state", state, "--cut", "A|B", "--shots", shots])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--shots" in err
