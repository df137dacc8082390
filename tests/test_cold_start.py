"""What a CLI start loads: no command imports scipy, and each subcommand
loads only the transposim modules it runs.

Every check runs the CLI in a fresh interpreter, because the test process
itself has already loaded numpy and every transposim module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transposim
from transposim import DensityMatrix, save_state

# blocks scipy (any import of it raises ImportError), runs main() on each argv
# in turn, then tries `import scipy.optimize` as the positive control and
# prints the exit codes and the control's outcome as the last line of stdout
RUNNER = """
import json, sys
sys.modules["scipy"] = None
from transposim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
try:
    import scipy.optimize
    control = "imported"
except ImportError:
    control = "ImportError"
print(json.dumps({"codes": codes, "control": control}))
"""


def test_no_command_imports_scipy(tmp_path):
    qubit = tmp_path / "qubit.json"
    save_state(DensityMatrix(np.diag([1.0, 0.0])), str(qubit))
    singlet = np.zeros((4, 4))
    singlet[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    pair = tmp_path / "singlet.json"
    save_state(DensityMatrix(singlet, dims=(2, 2)), str(pair))
    commands = [
        ["verify-design", "--dim", "3", "--kind", "sic"],
        ["verify-design", "--dim", "5", "--kind", "mub"],
        ["search-fiducial", "--dim", "4", "--seed", "7"],
        *(["apply-approx-transpose", "--state", str(qubit), "--via", via]
          for via in ("formula", "design", "two-step", "optics")),
        ["detect", "--state", str(pair), "--cut", "A|B", "--shots", "500", "--seed", "9"],
        ["tripartite-demo"],
        ["verify-all", "--max-dim", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(transposim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(commands)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    assert report["codes"] == [0] * len(commands)
    # the positive control shows the block makes a scipy import fail
    assert report["control"] == "ImportError"


# imports the CLI, runs main() on the argv given (if any), then prints the exit
# code and the transposim modules and numpy in sys.modules as the last line
RECORDER = """
import json, sys
import transposim.cli
argv, code = json.loads(sys.argv[1]), None
if argv is not None:
    try:
        code = transposim.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "transposim")
print(json.dumps({"code": code, "loaded": loaded}))
"""


def loaded_by(argv, cwd):
    """Exit code of `main(argv)` in a fresh interpreter, and the modules it left loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(transposim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", RECORDER, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["code"], set(report["loaded"])


def test_importing_the_cli_loads_only_the_package_and_its_errors(tmp_path):
    _, loaded = loaded_by(None, tmp_path)
    assert loaded == {"transposim", "transposim.cli", "transposim.errors"}


def test_verify_design_loads_no_channel_witness_or_acceptance_module(tmp_path):
    code, loaded = loaded_by(["verify-design", "--dim", "2", "--kind", "sic"], tmp_path)
    assert code == 0
    assert "transposim.designs" in loaded
    for name in ("channels", "witness", "estimator", "twostep", "optics", "acceptance"):
        assert f"transposim.{name}" not in loaded


def test_detect_without_shots_loads_no_estimator_circuit_or_acceptance_module(tmp_path):
    state = tmp_path / "mixed.json"
    save_state(DensityMatrix(np.eye(4) / 4, dims=(2, 2)), str(state))
    code, loaded = loaded_by(["detect", "--state", str(state), "--cut", "A|B"], tmp_path)
    assert code == 0
    assert "transposim.witness" in loaded
    for name in ("estimator", "twostep", "optics", "acceptance"):
        assert f"transposim.{name}" not in loaded


def test_detect_refuses_a_malformed_state_file_before_loading_the_witnesses(tmp_path):
    state = tmp_path / "malformed.json"
    state.write_text(json.dumps({"dims": [2, 2], "matrix": "not a matrix"}))
    code, loaded = loaded_by(["detect", "--state", str(state), "--cut", "A|B"], tmp_path)
    assert code == 2
    assert "transposim.witness" not in loaded


def test_a_usage_error_loads_no_numpy(tmp_path):
    argv = ["verify-design", "--dim", "2", "--kind", "sic", "--tolerance", "nan"]
    code, loaded = loaded_by(argv, tmp_path)
    assert code == 2
    assert "numpy" not in loaded
