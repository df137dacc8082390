"""No command imports scipy: every subcommand runs with scipy blocked.

The check runs the CLI in a fresh interpreter, because the test process
itself may already have loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
