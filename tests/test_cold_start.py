"""Cold start: scipy is imported only when a SIC fiducial search runs.

Each check runs the CLI in a fresh interpreter, because the test process
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

# runs main() on each argv in turn, then prints the exit codes and the loaded
# scipy modules as the last line of stdout
RUNNER = """
import json, sys
from transposim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def start_cli(commands, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(transposim.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-c", RUNNER, json.dumps(commands)], cwd=cwd,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(proc):
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_only_the_fiducial_search_imports_scipy(tmp_path):
    qubit = tmp_path / "qubit.json"
    save_state(DensityMatrix(np.diag([1.0, 0.0])), str(qubit))
    singlet = np.zeros((4, 4))
    singlet[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    pair = tmp_path / "singlet.json"
    save_state(DensityMatrix(singlet, dims=(2, 2)), str(pair))
    commands = [
        ["verify-design", "--dim", "3", "--kind", "sic"],
        ["verify-design", "--dim", "5", "--kind", "mub"],
        *(["apply-approx-transpose", "--state", str(qubit), "--via", via]
          for via in ("formula", "design", "two-step", "optics")),
        ["detect", "--state", str(pair), "--cut", "A|B", "--shots", "500", "--seed", "9"],
        ["tripartite-demo"],
    ]
    # both interpreters start at once: the control's scipy import overlaps the other run
    without_search = start_cli(commands, tmp_path)
    control = start_cli([["search-fiducial", "--dim", "4", "--seed", "7"]], tmp_path)
    quiet, searched = finish(without_search), finish(control)

    assert quiet["codes"] == [0] * len(commands)
    assert quiet["scipy"] == []
    # the positive control shows the check sees a scipy import when one happens
    assert searched["codes"] == [0]
    assert "scipy.optimize" in searched["scipy"]
