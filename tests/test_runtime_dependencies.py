"""The package runs on numpy alone; scipy is an oracle of the tests only."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import strobe_tomo
from strobe_tomo import laser_cooling_model, matrix_to_json, model_to_json

from helpers import random_density

# Runs in a fresh interpreter where any import of scipy, at any time, fails.
# Prints the exit code of each command, then whether scipy got loaded and
# whether the block held.
WITHOUT_SCIPY = r"""
import contextlib, importlib.abc, io, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked in this test")
        return None

sys.meta_path.insert(0, BlockScipy())
import strobe_tomo
from strobe_tomo.cli import main

folder = sys.argv[1]
calls = [
    ["analyze", "--gamma1", "1", "--gamma2", "2"],
    ["find-observables", f"{folder}/model.json", "--out", f"{folder}/obs.json"],
    ["simulate", f"{folder}/model.json", f"{folder}/state.json", f"{folder}/obs.json",
     "--sigma", "1e-6", "--out", f"{folder}/record.csv"],
    ["reconstruct", f"{folder}/model.json", f"{folder}/obs.json", f"{folder}/record.csv", "--json"],
]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules, "blocked": blocked}))
"""


def test_package_and_cli_run_without_scipy(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))
    state = random_density(3, np.random.default_rng(0))
    (tmp_path / "state.json").write_text(json.dumps(matrix_to_json(state)))
    src = pathlib.Path(strobe_tomo.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy_loaded": False, "blocked": True}, done.stderr
