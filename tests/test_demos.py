"""The quick demos run to completion.

Each demo runs in a fresh interpreter against the package under test,
so a name one of them uses that the library no longer has fails here
rather than at a reader's first try. Demos 01 and 02 take about 0.1 s
each on a 2-vCPU guest. Demos 03 and 04 train models (about 20 s and
45 s there), so they stay manual: run them with ``python3 demos/<name>``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import durflow

SRC = os.path.dirname(os.path.dirname(durflow.__file__))
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_autodiff_engine.py", "02_flow_matching_1d.py"])
def test_demo_exits_zero(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
