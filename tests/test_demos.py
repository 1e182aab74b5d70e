"""The demos run against the package under test.

Each demo runs in a fresh interpreter, so a name one of them uses that
the library no longer has fails here rather than at a reader's first
try. Demos 01 and 02 run to completion (about 0.1 s each on a 2-vCPU
guest). Demos 03 and 04 train models (about 20 s and 45 s there), so
they are only loaded: ``runpy`` runs their imports and definitions
under a module name other than ``__main__``, which skips ``main()``.
Run them in full with ``python3 demos/<name>``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import durflow

SRC = os.path.dirname(os.path.dirname(durflow.__file__))
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
LOAD_ONLY = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='not_main')"


def run_fresh(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_autodiff_engine.py", "02_flow_matching_1d.py"])
def test_demo_exits_zero(tmp_path, name):
    result = run_fresh([str(DEMOS / name)], tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", ["03_read_corpus_training.py",
                                  "04_spontaneous_variance.py"])
def test_training_demo_imports(tmp_path, name):
    result = run_fresh(["-c", LOAD_ONLY, str(DEMOS / name)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
