"""Each layer module imports alone in a fresh interpreter, so an import
cycle between the layers fails here whatever order the tests import them in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import osgood

LAYERS = ("field", "bands", "kfunc", "spaces", "biot", "growth")


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_alone(module):
    src = str(Path(osgood.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", f"import osgood.{module}"], env=env, check=True, timeout=120)
