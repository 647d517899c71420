"""Each example script under ``scripts/`` runs to the end in a fresh work directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import radlearn

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_runs(script, tmp_path):
    src = os.path.dirname(os.path.dirname(radlearn.__file__))
    out = subprocess.run([sys.executable, str(SCRIPTS / script), str(tmp_path / "run")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout
