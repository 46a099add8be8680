"""The demo scripts run to completion and print their results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pspinlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(pspinlab.__file__).resolve().parents[1])

# 04_coupling_term_clt.py is left out: it draws about 15 s of replicas,
# where each of these takes 3 s or less
SMOKE_DEMOS = (
    "01_exact_small_system.py",
    "02_limit_constants.py",
    "03_covariance_profile.py",
    "05_fluctuation_ladder.py",
    "06_identity_audit.py",
)


@pytest.mark.parametrize("name", SMOKE_DEMOS)
def test_demo_runs(name):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
