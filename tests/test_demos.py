"""Every demo script runs to completion against the installed package, and
the per-mode demos print exactly their stored output."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robinlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DATA = Path(__file__).resolve().parent / "data"
# their files hold the output from before the split description
# (spectral.split_modes) fed them, and half_plane_advisor's from before
# von_neumann_rho read reduction_spectrum and the advisor theta_star; each
# is the same under one and two BLAS threads
PINNED = ("interface_operator", "closed_form_rates", "half_plane_advisor")


def test_demo_directory_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    # a fresh interpreter, so a demo sees only the public package
    src = str(Path(robinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if script.stem in PINNED:
        assert done.stdout == (DATA / f"demo_{script.stem}.txt").read_text()
