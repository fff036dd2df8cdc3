"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys

import pytest

import ldlnet

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _run_demo(name, cwd):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ldlnet.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(DEMOS, name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", ["01_score_distributions.py", "02_gradient_checking.py",
                                  "03_network_anatomy.py", "04_synthetic_faces.py"])
def test_demo_runs(name, tmp_path):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_training_demo_runs(tmp_path):
    proc = _run_demo("05_train_end_to_end.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "final held-out PC" in proc.stdout
