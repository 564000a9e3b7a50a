"""Smoke runs of the example scripts at their smallest useful arguments, so
a library change that breaks a script fails the suite.

``markov_causality_gap.py`` is left out: at ``--horizon 1`` and a
``--budget`` of 1 to 5 it takes 4 to 7 s on two cores, almost all of it in
the multistart search.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("coding_trend.py", ["--trials", "50"]),
    ("binary_hamming_sweep.py", ["--horizon", "1", "--points", "5",
                                 "--out", "{tmp}/curve.csv"]),
])
def test_script_exits_zero(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
