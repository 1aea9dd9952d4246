"""The experiment scripts the README lists run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, outputs", [
    ("energy_decay.py", ["energy_diffusion.csv", "energy_cora.csv", "energy_texas.csv"]),
    ("hk_radius_sweep.py", []),
    ("simplify_blocks.py", ["simplified.csv", "report.json"]),
])
def test_script_runs(tmp_path, script, outputs):
    out = tmp_path / "out"
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    if outputs:
        argv += ["--out", str(out)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert sorted(p.name for p in out.glob("*")) == sorted(outputs)
