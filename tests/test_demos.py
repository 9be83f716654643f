"""The demos under demos/, run as scripts: their output, byte for byte.

Each demo runs in a fresh directory with the package on PYTHONPATH.  Its
stdout, and each file it writes there, must match the copy under
demos/expected/ (stdout as `<demo>.txt`, files under their own names), and
it must write no other file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
EXPECTED = DEMOS / "expected"
WRITES = {"demo_baselines": ["baseline_results.csv"], "demo_lp_export": ["placement_3x3.lp"]}


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("demo_*.py")))
def test_demo_output_is_pinned(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo}.txt").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == WRITES.get(demo, [])
    for name in WRITES.get(demo, []):
        assert (tmp_path / name).read_text() == (EXPECTED / name).read_text(), name
