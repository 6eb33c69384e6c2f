"""The demo scripts run to completion against the current package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import shallowlight

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    script = DEMOS / name
    if name == "render_gallery.py":  # writes its SVGs next to the script
        script = Path(shutil.copy(script, tmp_path))
    env = dict(os.environ)
    package_root = str(Path(shallowlight.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
