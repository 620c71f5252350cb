"""Smoke test: every demo script, and the README's Python blocks, run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import normalgraph

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_python(args, cwd):
    """A fresh interpreter that imports this package and, as the suite does,
    turns RuntimeWarning into an error."""
    package_root = Path(normalgraph.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    """The README's Python blocks, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    proc = run_python(["-c", "\n".join(blocks)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"
