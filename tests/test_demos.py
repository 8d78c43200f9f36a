"""Every script under demos/, and the README's training loop, runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import labmlm

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py to run"


def run_script(script, cwd):
    src = str(Path(labmlm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    run_script(demo, tmp_path)


def test_readme_training_loop_runs(tmp_path):
    """The README's "minimal training loop" block runs as written."""
    readme = (ROOT / "README.md").read_text()
    intro = "A minimal training loop in code:\n\n```python\n"
    assert intro in readme, "README lost its minimal training loop"
    block = readme.split(intro, 1)[1].split("```", 1)[0]
    script = tmp_path / "readme_loop.py"
    script.write_text(block)
    run_script(script, tmp_path)
    assert (tmp_path / "out" / "metrics.csv").is_file()
    assert (tmp_path / "out" / "checkpoints" / "final.ckpt").is_file()
