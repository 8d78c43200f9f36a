"""The suite refuses to run when numpy loaded before its BLAS thread pins."""

import os
import subprocess
import sys
from pathlib import Path

from labmlm.cli import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent


def _collect_after_numpy(env):
    code = ("import numpy, pytest, sys; "
            "sys.exit(pytest.main(['-q', '--co', '-p', 'no:cacheprovider', "
            "'tests/test_demos.py']))")
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_numpy_imported_before_the_pins_is_a_usage_error():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = _collect_after_numpy(env)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert "numpy was imported before tests/conftest.py" in proc.stdout + proc.stderr


def test_pins_set_by_the_caller_allow_numpy_first():
    proc = _collect_after_numpy(dict(os.environ, **{var: "1" for var in THREAD_VARS}))
    assert proc.returncode == 0, proc.stdout + proc.stderr
