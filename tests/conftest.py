import os
import sys

import pytest

# Pin BLAS and OpenMP to one thread before anything imports numpy: thread
# counts change BLAS reduction order, so printed figures (criterion 8's
# table) and pinned digests (GOLDEN_ROWS, GOLDEN_DIGESTS) would vary between
# hosts, and forked workers would start while BLAS threads are running. A
# variable the caller set is left alone.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_UNSET = [var for var in THREAD_VARS if var not in os.environ]
# BLAS reads the variables once, when numpy loads it; a pin set after that
# changes nothing.
_NUMPY_FIRST = "numpy" in sys.modules
for _var in _UNSET:
    os.environ[_var] = "1"


def pytest_configure(config):
    if _UNSET and _NUMPY_FIRST:
        raise pytest.UsageError(
            "numpy was imported before tests/conftest.py could pin BLAS to one thread, so "
            "the pinned digests would follow this host's thread count. Set "
            f"{', '.join(_UNSET)} in the environment, or import numpy after pytest starts.")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance tests record one verdict line each; replay them after the
    # run so they survive output capture
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.line(line)
