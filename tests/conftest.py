import os
import sys

# Pin BLAS and OpenMP to one thread before anything imports numpy: thread
# counts change BLAS reduction order, so printed figures (criterion 8's
# table) would vary between hosts, and forked workers would start while BLAS
# threads are running. A variable the caller set is left alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


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
