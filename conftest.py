"""Test-session setup shared by tests/ and perfbench/.

One BLAS thread, set before numpy is first imported, as perfbench/run.py
does: the timing tests (criterion 7, the banded-solve scaling test) then
measure the solver rather than BLAS threads competing for the cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
