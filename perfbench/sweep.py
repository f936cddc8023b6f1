"""Horizon sweep: median IPM iteration time against the horizon T.

    python3 perfbench/sweep.py

Runs the momentum sub-problem of the shipped step_stones scenario, rescaled
to each T, for a fixed iteration budget in both formulations, and prints
one row per (formulation, T). A linear-time iteration keeps
``iter_ms / T`` flat. The solves stop at the budget, so their status is
not Converged; only the time per iteration is of interest.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import dataclasses  # noqa: E402
import statistics  # noqa: E402

from run import SHIPPED, import_kinomo  # noqa: E402

HORIZONS = (50, 100, 200, 400)
MAX_ITER = 30


def main():
    km = import_kinomo()
    base = km.scenario.load_scenario(SHIPPED)
    print(f"{'formulation':<13}{'T':>5}{'n':>7}{'iters':>7}{'iter_ms':>10}{'ms/T':>8}  status")
    for formulation in ("sequential", "simultaneous"):
        build = getattr(km.transcription, f"build_{formulation}")
        for T in HORIZONS:
            scn = km.scenario.rescale_horizon(base, T)
            state = km.planner.initialize_references(scn)
            p = build(scn.momentum_scenario(state.h_bar, state.lambda_bar))
            res = km.solver.solve(p, dataclasses.replace(scn.solver, max_iter=MAX_ITER))
            ms = statistics.median(st.time_ms for st in res.stats)
            print(f"{formulation:<13}{T:>5}{p.n:>7}{len(res.stats):>7}{ms:>10.2f}"
                  f"{ms / T:>8.3f}  {res.status}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
