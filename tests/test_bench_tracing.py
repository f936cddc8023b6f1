"""The traced benchmark run (``perfbench/run.py --trace 1``) patches kinomo
names by ``getattr``; a renamed or deleted name breaks it. This test enters
the same patch on small runs, so tier-1 sees such a break."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import kinomo  # noqa: E402
import kinomo.kinematics  # noqa: E402
import kinomo.planner  # noqa: E402
import kinomo.solver  # noqa: E402
import kinomo.transcription  # noqa: E402
from kinomo.scenario import make_standing_scenario  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

lin, trn = kinomo.linalg, kinomo.transcription
OWNERS = (
    kinomo.kinematics, lin, kinomo.planner, kinomo.solver, trn,
    lin.BlockTridiagCholesky, lin.BandedArrowFactorization, lin.BandedLU,
    trn.NlpProblem, trn.CompiledVectorFunction, trn.CompiledObjective,
)

EXPECTED_SPANS = {
    "planner.plan", "kinematics.subproblem", "kinematics.jacobian",
    "linalg.blocktridiag", "linalg.blocktridiag_solve", "transcription.build",
    "transcription.compile", "transcription.eval", "transcription.hessian", "solver.solve",
    "linalg.backsolve",
}


def test_patched_names_exist_and_are_restored():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    tracer.begin_request("op")
    with patched(tracer, kinomo):
        changed = sum(
            vars(owner).get(k) is not v
            for owner, snap in zip(OWNERS, before) for k, v in snap.items()
        )
        assert changed > 0
        pl = kinomo.planner
        scn = make_standing_scenario(T=6)
        state = pl.initialize_references(scn)
        p = trn.build_sequential(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        assert kinomo.solver.solve(p, scn.solver).converged
        # the dense SQP is the one caller of the wrapped
        # convexified_lagrangian_hessian, the transcription.hessian span
        sqp = kinomo.solver.SolverOptions(backend="sqp_dense")
        assert kinomo.solver.solve(p, sqp).converged
        pl.plan(make_standing_scenario(T=6), pl.PlanOptions(max_outer=1))
    names = {span[1] for span in tracer.spans}
    assert EXPECTED_SPANS <= names, EXPECTED_SPANS - names
    assert {"kinematics.momentum_state", "kinematics.fk"} <= set(tracer.counts[0])
    for owner, snap in zip(OWNERS, before):
        after = vars(owner)
        assert set(after) == set(snap), owner
        for k, v in snap.items():
            assert after[k] is v, (owner, k)
