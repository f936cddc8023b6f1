"""Command-line driver: scenario validation, momentum solves, full
planning and horizon-scaling benchmarks.

All outputs are CSV files prefixed with the version header line
``# kinomo-csv v1``. Exit codes: 0 success, 2 schema/parse error (also
a malformed command-line option, such as an ``--out-dir`` that is not a
writable directory), 3 solver did not converge, 4 numeric
failure (also an infeasible SQP subproblem, and a contact export met with
a non-positive normal force).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import statistics
import sys
import time

from . import planner, scenario
from .contact import ContactWrenchCom, NormalForceNonPositive, com_to_cop, cop_wrench_feasibility
from .solver import QPSubproblemInfeasible, solve
from .transcription import extract

CSV_HEADER = "# kinomo-csv v1"

# the --formulation choices and the formulation names they stand for
FORMULATIONS = {"seq": "sequential", "sim": "simultaneous"}

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERIC = 4

_STATUS_EXIT = {
    "Converged": EXIT_OK,
    "MaxIter": EXIT_NOT_CONVERGED,
    "Infeasible": EXIT_NOT_CONVERGED,
    "NumericFailure": EXIT_NUMERIC,
}


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def _solver_options(scn, args):
    backend = getattr(args, "backend", None)
    if backend:
        return dataclasses.replace(
            scn.solver, backend={"ipm": "ipm", "sqp": "sqp_dense"}[backend]
        )
    return scn.solver


def _contact_rows(scn, sol, formulation):
    """(t, effector, world force, CoP coordinates, normal torque, feasible)."""
    rows = []
    for t in range(scn.T):
        for i, ph in enumerate(scn.phases):
            if not ph.active(t):
                continue
            if formulation == "sequential":
                w = com_to_cop(
                    ContactWrenchCom(sol["forces"][i][t], sol["kappas"][i][t]),
                    ph.surface, sol["h"][t, :3],
                )
            else:
                w = sol["wrenches"][(i, t)]
            f_world = ph.surface.R @ w.f_hat
            verdict = cop_wrench_feasibility(ph, w, tol=1e-9)
            rows.append(
                [t, ph.effector_id, *f_world, w.p_hat[0], w.p_hat[1], w.tau_hat,
                 int(verdict["feasible"])]
            )
    return rows


def cmd_validate(args):
    try:
        scn = scenario.load_scenario(args.scenario)
    except scenario.ParseError as e:
        print(f"parse error: {e}")
        return EXIT_SCHEMA
    except scenario.SchemaViolation as e:
        print(f"schema violation at {e.path}: {e.reason}")
        return EXIT_SCHEMA
    print(
        f"{scn.name}: valid (T={scn.T}, delta={scn.delta}, "
        f"{len(scn.phases)} phases, {scn.model.dof} dof, M={scn.model.total_mass:.3f})"
    )
    return EXIT_OK


def cmd_momentum(args):
    scn = scenario.load_scenario(args.scenario)
    p = planner.momentum_problem(scn, planner.initialize_references(scn), args.formulation)
    opts = _solver_options(scn, args)
    res = solve(p, opts)
    # the IPM starts from the exact Hessian and falls back at most once
    fallbacks = int(
        opts.backend == "ipm" and any(st.hessian == "convexified" for st in res.stats)
    )
    print(
        f"{scn.name} [{args.formulation}/{res.status}] n={p.n} "
        f"iters={len(res.stats)} fallbacks={fallbacks} "
        f"objective={res.objective:.6g} kkt={max(res.kkt):.3e}"
    )
    if res.status == "NumericFailure":
        return EXIT_NUMERIC
    sol = extract(p, res.x)
    contacts = _contact_rows(scn, sol, args.formulation)
    base = os.path.join(args.out_dir, scn.name)
    _write_csv(
        base + "_momentum.csv",
        ["t", "rx", "ry", "rz", "lx", "ly", "lz", "kx", "ky", "kz"],
        [[t, *sol["h"][t]] for t in range(scn.T + 1)],
    )
    _write_csv(
        base + "_contacts.csv",
        ["t", "effector", "fx", "fy", "fz", "px_hat", "py_hat", "tau_hat", "feasible"],
        contacts,
    )
    _write_csv(
        base + "_iterations.csv",
        ["iter", "kkt", "mu", "alpha", "time_ms", "hessian"],
        [[st.iter, st.kkt, st.mu, st.alpha, st.time_ms, st.hessian] for st in res.stats],
    )
    return _STATUS_EXIT[res.status]


def cmd_plan(args):
    scn = scenario.load_scenario(args.scenario)
    try:
        traj, h, forces, report = planner.plan(
            scn, planner.PlanOptions(formulation=args.formulation)
        )
    except planner.PlannerError as e:
        print(f"error: {e}")
        return EXIT_NUMERIC
    base = os.path.join(args.out_dir, scn.name)
    dof = scn.model.dof
    _write_csv(
        base + "_joints.csv",
        ["t"] + [f"q{j}" for j in range(dof)],
        [[t, *traj.q[t]] for t in range(scn.T + 1)],
    )
    _write_csv(
        base + "_passes.csv",
        ["outer", "mismatch", "delta_h", "delta_c", "momentum_status"],
        [
            [k + 1, report["mismatch"][k], report["delta_h"][k],
             report["delta_c"][k], report["momentum_status"][k]]
            for k in range(report["passes"])
        ],
    )
    sol = {"h": h, "forces": forces, "kappas": report["state"].kappas}
    _write_csv(
        base + "_cop.csv",
        ["t", "effector", "px_hat", "py_hat", "px_max", "py_max", "feasible"],
        [
            [r[0], r[1], r[5], r[6],
             *_phase_for(scn, r[0], r[1]).surface.p_max, r[8]]
            for r in _contact_rows(scn, sol, "sequential")
        ],
    )
    print(
        f"{scn.name}: {report['passes']} passes, converged={report['converged']}, "
        f"mismatch={report['mismatch'][-1]:.3e}"
    )
    return EXIT_OK if report["converged"] else EXIT_NOT_CONVERGED


def _phase_for(scn, t, effector):
    for ph in scn.phases:
        if ph.effector_id == effector and ph.active(t):
            return ph
    raise KeyError((t, effector))


def _bench_cell(scn, T, formulation, repeats):
    base = scenario.rescale_horizon(scn, T)
    p = planner.momentum_problem(base, planner.initialize_references(base), formulation)
    times, iters, kkts = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = solve(p, base.solver)
        times.append((time.perf_counter() - t0) * 1e3)
        iters.append(len(res.stats))
        kkts.append(max(res.kkt))
    total = statistics.median(times)
    n_it = statistics.median(iters)
    return [T, p.n, n_it, total, total / max(1, n_it), statistics.median(kkts)]


def cmd_bench(args):
    scn = scenario.load_scenario(args.scenario)
    rows = [_bench_cell(scn, T, args.formulation, args.repeats) for T in args.T_list]
    # the file keeps the option's spelling: seq | sim
    short = {v: k for k, v in FORMULATIONS.items()}[args.formulation]
    path = os.path.join(args.out_dir, f"{scn.name}_bench_{short}.csv")
    _write_csv(path, ["T", "n_vars", "iter_count", "total_ms", "ms_per_iter", "kkt_final"], rows)
    for r in rows:
        print(f"T={r[0]:5d} n={r[1]:6d} iters={r[2]:.0f} total={r[3]:.1f}ms per_iter={r[4]:.2f}ms kkt={r[5]:.2e}")
    return EXIT_OK


def _positive_int(text):
    """An integer >= 1, as an argparse type: anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def _out_dir(text):
    """A writable directory, as an argparse type: checked before any solve."""
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a directory")
    if not os.access(text, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"{text!r} is not writable")
    return text


def _horizons(text):
    """A comma-separated list of horizons, each an integer >= 1."""
    return [_positive_int(v) for v in text.split(",")]


def build_parser():
    ap = argparse.ArgumentParser(prog="kinomo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out-dir", type=_out_dir, default=".",
                       help="directory for CSV outputs")

    p = sub.add_parser("validate", help="schema-check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("momentum", help="solve the momentum sub-problem")
    common(p)
    p.add_argument("--formulation", choices=tuple(FORMULATIONS), default="seq")
    p.add_argument("--backend", choices=("ipm", "sqp"), default=None)
    p.set_defaults(fn=cmd_momentum)

    p = sub.add_parser("plan", help="run the full alternating planner")
    common(p)
    p.add_argument("--formulation", choices=tuple(FORMULATIONS), default="seq")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("bench", help="horizon-scaling benchmark")
    common(p)
    p.add_argument("--formulation", choices=tuple(FORMULATIONS), default="seq")
    p.add_argument("--T-list", dest="T_list", type=_horizons, default="25,50,100,200,400")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if "formulation" in vars(args):
        args.formulation = FORMULATIONS[args.formulation]
    try:
        return args.fn(args)
    except (scenario.ParseError, scenario.SchemaViolation) as e:
        print(f"error: {e}")
        return EXIT_SCHEMA
    except (QPSubproblemInfeasible, NormalForceNonPositive) as e:
        print(f"error: {type(e).__name__}: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
