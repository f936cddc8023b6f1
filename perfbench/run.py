"""kinomo benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload step-seq --seed 0 --seconds 30 --trace 0

Run from the root of a source tree of kinomo (``src/kinomo``,
``scenarios/step_stones.json``); nothing needs installing. The last line of
standard output is the result, ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics from a traced run. The line before
it is the machine record. Results and spans are also written under
``.perfbench_out/``. See perfbench/README.md for the workloads and metrics.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the process then runs on one
# core of the two the benchmark machine has, and timings are not skewed by
# BLAS threads competing with the interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = ROOT / "scenarios" / "step_stones.json"
OUT_DIR = ROOT / ".perfbench_out"

# The step-* instances are the shipped step_stones scenario cut at T=49:
# three foot steps, ending in double support. The full T=100 sequential
# solve takes about 40 s on the benchmark machine, so a run of T=100 would
# hold a single operation and no reference solve.
STEP_T = 49
# plan-step: one complete right-foot step (lift at 7, land at 14).
PLAN_T = 21
PLAN_OPTIONS = {"max_outer": 2, "kinematic_max_iter": 10}
# Instance j moves every stone by up to STONE_JITTER in x and y, drawn from
# seed j; instance 0 is unmodified. A run with seed s solves K consecutive
# instances (modulo POOL) from 5*s, K per workload, so that its median
# averages over instances whose iteration counts differ by about 10%; the
# stride 5 is prime to POOL, so seeds 0..15 start at 16 different places.
# The pool is finite so that every input a seed can select has been
# checked, and so that the other-formulation references of the step-*
# instances are solved once per source tree and kept on disk.
STONE_JITTER = 0.01  # m
INSTANCES_PER_RUN = {"step-seq": 6, "step-sim": 8, "plan-step": 2}
POOL = 16
# Set-ups per group. A group of set-ups of the next instance precedes every
# operation and one more group follows the last, so that the set-up samples
# spread over the whole run, as the operations do, and see the same machine
# conditions; the machine's speed drifts over seconds. plan-step runs only
# two operations, so its groups are larger.
SETUP_GROUP = {"step-seq": 2, "step-sim": 2, "plan-step": 5}


class BenchError(RuntimeError):
    pass


def import_kinomo():
    """kinomo from this source tree, never from an installed copy."""
    if not (SRC / "kinomo" / "__init__.py").is_file() or not SHIPPED.is_file():
        raise BenchError(f"no kinomo source tree at {ROOT}")
    sys.path.insert(0, str(SRC))
    import kinomo
    import kinomo.kinematics
    import kinomo.linalg
    import kinomo.planner
    import kinomo.scenario
    import kinomo.solver
    import kinomo.transcription

    if Path(kinomo.__file__).resolve().parent != SRC / "kinomo":
        raise BenchError(f"imported kinomo from {kinomo.__file__}, not {SRC}")
    return kinomo


# ---------------------------------------------------------------------------
# inputs


def instance_ids(workload, seed):
    k = INSTANCES_PER_RUN[workload]
    return [(5 * seed + j) % POOL for j in range(k)]


def perturb_stones(data, instance):
    """Move each stone (phase surface origin) by up to STONE_JITTER in x
    and y; instance 0 is left unmodified. Every instance does the same
    work, so that set-up time does not depend on the instance."""
    import numpy as np

    jitter = STONE_JITTER if instance else 0.0
    rng = np.random.default_rng(instance)
    for ph in data["phases"]:
        dx, dy = rng.uniform(-1.0, 1.0, size=2) * jitter
        ph["surface"]["origin"][0] += float(dx)
        ph["surface"]["origin"][1] += float(dy)
    return data


def step_stones_dict(T):
    """The shipped step_stones scenario with its phases cut at T."""
    with open(SHIPPED) as f:
        data = json.load(f)
    data["T"] = T
    data["phases"] = [ph for ph in data["phases"] if ph["sigma"] < T]
    for ph in data["phases"]:
        ph["epsilon"] = min(ph["epsilon"], T)
    return data


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class StepWorkload:
    """Momentum sub-problem of the cut step_stones instance, solved to
    convergence from the planner's initial references."""

    def __init__(self, km, formulation):
        self.km = km
        self.formulation = formulation
        self.other = "simultaneous" if formulation == "sequential" else "sequential"

    def _build(self, ms, formulation):
        tr = self.km.transcription
        build = tr.build_sequential if formulation == "sequential" else tr.build_simultaneous
        return build(ms)

    def _extract(self, p, x, formulation):
        tr = self.km.transcription
        ex = tr.extract_sequential if formulation == "sequential" else tr.extract_simultaneous
        return ex(p, x)

    def setup(self, instance, tracer):
        km = self.km
        with _span(tracer, "scenario.load"):
            scn = km.scenario.scenario_from_dict(
                perturb_stones(step_stones_dict(STEP_T), instance), name="step_stones")
        state = km.planner.initialize_references(scn)
        ms = scn.momentum_scenario(state.h_bar, state.lambda_bar)
        p = self._build(ms, self.formulation)
        p.compiled_objective()
        p.compiled_ineq()
        if p.n_eq:
            p.compiled_eq()
        return {"instance": instance, "scn": scn, "ms": ms, "p": p}

    def reference(self, ctx):
        """(objective, momentum) of the other formulation's solution of the
        same instance, or None if it did not converge. It is solved outside
        the timed region and kept under .perfbench_out/refs, keyed by the
        instance and a hash of the sources, for later runs."""
        import numpy as np
        from checks import tracking_objective

        path = (OUT_DIR / "refs"
                / f"{self.other}-T{STEP_T}-{ctx['instance']}-{source_hash()}.npz")
        if path.is_file():
            with np.load(path, allow_pickle=False) as ref:
                return float(ref["objective"]), ref["h"]
        p = self._build(ctx["ms"], self.other)
        res = self.km.solver.solve(p, ctx["scn"].solver)
        if not res.converged:
            return None
        sol = self._extract(p, res.x, self.other)
        J = tracking_objective(ctx["ms"], sol)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, objective=J, h=sol["h"])
        os.replace(tmp, path)
        return J, sol["h"]

    def op(self, ctx):
        return self.km.solver.solve(ctx["p"], ctx["scn"].solver)

    def failed(self, res):
        return not res.converged

    def check(self, ctx, res, ref):
        from checks import Check, check_momentum_solution

        if ref is None:
            return [Check("reference_converged", False, 0.0, 0.0)], {}
        sol = self._extract(ctx["p"], res.x, self.formulation)
        checks, gap = check_momentum_solution(
            ctx["ms"], sol, res.objective,
            torque_row=self.formulation == "simultaneous", reference=ref)
        return checks, {"contact.torque_gap_nm": gap}


class PlanWorkload:
    """The alternating planner on a one-step instance, two outer passes."""

    def __init__(self, km):
        self.km = km

    def setup(self, instance, tracer):
        """Scenario, initial references, and the build and first compile of
        the momentum problem at those references. plan() rebuilds that
        problem every pass; building it here too makes work moved into
        problem building show in setup_s on this workload as on step-*."""
        km = self.km
        sc = km.scenario
        with _span(tracer, "scenario.load"):
            data = sc.scenario_to_dict(sc.make_stepping_scenario(T=PLAN_T))
            scn = sc.scenario_from_dict(perturb_stones(data, instance), name="step_one")
        state = km.planner.initialize_references(scn)
        p = km.transcription.build_sequential(
            scn.momentum_scenario(state.h_bar, state.lambda_bar))
        p.compiled_objective()
        p.compiled_ineq()
        return {"instance": instance, "scn": scn}

    def reference(self, ctx):
        return None

    def op(self, ctx):
        pl = self.km.planner
        try:
            return pl.plan(ctx["scn"], pl.PlanOptions(**PLAN_OPTIONS))
        except pl.PlannerError as exc:
            return exc

    def failed(self, out):
        """plan() raised, or a pass's momentum solve did not converge:
        plan() raises only for NumericFailure and Infeasible."""
        from checks import momentum_converged

        return isinstance(out, Exception) or not momentum_converged(out[3])

    def check(self, ctx, out, ref):
        from checks import check_plan

        traj, h, forces, report = out
        kin = self.km.kinematics
        checks, quality = check_plan(
            ctx["scn"], traj.q, h, forces, report["state"].kappas, report,
            kin.momentum_state, kin.effector_positions)
        return checks, {
            "contact.torque_gap_nm": quality["torque_gap"],
            "kinematics.stance_drift_m": quality["stance_drift"],
            "planner.mismatch": report["mismatch"][-1],
        }


WORKLOADS = {
    "step-seq": lambda km: StepWorkload(km, "sequential"),
    "step-sim": lambda km: StepWorkload(km, "simultaneous"),
    "plan-step": PlanWorkload,
}


# ---------------------------------------------------------------------------
# machine record


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def os_threads():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def source_hash():
    """Hash of the kinomo sources, the shipped scenario and the benchmark."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kinomo").glob("*.py")) + [SHIPPED] + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "os_threads": os_threads(),
        "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# one run


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run(km, name, seed, seconds, trace):
    from tracing import SETUP_METRICS, Tracer, layer_metrics, patched

    wl = WORKLOADS[name](km)
    tracer = Tracer() if trace else None

    def traced(kind, fn, *args):
        tracer.begin_request(kind)
        with patched(tracer, km):
            return _timed(fn, *args)

    ids = instance_ids(name, seed)
    ctxs, setup_s = {}, []

    def setup_group(instance):
        for _ in range(SETUP_GROUP[name]):
            if trace:
                ctx, dt = traced("setup", wl.setup, instance, tracer)
            else:
                ctx, dt = _timed(wl.setup, instance, None)
            setup_s.append(dt)
        # one context per instance, so that memory does not grow with the
        # number of rounds; every set-up of an instance builds the same problem
        ctxs[instance] = ctx
        return ctx

    op_s, traced_s, outputs = [], [], []

    def untraced_op(instance):
        out, dt = _timed(wl.op, ctxs[instance])
        op_s.append(dt)
        outputs.append((instance, out))

    def traced_op(instance):
        out, dt = traced("op", wl.op, ctxs[instance])
        traced_s.append(dt)
        outputs.append((instance, out))

    # A round sets up and solves every instance of the run once; a traced
    # round pairs each traced operation with an untraced one, in alternating
    # order, so that the overhead is measured under the same machine
    # conditions. A further round starts only if it is expected to end
    # within the run.
    start = time.perf_counter()
    rounds = 0
    while True:
        for k, instance in enumerate(ids):
            setup_group(instance)
            steps = [untraced_op] if not trace else (
                [untraced_op, traced_op] if (rounds + k) % 2 == 0
                else [traced_op, untraced_op])
            for step in steps:
                step(instance)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    setup_group(ids[0])
    # read before the references are solved, which is not the workload's work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = {i: wl.reference(ctxs[i]) for i in ids}
    failed = 0
    quality, bad = [], []
    worst = {}  # check name -> largest value seen; every check is value <= limit
    for instance, out in outputs:
        if wl.failed(out):
            failed += 1
            continue
        checks, q = wl.check(ctxs[instance], out, refs[instance])
        quality.append(q)
        for c in checks:
            worst[c.name] = max(worst.get(c.name, c.value), c.value)
            if not c.ok:
                bad.append(c.__dict__)

    if trace:
        metrics = layer_metrics(
            tracer, SETUP_METRICS if name.startswith("step-") else ("scenario.load_s",))
        for key in ("contact.torque_gap_nm", "kinematics.stance_drift_m", "planner.mismatch"):
            metrics[key] = float(statistics.median(q.get(key, 0.0) for q in quality)) \
                if quality else 0.0
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(op_s)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_s": statistics.median(op_s),
            "peak_rss_mb": peak_rss_mb,
        }
    times = {"instances": ids, "setup_s": setup_s, "op_s": op_s, "traced_op_s": traced_s}
    return {"correct": not bad, "attempted": len(outputs), "failed": failed,
            "metrics": metrics}, tracer, bad, worst, times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        km = import_kinomo()
    except (OSError, ValueError, BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    result, tracer, bad, worst, times = run(km, args.workload, args.seed, args.seconds, args.trace)
    if set(result["metrics"]) != set(units):
        print(f"perfbench: metrics {sorted(set(result['metrics']) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": float(v), "unit": units[k]}
                         for k, v in result["metrics"].items()}
    record = machine_record()

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as f:
        json.dump({"args": vars(args), "record": record, "times": times, "checks": worst,
                   "failed_checks": bad,
                   "result": result}, f, indent=1)
    if tracer:
        tracer.write_jsonl(f"{stem}.spans.jsonl")
    for c in bad:
        print(f"perfbench: check failed: {c}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
