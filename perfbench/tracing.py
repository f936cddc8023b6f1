"""Spans and counters recorded around kinomo's public functions.

The traced run patches each public name where its caller looks it up
(``kinomo.solver.convexified_lagrangian_hessian``, ``kinomo.planner.solve``,
``kinomo.kinematics.momentum_jacobian``, ...) with a wrapper that records a
span: name, request, parent span, start and end. Hot leaf functions
(``momentum_state``, ``forward_kinematics``) are only counted. Spans stay in
memory and are written as JSON lines when the run ends; the per-layer
metrics are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    """In-memory spans and per-request counters.

    A request is one set-up or one timed operation of the benchmark; every
    span and count belongs to the request open when it was recorded.
    """

    def __init__(self):
        # [id, name, request, parent, start, end, attrs]
        self.spans = []
        self.requests = []  # kind per request id
        self.counts = []  # dict per request id
        self._stack = []

    def begin_request(self, kind):
        self.requests.append(kind)
        self.counts.append({})
        self._stack.clear()

    @property
    def request(self):
        return len(self.requests) - 1

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self.request, parent, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid, attrs=None):
        span = self.spans[sid]
        span[5] = time.perf_counter()
        span[6] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def count(self, name):
        c = self.counts[self.request]
        c[name] = c.get(name, 0) + 1

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for sid, name, req, parent, t0, t1, attrs in self.spans:
                f.write(json.dumps({
                    "id": sid, "name": name, "request": req,
                    "kind": self.requests[req], "parent": parent,
                    "start": t0, "end": t1, "attrs": attrs,
                }) + "\n")
            for req, counts in enumerate(self.counts):
                f.write(json.dumps({"request": req, "kind": self.requests[req],
                                    "counts": counts}) + "\n")


def _spanned(tracer, name, fn, attrs=None, error=None):
    """fn wrapped in a span. ``attrs(args, result)`` gives the span's
    attributes; an exception of type ``error`` is counted as
    ``<name>.rejects``."""

    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid, {"error": type(exc).__name__})
            if error is not None and isinstance(exc, error):
                tracer.count(f"{name}.rejects")
            raise
        tracer.close(sid, attrs(args, out) if attrs else None)
        return out

    return wrapper


def _counted(tracer, name, fn):
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _problem_sizes(args, p):
    return {"n_vars": int(p.n), "n_ineq": int(p.n_ineq), "n_eq": int(p.n_eq)}


def _solve_attrs(args, res):
    return {
        "iters": len(res.stats),
        "full_steps": sum(1 for st in res.stats if st.alpha == 1.0),
        "iter_ms": [st.time_ms for st in res.stats],
        "final_kkt": float(max(res.kkt)),
        "status": res.status,
    }


def _nnz_of_result(args, H):
    return {"nnz": int(H.nnz)}


def _nnz_of_matrix(args, fac):
    return {"nnz": int(args[0].nnz)}


@contextlib.contextmanager
def patched(tracer, kinomo):
    """Install the tracing wrappers on the kinomo modules; restore on exit."""
    kin, lin, pln, slv, trn = (
        kinomo.kinematics, kinomo.linalg, kinomo.planner, kinomo.solver,
        kinomo.transcription,
    )
    originals = []

    def patch(owner, attr, wrapper_for):
        orig = getattr(owner, attr)
        originals.append((owner, attr, orig))
        setattr(owner, attr, wrapper_for(orig))

    def factor(f):
        return _spanned(tracer, "linalg.factor", f, attrs=_nnz_of_matrix,
                        error=lin.NotPositiveDefinite)

    try:
        # planner layer
        patch(pln, "plan", lambda f: _spanned(tracer, "planner.plan", f))
        # kinematics layer: the planner imports solve_kinematic_subproblem
        # from kinomo.kinematics inside plan(), so the module name is patched
        patch(kin, "solve_kinematic_subproblem",
              lambda f: _spanned(tracer, "kinematics.subproblem", f))
        patch(kin, "momentum_jacobian",
              lambda f: _spanned(tracer, "kinematics.jacobian", f))
        for owner in (kin, pln):
            patch(owner, "momentum_state",
                  lambda f: _counted(tracer, "kinematics.momentum_state", f))
            patch(owner, "forward_kinematics",
                  lambda f: _counted(tracer, "kinematics.fk", f))
        patch(kin, "BlockTridiagCholesky",
              lambda f: _spanned(tracer, "linalg.blocktridiag", f))
        patch(lin.BlockTridiagCholesky, "solve",
              lambda f: _spanned(tracer, "linalg.blocktridiag_solve", f))
        # transcription layer: builds, compiles, evaluations, Hessians
        for owner in (pln, trn):
            for attr in ("build_sequential", "build_simultaneous"):
                patch(owner, attr, lambda f: _spanned(
                    tracer, "transcription.build", f, attrs=_problem_sizes))
        for attr in ("compiled_objective", "compiled_ineq", "compiled_eq"):
            patch(trn.NlpProblem, attr,
                  lambda f: _spanned(tracer, "transcription.compile", f))
        for cls, attrs in ((trn.CompiledVectorFunction, ("value", "jacobian")),
                           (trn.CompiledObjective, ("value", "gradient"))):
            for attr in attrs:
                patch(cls, attr, lambda f: _spanned(tracer, "transcription.eval", f))
        patch(slv, "convexified_lagrangian_hessian", lambda f: _spanned(
            tracer, "transcription.hessian", f, attrs=_nnz_of_result))
        # solver layer, called by the planner and by the benchmark
        for owner in (pln, slv):
            patch(owner, "solve",
                  lambda f: _spanned(tracer, "solver.solve", f, attrs=_solve_attrs))
        # linalg layer as the IPM uses it
        patch(slv, "factorize_banded_arrow", factor)
        patch(slv, "BandedLU", factor)
        for cls in (lin.BandedArrowFactorization, lin.BandedLU):
            patch(cls, "solve", lambda f: _spanned(tracer, "linalg.backsolve", f))
        yield tracer
    finally:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans

# Metrics of the set-up request on the step-* workloads; on plan-step the
# planner builds and compiles its problem inside the timed plan() call.
SETUP_METRICS = (
    "scenario.load_s", "transcription.build_s", "transcription.compile_s",
    "transcription.n_vars", "transcription.n_ineq", "transcription.n_eq",
)


def _pass_times(spans):
    """Planner pass k runs from the start of its kinematic sub-problem to
    the start of the next one, or to the end of plan()."""
    starts = [s[4] for s in spans if s[1] == "kinematics.subproblem"]
    ends = [s[5] for s in spans if s[1] == "planner.plan"]
    if not starts or not ends:
        return []
    bounds = starts + [ends[-1]]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def request_metrics(spans, counts):
    """Per-layer metrics of one request from its spans and counts."""
    child = {}
    for s in spans:
        if s[3] is not None:
            child[s[3]] = child.get(s[3], 0.0) + s[5] - s[4]
    tot, slf, n, attrs = {}, {}, {}, {}
    for sid, name, _, _, t0, t1, a in spans:
        tot[name] = tot.get(name, 0.0) + t1 - t0
        slf[name] = slf.get(name, 0.0) + t1 - t0 - child.get(sid, 0.0)
        n[name] = n.get(name, 0) + 1
        attrs.setdefault(name, []).append(a or {})
    plan_ids = {s[0] for s in spans if s[1] == "planner.plan"}
    solves = attrs.get("solver.solve", [])
    iters = sum(a["iters"] for a in solves)
    iter_ms = [ms for a in solves for ms in a["iter_ms"]]
    builds = attrs.get("transcription.build", [])
    size = builds[-1] if builds else {}
    passes = _pass_times(spans)
    return {
        "scenario.load_s": tot.get("scenario.load", 0.0),
        "transcription.build_s": tot.get("transcription.build", 0.0),
        "transcription.compile_s": tot.get("transcription.compile", 0.0),
        "transcription.n_vars": size.get("n_vars", 0),
        "transcription.n_ineq": size.get("n_ineq", 0),
        "transcription.n_eq": size.get("n_eq", 0),
        "transcription.hessian_s": tot.get("transcription.hessian", 0.0),
        "transcription.hessian_calls": n.get("transcription.hessian", 0),
        "transcription.hessian_nnz": max(
            (a["nnz"] for a in attrs.get("transcription.hessian", [])), default=0),
        "transcription.eval_s": tot.get("transcription.eval", 0.0),
        "transcription.eval_calls": n.get("transcription.eval", 0),
        "linalg.factor_s": tot.get("linalg.factor", 0.0),
        "linalg.factor_calls": n.get("linalg.factor", 0),
        "linalg.factor_rejects": counts.get("linalg.factor.rejects", 0),
        "linalg.backsolve_s": tot.get("linalg.backsolve", 0.0),
        "linalg.kkt_nnz": max(
            (a["nnz"] for a in attrs.get("linalg.factor", []) if "nnz" in a), default=0),
        "linalg.blocktridiag_s": (tot.get("linalg.blocktridiag", 0.0)
                                  + tot.get("linalg.blocktridiag_solve", 0.0)),
        "linalg.blocktridiag_calls": n.get("linalg.blocktridiag", 0),
        "solver.iters": iters,
        "solver.iter_ms": statistics.median(iter_ms) if iter_ms else 0.0,
        "solver.self_s": slf.get("solver.solve", 0.0),
        "solver.full_step_share": (
            sum(a["full_steps"] for a in solves) / iters if iters else 0.0),
        "solver.final_kkt": solves[-1]["final_kkt"] if solves else 0.0,
        "kinematics.subproblem_s": tot.get("kinematics.subproblem", 0.0),
        "kinematics.jacobian_s": tot.get("kinematics.jacobian", 0.0),
        "kinematics.jacobian_calls": n.get("kinematics.jacobian", 0),
        "kinematics.momentum_state_calls": counts.get("kinematics.momentum_state", 0),
        "kinematics.fk_calls": counts.get("kinematics.fk", 0),
        "planner.passes": len(passes),
        "planner.pass_s": statistics.median(passes) if passes else 0.0,
        "planner.momentum_s": sum(
            s[5] - s[4] for s in spans
            if s[3] in plan_ids and s[1] in ("transcription.build", "solver.solve")),
        "planner.self_s": slf.get("planner.plan", 0.0),
    }


def layer_metrics(tracer, setup_fed):
    """Median over requests of each per-layer metric. Metrics named in
    ``setup_fed`` come from the set-up requests, the rest from the timed
    operations."""
    by_req = [[] for _ in tracer.requests]
    for s in tracer.spans:
        by_req[s[2]].append(s)
    per = {"setup": [], "op": []}
    for req, kind in enumerate(tracer.requests):
        per[kind].append(request_metrics(by_req[req], tracer.counts[req]))
    out = {}
    for name in per["op"][0]:
        rows = per["setup" if name in setup_fed else "op"]
        out[name] = float(statistics.median(r[name] for r in rows))
    return out
