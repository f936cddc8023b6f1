"""Scenario files: a single JSON document bundling the robot model, the
contact schedule, the horizon and the solver configuration.

Surface rotations are stored as unit quaternions (w, x, y, z) and
normalized on load; a deviation above 1e-6 triggers a warning. Schema
errors carry the JSON field path for machine-readable reports.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .contact import ContactPhase, ContactSurface
from .dynamics import MomentumState, RobotConstants
from .kinematics import (
    KinematicModel,
    Link,
    biped_standing_configuration,
    default_biped,
    forward_kinematics,
)
from .solver import SolverOptions
from .transcription import MomentumScenario, TrackingWeights


class ParseError(RuntimeError):
    pass


class SchemaViolation(RuntimeError):
    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def quaternion_to_matrix(q, path="rotation"):
    """Rotation matrix from a (w, x, y, z) quaternion, normalized on load."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise SchemaViolation(path, "quaternion must have 4 components (w, x, y, z)")
    n = float(np.linalg.norm(q))
    if n < 1e-12:
        raise SchemaViolation(path, "quaternion has zero norm")
    if abs(n - 1.0) > 1e-6:
        warnings.warn(f"{path}: quaternion norm deviates by {abs(n - 1.0):.2e}; renormalizing")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quaternion(R):
    """Inverse of quaternion_to_matrix (w >= 0 convention)."""
    R = np.asarray(R, dtype=float)
    w = 0.5 * np.sqrt(max(0.0, 1.0 + R[0, 0] + R[1, 1] + R[2, 2]))
    if w > 1e-8:
        x = (R[2, 1] - R[1, 2]) / (4 * w)
        y = (R[0, 2] - R[2, 0]) / (4 * w)
        z = (R[1, 0] - R[0, 1]) / (4 * w)
    else:  # 180-degree rotation: recover the axis from the diagonal
        x = np.sqrt(max(0.0, (1 + R[0, 0] - R[1, 1] - R[2, 2]) / 4))
        y = np.sqrt(max(0.0, (1 - R[0, 0] + R[1, 1] - R[2, 2]) / 4))
        z = np.sqrt(max(0.0, (1 - R[0, 0] - R[1, 1] + R[2, 2]) / 4))
    return [w, x, y, z]


@dataclass
class Scenario:
    """Validated scenario: robot, schedule, horizon and solve options."""

    name: str
    model: KinematicModel
    q0: np.ndarray
    phases: tuple  # ContactPhase instances
    T: int
    delta: float
    gravity: np.ndarray
    weights: TrackingWeights = field(default_factory=TrackingWeights)
    solver: SolverOptions = field(default_factory=SolverOptions)

    @property
    def consts(self):
        return RobotConstants(M=self.model.total_mass, g=self.gravity)

    def initial_momentum(self):
        """Momentum state of the initial configuration at rest."""
        _, _, _, x_com = forward_kinematics(self.model, self.q0)
        return MomentumState(x_com, np.zeros(3), np.zeros(3))

    def momentum_scenario(self, h_ref, force_ref):
        return MomentumScenario(
            self.phases, self.T, self.delta, self.initial_momentum(),
            self.consts, h_ref, force_ref, self.weights,
        )


# ---------------------------------------------------------------------------
# JSON loading with field-path diagnostics


def _check_finite(v, path="$"):
    """Reject the NaN and infinities that JSON parsers accept, wherever a
    number stands in the document, at that number's path."""
    if isinstance(v, dict):
        for key, u in v.items():
            _check_finite(u, f"{path}.{key}")
    elif isinstance(v, list):
        for j, u in enumerate(v):
            _check_finite(u, f"{path}[{j}]")
    elif isinstance(v, float) and not math.isfinite(v):
        raise SchemaViolation(path, "must be a finite number")


def _get(d, key, path, kind=None):
    if key not in d:
        raise SchemaViolation(f"{path}.{key}", "missing field")
    v = d[key]
    if kind is not None and not isinstance(v, kind):
        raise SchemaViolation(f"{path}.{key}", f"expected {kind.__name__}")
    return v


def _vector(d, key, path, size):
    v = np.asarray(_get(d, key, path, list), dtype=float)
    if v.shape != (size,):
        raise SchemaViolation(f"{path}.{key}", f"expected {size} numbers")
    return v


def _load_link(d, path, name_to_index):
    name = _get(d, "name", path, str)
    parent = d.get("parent")
    if parent is None:
        pidx = -1
    elif parent not in name_to_index:
        raise SchemaViolation(f"{path}.parent", f"unknown link {parent!r}")
    else:
        pidx = name_to_index[parent]
    kind = _get(d, "kind", path, str)
    if kind not in ("revolute", "prismatic"):
        raise SchemaViolation(f"{path}.kind", f"unknown joint kind {kind!r}")
    mass = float(_get(d, "mass", path, (int, float)))
    if mass < 0:
        raise SchemaViolation(f"{path}.mass", "must be >= 0")
    inertia = np.asarray(d.get("inertia", np.zeros(3)), dtype=float)
    if inertia.shape == (3,):
        inertia = np.diag(inertia)
    if inertia.shape != (3, 3):
        raise SchemaViolation(f"{path}.inertia", "expected 3 or 3x3 numbers")
    return Link(
        name, pidx, kind,
        _vector(d, "axis", path, 3),
        _vector(d, "offset", path, 3),
        mass,
        np.asarray(d.get("com", np.zeros(3)), dtype=float),
        inertia,
    )


def _load_model(d, path="$.robot"):
    raw_links = _get(d, "links", path, list)
    if not raw_links:
        raise SchemaViolation(f"{path}.links", "at least one link required")
    links = []
    name_to_index = {}
    for j, ld in enumerate(raw_links):
        ln = _load_link(ld, f"{path}.links[{j}]", name_to_index)
        if ln.name in name_to_index:
            raise SchemaViolation(f"{path}.links[{j}].name", f"duplicate {ln.name!r}")
        name_to_index[ln.name] = j
        links.append(ln)
    effectors = {}
    for name, ed in _get(d, "effectors", path, dict).items():
        epath = f"{path}.effectors.{name}"
        link_name = _get(ed, "link", epath, str)
        if link_name not in name_to_index:
            raise SchemaViolation(f"{epath}.link", f"unknown link {link_name!r}")
        effectors[name] = (name_to_index[link_name], _vector(ed, "offset", epath, 3))
    n = len(links)

    def limits(key):
        if key not in d:
            return np.full(n, np.nan)
        vals = _get(d, key, path, list)
        if len(vals) != n:
            raise SchemaViolation(f"{path}.{key}", f"expected {n} entries")
        return np.array([np.nan if v is None else float(v) for v in vals])

    return KinematicModel(tuple(links), effectors, limits("lower"), limits("upper"))


def _load_surface(d, path):
    R = quaternion_to_matrix(_get(d, "rotation", path, list), f"{path}.rotation")
    mu = float(_get(d, "mu", path, (int, float)))
    if mu <= 0:
        raise SchemaViolation(f"{path}.mu", "must be > 0")
    p_max = _vector(d, "p_max", path, 2)
    if np.any(p_max <= 0):
        raise SchemaViolation(f"{path}.p_max", "must be > 0")
    tau_max = float(_get(d, "tau_max", path, (int, float)))
    if tau_max <= 0:
        raise SchemaViolation(f"{path}.tau_max", "must be > 0")
    return ContactSurface(R, _vector(d, "origin", path, 3), mu, p_max, tau_max)


def _load_phase(d, path, T, model):
    effector = _get(d, "effector", path, str)
    if effector not in model.effectors:
        raise SchemaViolation(f"{path}.effector", f"unknown effector {effector!r}")
    sigma = int(_get(d, "sigma", path, int))
    epsilon = int(_get(d, "epsilon", path, int))
    if not 0 <= sigma < epsilon:
        raise SchemaViolation(f"{path}.sigma", "need 0 <= sigma < epsilon")
    if epsilon > T:
        raise SchemaViolation(f"{path}.epsilon", f"must be <= T = {T}")
    c_hat = np.zeros(2)
    if "c_hat" in d:
        c_hat = _vector(d, "c_hat", path, 2)
    return ContactPhase(
        effector, sigma, epsilon, _load_surface(_get(d, "surface", path, dict), f"{path}.surface"), c_hat
    )


def scenario_from_dict(data, name="scenario"):
    if not isinstance(data, dict):
        raise SchemaViolation("$", "top level must be an object")
    _check_finite(data)
    T = _get(data, "T", "$", int)
    if T < 1:
        raise SchemaViolation("$.T", "must be >= 1")
    delta = float(_get(data, "delta", "$", (int, float)))
    if delta <= 0:
        raise SchemaViolation("$.delta", "must be > 0")
    model = _load_model(_get(data, "robot", "$", dict))
    if model.total_mass <= 0:
        raise SchemaViolation("$.robot.links", "total mass must be > 0")
    q0 = _vector(data, "q0", "$", model.dof) if "q0" in data else np.zeros(model.dof)
    phases = tuple(
        _load_phase(pd, f"$.phases[{i}]", T, model)
        for i, pd in enumerate(_get(data, "phases", "$", list))
    )
    if not phases:
        raise SchemaViolation("$.phases", "at least one contact phase required")
    for t in range(T):
        if not any(ph.active(t) for ph in phases):
            raise SchemaViolation("$.phases", f"no active contact at step {t}")
    gravity = _vector(data, "gravity", "$", 3) if "gravity" in data else np.array([0.0, 0.0, -9.81])

    wd = _get(data, "weights", "$", dict) if "weights" in data else {}
    given = {"momentum": _vector(wd, "momentum", "$.weights", 9)} if "momentum" in wd else {}
    if "force" in wd:
        given["force"] = wd["force"]
    try:
        weights = TrackingWeights(**given)
    except (TypeError, ValueError) as e:
        raise SchemaViolation("$.weights", str(e))
    try:
        solver = SolverOptions(**data.get("solver", {}))
    except (TypeError, ValueError) as e:
        raise SchemaViolation("$.solver", str(e))
    return Scenario(
        data.get("name", name), model, q0, phases, T, delta, gravity, weights, solver
    )


def load_scenario(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ParseError(f"{path}: {e}")
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})")
    return scenario_from_dict(data, name=str(path))


# ---------------------------------------------------------------------------
# serialization (used to generate the shipped scenario files)


def model_to_dict(model):
    links = []
    for ln in model.links:
        links.append(
            {
                "name": ln.name,
                "parent": None if ln.parent < 0 else model.links[ln.parent].name,
                "kind": ln.kind,
                "axis": list(ln.axis),
                "offset": list(ln.offset),
                "mass": ln.mass,
                "com": list(ln.com),
                "inertia": [list(row) for row in ln.inertia],
            }
        )
    out = {
        "links": links,
        "effectors": {
            name: {"link": model.links[idx].name, "offset": list(off)}
            for name, (idx, off) in model.effectors.items()
        },
    }
    if model.lower is not None:
        out["lower"] = [None if np.isnan(v) else v for v in model.lower]
        out["upper"] = [None if np.isnan(v) else v for v in model.upper]
    return out


def scenario_to_dict(scn):
    return {
        "name": scn.name,
        "T": scn.T,
        "delta": scn.delta,
        "gravity": list(scn.gravity),
        "q0": list(scn.q0),
        "robot": model_to_dict(scn.model),
        "phases": [
            {
                "effector": ph.effector_id,
                "sigma": ph.sigma,
                "epsilon": ph.epsilon,
                "c_hat": list(ph.c_hat),
                "surface": {
                    "rotation": matrix_to_quaternion(ph.surface.R),
                    "origin": list(ph.surface.t),
                    "mu": ph.surface.mu,
                    "p_max": list(ph.surface.p_max),
                    "tau_max": ph.surface.tau_max,
                },
            }
            for ph in scn.phases
        ],
        "weights": {"momentum": list(scn.weights.momentum), "force": scn.weights.force},
        "solver": {
            "max_iter": scn.solver.max_iter,
            "kkt_tol": scn.solver.kkt_tol,
            "backend": scn.solver.backend,
        },
    }


def save_scenario(scn, path):
    with open(path, "w") as f:
        json.dump(scenario_to_dict(scn), f, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# built-in presets


def _flat_surface(x, y, mu=0.7, p_max=(0.1, 0.05), tau_max=0.3):
    return ContactSurface(np.eye(3), np.array([x, y, 0.0]), mu, np.asarray(p_max), tau_max)


def _centered_standing_q0(model):
    """Standing configuration with the CoM centered over the support.

    The bent knees pull the CoM slightly behind the feet; swinging both
    arms forward compensates without moving the planted feet. The shoulder
    angle solves x_com(theta) = 0 by a few secant steps."""
    q0 = biped_standing_configuration(model)
    names = [ln.name for ln in model.links]
    arms = [names.index(f"{s}_shoulder") for s in ("l", "r")]

    def com_x(theta):
        q = q0.copy()
        q[arms] = theta
        return forward_kinematics(model, q)[3][0]

    a, b = 0.0, 0.5
    fa, fb = com_x(a), com_x(b)
    for _ in range(40):
        c = a - fa * (b - a) / (fb - fa)
        fc = com_x(c)
        a, fa, b, fb = b, fb, c, fc
        if abs(fc) < 1e-12:
            break
    q0[arms] = b
    return q0


def make_standing_scenario(T=20, delta=0.1, **solver_kw):
    """Double support at the standing configuration for the whole horizon."""
    model = default_biped()
    q0 = _centered_standing_q0(model)
    phases = (
        ContactPhase("l_foot", 0, T, _flat_surface(0.0, 0.09)),
        ContactPhase("r_foot", 0, T, _flat_surface(0.0, -0.09)),
    )
    return Scenario(
        "stand", model, q0, phases, T, delta, np.array([0.0, 0.0, -9.81]),
        solver=SolverOptions(**solver_kw),
    )


def stepping_schedule(T, switch, stride=0.1):
    """Alternating-gait phase boundaries: double support for ``switch``
    steps, then one foot swings forward by ``stride`` for ``switch`` steps,
    and so on, starting with the right foot."""
    t = 0
    k = 0
    lx = rx = 0.0
    left = [[0, None, 0.0]]
    right = [[0, None, 0.0]]
    while t + switch < T:
        t += switch
        if k % 2 == 0:
            right[-1][1] = t
            rx += stride
            right.append([min(t + switch, T), None, rx])
        else:
            left[-1][1] = t
            lx += stride
            left.append([min(t + switch, T), None, lx])
        t += switch
        k += 1
    left[-1][1] = T
    right[-1][1] = T
    return left, right


def make_stepping_scenario(T=100, delta=0.1, switch=7, **solver_kw):
    """Desk-scale stepping: a contact is broken every ``switch`` steps
    (0.7 s at the default rate) while the feet advance over flat stones."""
    model = default_biped()
    q0 = _centered_standing_q0(model)
    left, right, phases = *stepping_schedule(T, switch), []
    for (s, e, x) in left:
        if s < e:
            phases.append(ContactPhase("l_foot", s, e, _flat_surface(x, 0.09)))
    for (s, e, x) in right:
        if s < e:
            phases.append(ContactPhase("r_foot", s, e, _flat_surface(x, -0.09)))
    solver_kw.setdefault("max_iter", 800)
    return Scenario(
        "step_stones", model, q0, tuple(phases), T, delta,
        np.array([0.0, 0.0, -9.81]), solver=SolverOptions(**solver_kw),
    )


def rescale_horizon(scn, T):
    """Scenario with horizon T; phase boundaries scale proportionally."""
    ratio = T / scn.T
    phases = []
    for ph in scn.phases:
        sigma = int(round(ph.sigma * ratio))
        epsilon = T if ph.epsilon == scn.T else int(round(ph.epsilon * ratio))
        if sigma < epsilon:
            phases.append(ContactPhase(ph.effector_id, sigma, epsilon, ph.surface, ph.c_hat))
    return Scenario(
        scn.name, scn.model, scn.q0, tuple(phases), T, scn.delta,
        scn.gravity, scn.weights, scn.solver,
    )
