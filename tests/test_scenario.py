import dataclasses
import warnings

import numpy as np
import pytest

from kinomo.scenario import (
    ParseError,
    SchemaViolation,
    load_scenario,
    make_standing_scenario,
    make_stepping_scenario,
    matrix_to_quaternion,
    quaternion_to_matrix,
    rescale_horizon,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    stepping_schedule,
)

REPO_STAND = "scenarios/stand.json"
REPO_STEP = "scenarios/step_stones.json"
# rotation axes whose components differ in sign, and two that do not
AXES = [(1, -1, 0), (1, -2, 3), (-2, 1, 1), (0, 1, -1), (1, 1, 0), (1, 0, 0)]


def rodrigues(axis, angle):
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def half_turn(axis):
    """The exact 180-degree rotation 2 a a^T - I about the unit axis a."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2 * np.outer(a, a) - np.eye(3)


class TestQuaternion:
    def test_identity(self):
        assert np.allclose(quaternion_to_matrix([1, 0, 0, 0]), np.eye(3))

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            R = quaternion_to_matrix(q)
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0)
            R2 = quaternion_to_matrix(matrix_to_quaternion(R))
            assert np.allclose(R, R2, atol=1e-9)

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("build", [
        half_turn,
        lambda a: rodrigues(a, np.pi),  # 1 + tr R lands at rounding noise
        lambda a: rodrigues(a, np.pi - 2e-7),  # w = 1e-7
        lambda a: rodrigues(a, np.pi - 1e-4),
        lambda a: rodrigues(a, 1.0),
    ], ids=["exact-pi", "rodrigues-pi", "w1e-7", "w5e-5", "one-rad"])
    def test_round_trip_near_half_turn(self, build, axis):
        R = build(axis)
        q = matrix_to_quaternion(R)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no renormalization on load
            back = quaternion_to_matrix(q)
        assert np.abs(back - R).max() <= 1e-12

    def test_identity_is_exact(self):
        assert matrix_to_quaternion(np.eye(3)) == [1.0, 0.0, 0.0, 0.0]

    def test_normalization_warning(self):
        with pytest.warns(UserWarning):
            R = quaternion_to_matrix([1.001, 0, 0, 0])
        assert np.allclose(R, np.eye(3))

    def test_zero_norm_rejected(self):
        with pytest.raises(SchemaViolation):
            quaternion_to_matrix([0, 0, 0, 0])

    def test_wrong_length_rejected(self):
        # a scenario's rotation fails _vector's length check before this one
        with pytest.raises(SchemaViolation) as exc:
            quaternion_to_matrix([1.0, 0.0, 0.0], "$.phases[0].surface.rotation")
        assert exc.value.path == "$.phases[0].surface.rotation"


class TestShippedFiles:
    def test_stand_valid(self):
        scn = load_scenario(REPO_STAND)
        assert scn.T == 20 and len(scn.phases) == 2
        assert scn.model.total_mass == pytest.approx(30.0)

    def test_step_stones_valid(self):
        scn = load_scenario(REPO_STEP)
        assert scn.T == 100 and scn.delta == 0.1
        # a contact is broken every 7 steps (0.7 s)
        boundaries = sorted({ph.sigma for ph in scn.phases if ph.sigma > 0})
        assert all(b % 7 == 0 for b in boundaries)
        for t in range(scn.T):
            assert any(ph.active(t) for ph in scn.phases)

    def test_round_trip(self, tmp_path):
        scn = make_stepping_scenario(T=30)
        path = tmp_path / "s.json"
        save_scenario(scn, path)
        back = load_scenario(path)
        assert back.T == scn.T and back.name == scn.name
        assert np.allclose(back.q0, scn.q0)
        for a, b in zip(back.phases, scn.phases):
            assert (a.effector_id, a.sigma, a.epsilon) == (b.effector_id, b.sigma, b.epsilon)
            assert np.allclose(a.surface.t, b.surface.t)
            assert np.allclose(a.surface.R, b.surface.R, atol=1e-12)

    def test_half_turn_surface_round_trip(self, tmp_path):
        # every surface turned 180 degrees about an axis of mixed signs
        scn = make_standing_scenario(T=4)
        turned = [half_turn((1, -2, 3)), rodrigues((1, -1, 0), np.pi)]
        scn.phases = tuple(
            dataclasses.replace(ph, surface=dataclasses.replace(ph.surface, R=R))
            for ph, R in zip(scn.phases, turned))
        path = tmp_path / "turned.json"
        save_scenario(scn, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_scenario(path)
        for a, b in zip(back.phases, scn.phases):
            assert np.abs(a.surface.R - b.surface.R).max() <= 1e-12

    @pytest.mark.parametrize("path, make", [
        (REPO_STAND, make_standing_scenario), (REPO_STEP, make_stepping_scenario),
    ], ids=["stand", "step_stones"])
    def test_shipped_files_are_the_presets(self, path, make, tmp_path):
        # the preset writes the shipped file byte for byte, and so does
        # re-saving the loaded file
        with open(path, "rb") as f:
            shipped = f.read()
        for i, scn in enumerate((make(), load_scenario(path))):
            out = tmp_path / f"{i}.json"
            save_scenario(scn, out)
            assert out.read_bytes() == shipped


def _setting(*keys, value):
    """An edit of a scenario dict that sets the entry at ``keys``."""
    def edit(d):
        node = d
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        return d
    return edit


def _massless(d):
    for link in d["robot"]["links"]:
        link["mass"] = 0.0
    return d


class TestValidation:
    def base(self):
        return scenario_to_dict(make_standing_scenario(T=10))

    def check_path(self, data, path_fragment):
        with pytest.raises(SchemaViolation) as exc:
            scenario_from_dict(data)
        assert path_fragment in exc.value.path

    def test_epsilon_beyond_horizon(self):
        d = self.base()
        d["phases"][0]["epsilon"] = 99
        self.check_path(d, "phases[0].epsilon")

    def test_negative_mass(self):
        d = self.base()
        d["robot"]["links"][5]["mass"] = -1.0
        self.check_path(d, "$.robot.links[5].mass")

    def test_missing_robot(self):
        d = self.base()
        del d["robot"]
        self.check_path(d, "robot")

    def test_unknown_effector(self):
        d = self.base()
        d["phases"][0]["effector"] = "tail"
        self.check_path(d, "phases[0].effector")

    def test_uncovered_step(self):
        d = self.base()
        for ph in d["phases"]:
            ph["epsilon"] = 5
        self.check_path(d, "phases")

    def test_bad_solver_options(self):
        d = self.base()
        d["solver"]["backend"] = "magic"
        self.check_path(d, "solver")
        d = self.base()
        d["solver"]["mu0"] = 1.0
        self.check_path(d, "solver")

    @pytest.mark.parametrize("field, value", [("force", -1.0), ("momentum", [1.0] * 8 + [-1.0])])
    def test_negative_weight(self, field, value):
        d = self.base()
        d["weights"][field] = value
        self.check_path(d, "$.weights")

    @pytest.mark.parametrize("keys, value, path", [
        (("robot", "links", 0, "com"), [0, 0], "$.robot.links[0].com"),
        (("robot", "links", 0, "axis"), ["a", 0, 0], "$.robot.links[0].axis"),
        (("robot", "links", 0, "inertia"), "big", "$.robot.links[0].inertia"),
        (("robot", "links", 0, "inertia"), [[1, 0, 0], [0, 1, 0], [0, 0, "1"]],
         "$.robot.links[0].inertia"),
        (("robot", "links", 1, "mass"), "heavy", "$.robot.links[1].mass"),
        (("robot", "links", 1, "parent"), [1], "$.robot.links[1].parent"),
        (("robot", "lower", 0), "x", "$.robot.lower[0]"),
        (("robot", "effectors", "l_foot"), 3, "$.robot.effectors.l_foot"),
        (("phases", 0), 3, "$.phases[0]"),
        (("phases", 0, "sigma"), False, "$.phases[0].sigma"),
        (("phases", 0, "surface", "rotation"), ["a", 0, 0, 0], "$.phases[0].surface.rotation"),
        (("T",), True, "$.T"),
        (("weights", "force"), True, "$.weights.force"),
        (("solver", "kkt_tol"), True, "$.solver"),
        (("name",), 5, "$.name"),
    ])
    def test_malformed_value(self, keys, value, path):
        d = self.base()
        node = d
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        with pytest.raises(SchemaViolation) as exc:
            scenario_from_dict(d)
        assert exc.value.path == path

    @pytest.mark.parametrize("edit, path", [
        (_setting("robot", "links", 0, "kind", value="ball"), "$.robot.links[0].kind"),
        (_setting("robot", "effectors", "l_foot", "link", value="tail"),
         "$.robot.effectors.l_foot.link"),
        (_setting("robot", "links", value=[]), "$.robot.links"),
        (_setting("robot", "lower", value=[0.0]), "$.robot.lower"),
        (_setting("phases", 0, "surface", "mu", value=0.0), "$.phases[0].surface.mu"),
        (_setting("phases", 0, "surface", "p_max", value=[0.1, 0.0]),
         "$.phases[0].surface.p_max"),
        (_setting("phases", 0, "surface", "tau_max", value=-0.3), "$.phases[0].surface.tau_max"),
        (_setting("T", value=0), "$.T"),
        (_setting("delta", value=0.0), "$.delta"),
        (_massless, "$.robot.links"),
        (_setting("phases", 0, "sigma", value=12), "$.phases[0].sigma"),  # epsilon is 10
        (lambda d: [d], "$"),
        (_setting("phases", value=[]), "$.phases"),
    ], ids=["joint-kind", "effector-link", "no-links", "limits-length", "mu", "p_max",
            "tau_max", "T", "delta", "total-mass", "inverted-phase", "top-level", "no-phases"])
    def test_each_check_reports_its_path(self, edit, path):
        with pytest.raises(SchemaViolation) as exc:
            scenario_from_dict(edit(self.base()))
        assert exc.value.path == path

    def test_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(p)
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "missing.json")

    def test_duplicate_link_name(self):
        d = self.base()
        d["robot"]["links"][1]["name"] = d["robot"]["links"][0]["name"]
        self.check_path(d, "links[1].name")


class TestPresets:
    def test_schedule_alternates(self):
        left, right = stepping_schedule(100, 7)
        # right foot swings first; each swing lasts one switch interval
        assert right[0][:2] == [0, 7] and right[1][0] == 14
        assert left[0][:2] == [0, 21]
        for (s, e, x) in left + right:
            assert s < e

    def test_stepping_strides(self):
        scn = make_stepping_scenario(T=100)
        lx = [ph.surface.t[0] for ph in scn.phases if ph.effector_id == "l_foot"]
        rx = [ph.surface.t[0] for ph in scn.phases if ph.effector_id == "r_foot"]
        assert lx == sorted(lx) and rx == sorted(rx)
        assert max(lx + rx) > 0.2  # the feet actually advance

    def test_rescale_horizon(self):
        scn = make_stepping_scenario(T=100)
        big = rescale_horizon(scn, 200)
        assert big.T == 200
        assert len(big.phases) == len(scn.phases)
        for a, b in zip(big.phases, scn.phases):
            assert a.sigma == 2 * b.sigma
            assert a.epsilon == (200 if b.epsilon == 100 else 2 * b.epsilon)
        for t in range(big.T):
            assert any(ph.active(t) for ph in big.phases)

    def test_initial_momentum(self):
        scn = make_standing_scenario(T=5)
        h0 = scn.initial_momentum()
        assert np.allclose(h0.l, 0) and np.allclose(h0.k, 0)
        assert 0.3 < h0.r[2] < 0.7
