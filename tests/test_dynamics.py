import numpy as np
import pytest

from kinomo import contact, dynamics
from kinomo.dynamics import MomentumState, RobotConstants
from kinomo.transcription import MomentumScenario, build_sequential, extract

CONSTS = RobotConstants(M=30.0)


def flat_surface():
    return contact.ContactSurface(np.eye(3), np.zeros(3), 0.7, np.array([0.1, 0.05]), 0.3)


def phase(sigma, epsilon, eff="foot"):
    return contact.ContactPhase(eff, sigma, epsilon, flat_surface())


class TestMomentumRate:
    def test_ballistic(self):
        h = MomentumState(np.zeros(3), np.array([3.0, 0, 0]), np.zeros(3))
        rate = dynamics.momentum_rate(h, [], 0, CONSTS)
        assert np.allclose(rate[:3], [0.1, 0, 0])
        assert np.allclose(rate[3:6], CONSTS.M * CONSTS.g)
        assert np.allclose(rate[6:], 0.0)

    def test_static_support_through_com(self):
        r = np.array([0.0, 0.0, 0.9])
        h = MomentumState(r, np.zeros(3), np.zeros(3))
        f = -CONSTS.M * CONSTS.g
        w = contact.ContactWrenchCom(f, np.cross(np.array([0, 0, 0.0]) - r, f) * 0)
        # torque chosen so kappa = 0: force applied along the vertical through CoM
        w = contact.ContactWrenchCom(f, np.zeros(3))
        rate = dynamics.momentum_rate(h, [(phase(0, 10), w)], 3, CONSTS)
        assert np.allclose(rate[3:], 0.0)

    def test_representation_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = rng.normal(size=3)
            h = MomentumState(r, rng.normal(size=3), rng.normal(size=3))
            ph = phase(0, 10)
            f_hat = rng.normal(size=3)
            f_hat[2] = abs(f_hat[2]) + 0.1
            w_cop = contact.ContactWrenchCop(f_hat, rng.normal(size=2) * 0.05, rng.normal() * 0.1)
            w_com = contact.cop_to_com(w_cop, ph.surface, r)
            r1 = dynamics.momentum_rate(h, [(ph, w_cop)], 2, CONSTS)
            r2 = dynamics.momentum_rate(h, [(ph, w_com)], 2, CONSTS)
            assert np.allclose(r1, r2, atol=1e-10 * max(1, np.abs(r1).max()))

    def test_inactive_phase_ignored(self):
        h = MomentumState(np.zeros(3), np.zeros(3), np.zeros(3))
        w = contact.ContactWrenchCom(np.array([100.0, 0, 0]), np.zeros(3))
        rate = dynamics.momentum_rate(h, [(phase(5, 10), w)], 0, CONSTS)
        assert np.allclose(rate[3:6], CONSTS.M * CONSTS.g)


class TestRollout:
    def test_free_fall(self):
        h0 = MomentumState(np.zeros(3), np.zeros(3), np.zeros(3))
        delta = 0.1
        states = dynamics.rollout(h0, [[] for _ in range(10)], delta, 10, CONSTS)
        for t, s in enumerate(states):
            assert np.allclose(s.l, t * delta * CONSTS.M * CONSTS.g)
            assert np.allclose(s.k, 0.0)
        # discrete double integration of gravity
        assert np.allclose(
            CONSTS.M * states[5].r, delta**2 * (5 * 4 / 2) * CONSTS.M * CONSTS.g
        )

    def test_gravity_cancelling_force(self):
        h0 = MomentumState(np.zeros(3), np.array([1.0, 0, 0]), np.zeros(3))
        w = contact.ContactWrenchCom(-CONSTS.M * CONSTS.g, np.zeros(3))
        traj = [[(phase(0, 20), w)] for _ in range(20)]
        states = dynamics.rollout(h0, traj, 0.1, 20, CONSTS)
        for t, s in enumerate(states):
            assert np.allclose(s.l, h0.l)
            assert np.allclose(s.r, t * 0.1 * h0.l / CONSTS.M)

    def test_matches_hand_integration(self):
        rng = np.random.default_rng(1)
        T, delta = 30, 0.05
        ph = phase(0, T)
        forces = rng.normal(size=(T, 3)) * 10
        kappas = rng.normal(size=(T, 3))
        traj = [[(ph, contact.ContactWrenchCom(forces[t], kappas[t]))] for t in range(T)]
        h0 = MomentumState(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        states = dynamics.rollout(h0, traj, delta, T, CONSTS)
        r, l, k = h0.r.copy(), h0.l.copy(), h0.k.copy()
        for t in range(T):
            r = r + delta * l / CONSTS.M
            l = l + delta * (CONSTS.M * CONSTS.g + forces[t])
            k = k + delta * kappas[t]
            assert np.allclose(states[t + 1].r, r, atol=1e-12)
            assert np.allclose(states[t + 1].l, l, atol=1e-12)
            assert np.allclose(states[t + 1].k, k, atol=1e-12)


# The sequential transcription's closed form, read through the maps of a
# built problem, against second differences and the Euler rollout that
# the tests compute themselves from x's (phi, psi) slices.

H0 = MomentumState(np.array([0.1, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.zeros(3))


def built(phases, T, h0=H0, delta=0.1, consts=CONSTS):
    """The sequential problem of a contact schedule, zero references."""
    return build_sequential(
        MomentumScenario(phases, T, delta, h0, consts, np.zeros((T + 1, 9)), {})
    )


def with_integrals(p, phi, psi=None):
    """x holding phi[i] (and psi[i]), one row per step of phase i."""
    x = np.zeros(p.n)
    for i, ph in enumerate(p.scenario.phases):
        for k, t in enumerate(range(ph.sigma, ph.epsilon)):
            b = p.layout.contact_base[(i, t)]
            x[b : b + 3] = phi[i][k]
            if psi is not None:
                x[b + 3 : b + 6] = psi[i][k]
    return x


def second_differences(a):
    """a_t - 2 a_{t-1} + a_{t-2} over a phase's steps, a zero before it."""
    z = np.vstack([np.zeros((2, 3)), a])
    return z[2:] - 2.0 * z[1:-1] + z[:-2]


def sample_wrenches(p, x):
    """{(phase, step): ContactWrenchCom} of the second differences of x's
    (phi, psi) slices."""
    out = {}
    for i, ph in enumerate(p.scenario.phases):
        steps = range(ph.sigma, ph.epsilon)
        b = np.array([p.layout.contact_base[(i, t)] for t in steps])
        f = second_differences(x[b[:, None] + np.arange(3)])
        kappa = second_differences(x[b[:, None] + np.arange(3, 6)])
        out.update(((i, t), contact.ContactWrenchCom(f[k], kappa[k])) for k, t in enumerate(steps))
    return out


def rollout_states(p, x):
    """(T+1, 9) Euler rollout of the second differences of x's slices."""
    scn = p.scenario
    traj = [[] for _ in range(scn.T)]
    for (i, t), w in sample_wrenches(p, x).items():
        traj[t].append((scn.phases[i], w))
    states = dynamics.rollout(scn.h0, traj, scn.delta, scn.T, scn.consts)
    return np.array([s.as_vector() for s in states])


def ballistic(t, delta=0.1):
    """(l_t, M r_t) of the free flight from H0."""
    M, g = CONSTS.M, CONSTS.g
    l = H0.l + delta * t * M * g
    return l, M * H0.r + delta * t * H0.l + delta**2 * (t * (t - 1) / 2) * M * g


class TestForcesFromIntegrals:
    def test_zero_phi(self):
        p = built([phase(0, 5)], 5)
        sol = extract(p, np.zeros(p.n))
        assert np.array_equal(sol["forces"][0], np.zeros((5, 3)))
        assert np.array_equal(sol["kappas"][0], np.zeros((5, 3)))

    def test_triangular_profile_constant_force(self):
        f0 = np.array([1.0, -2.0, 3.0])
        p = built([phase(0, 8)], 8)
        phi = np.array([f0 * (t + 1) * (t + 2) / 2.0 for t in range(8)])
        sol = extract(p, with_integrals(p, {0: phi}, {0: phi}))
        assert np.allclose(sol["forces"][0], f0, rtol=0, atol=1e-12)
        assert np.allclose(sol["kappas"][0], f0, rtol=0, atol=1e-12)

    def test_unit_second_difference(self):
        # a single nonzero phi at the phase's first step: phi and psi read
        # zero at the two steps before sigma = 2
        f0 = np.array([2.0, 0, 1.0])
        p = built([phase(2, 8)], 8)
        phi = np.zeros((6, 3))
        phi[0] = f0
        sol = extract(p, with_integrals(p, {0: phi}, {0: -phi}))
        expected = np.zeros((8, 3))
        expected[2:5] = [f0, -2 * f0, f0]
        assert np.array_equal(sol["forces"][0], expected)
        assert np.array_equal(sol["kappas"][0], -expected)


def random_instance(seed, T=None):
    """A random schedule, initial state and step size, and x with random
    (phi, psi) on every phase's steps."""
    rng = np.random.default_rng(seed)
    T = T if T is not None else int(rng.integers(6, 51))
    n_phases = int(rng.integers(1, 4))
    phases = []
    for i in range(n_phases):
        sigma = int(rng.integers(0, max(1, T - 3)))
        epsilon = int(rng.integers(sigma + 2, T + 1))
        phases.append(phase(sigma, epsilon, eff=f"e{i}"))
    h0 = MomentumState(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
    delta = float(rng.uniform(0.02, 0.2))
    p = built(phases, T, h0, delta)
    x = with_integrals(
        p,
        {i: rng.normal(size=(ph.epsilon - ph.sigma, 3)) * 5 for i, ph in enumerate(phases)},
        {i: rng.normal(size=(ph.epsilon - ph.sigma, 3)) for i, ph in enumerate(phases)},
    )
    return p, x


class TestSequentialStateMap:
    def test_ballistic_closed_form(self):
        p = built([phase(3, 8)], 10)
        # zero integrals: free flight throughout
        h = extract(p, np.zeros(p.n))["h"]
        for t in range(11):
            l, Mr = ballistic(t)
            assert np.allclose(h[t, 3:6], l, rtol=0, atol=1e-12)
            assert np.allclose(CONSTS.M * h[t, :3], Mr, rtol=0, atol=1e-12)
            assert np.array_equal(h[t, 6:], np.zeros(3))
        # the phase reads zero before sigma = 3: states up to h_3 stay free
        rng = np.random.default_rng(4)
        x = with_integrals(p, {0: rng.normal(size=(5, 3))}, {0: rng.normal(size=(5, 3))})
        h = extract(p, x)["h"]
        for t in range(4):
            l, Mr = ballistic(t)
            assert np.allclose(h[t, 3:6], l, rtol=0, atol=1e-12)
            assert np.allclose(CONSTS.M * h[t, :3], Mr, rtol=0, atol=1e-12)
            assert np.array_equal(h[t, 6:], np.zeros(3))

    def test_triangular_linear_momentum_term(self):
        f0 = np.array([1.0, 2.0, -1.0])
        p = built([phase(0, 5)], 5)
        phi = np.array([f0 * (t + 1) * (t + 2) / 2.0 for t in range(5)])
        h = extract(p, with_integrals(p, {0: phi}))["h"]
        # at t = 3 the contact adds phi_2 - phi_1 = 3 f0, three constant forces
        l, _ = ballistic(3)
        assert np.allclose(h[3, 3:6] - l, 0.1 * 3 * f0, rtol=0, atol=1e-12)

    def test_oracle_equivalence(self):
        for seed in range(100):
            p, x = random_instance(seed)
            h = extract(p, x)["h"]
            ref = rollout_states(p, x)
            err = np.abs(h - ref).max(axis=1)
            assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(ref).max(axis=1))), seed

    def test_frozen_contribution_past_phase_end(self):
        rng = np.random.default_rng(5)
        h0 = MomentumState(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        p = built([phase(0, 10)], 30, h0, 0.07)
        x = with_integrals(p, {0: rng.normal(size=(10, 3))}, {0: rng.normal(size=(10, 3))})
        h = extract(p, x)["h"]
        ref = rollout_states(p, x)
        assert np.allclose(h[11:], ref[11:], rtol=1e-9, atol=1e-9)

    def test_locality(self):
        """h_t reads (phi, psi) of steps t-1 and t-2 only, and of the last
        two steps of each phase that ended before t."""
        p = built([phase(0, 12, "a"), phase(4, 20, "b")], 24)
        owner = {}
        for (i, t), b in p.layout.contact_base.items():
            owner.update((b + k, (i, t)) for k in range(6))
        A = p.h.A.tocsr()
        for t in range(25):
            read = {owner[j] for j in A[9 * t : 9 * t + 9].indices}
            allowed = set()
            for i, ph in enumerate(p.scenario.phases):
                m = min(t, ph.epsilon)
                allowed |= {(i, s) for s in (m - 1, m - 2) if s >= ph.sigma}
            assert read == allowed, t

    def test_conservation_without_contacts(self):
        # no contact is active from step 5 on
        rng = np.random.default_rng(6)
        p = built([phase(0, 5)], 20)
        x = with_integrals(p, {0: rng.normal(size=(5, 3))}, {0: rng.normal(size=(5, 3))})
        h = extract(p, x)["h"]
        for t in range(5, 21):
            assert np.array_equal(h[t, 6:], h[5, 6:])
            g_impulse = 0.1 * (t - 5) * CONSTS.M * CONSTS.g
            assert np.allclose(h[t, 3:6], h[5, 3:6] + g_impulse, rtol=0, atol=1e-12)
