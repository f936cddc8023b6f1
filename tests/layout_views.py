"""Views of a built problem's DecisionLayout that only the tests read,
rebuilt from its table of contact samples: the first index of each
sample by (phase, step), the first index of each state, the phases active
at each step, the step block of each variable, and the (step, phase,
family) of each constraint row."""

import numpy as np


def samples(p):
    """The active contact samples (phase, step) of p, in layout order."""
    return list(zip(p.layout.phase.tolist(), p.layout.step.tolist()))


def contact_bases(p):
    """{(phase, step): first of the sample's six indices}, in layout order."""
    return dict(zip(samples(p), p.layout.contact_base.tolist()))


def state_bases(p):
    """{t: first of the nine indices of h_t} for t = 1..T; empty in the
    sequential form, which has no state variables."""
    return {t + 1: b for t, b in enumerate(p.layout.state_base.tolist())}


def active_phases(p):
    """Per step, the tuple of the phases active at it."""
    act = [[] for _ in range(p.scenario.T)]
    for i, t in samples(p):
        act[t].append(i)
    return [tuple(a) for a in act]


def var_blocks(p):
    """The step block of each variable: a sample's six indices belong to
    its step, h_t's nine to step t, and the arrow to block -1."""
    lay = p.layout
    block = np.empty(p.n, dtype=np.intp)
    block[lay.contact_base[:, None] + np.arange(6)] = lay.step[:, None]
    block[lay.state_base[:, None] + np.arange(9)] = np.arange(1, lay.state_base.size + 1)[:, None]
    block[lay.arrow_indices] = -1
    return block


def row_meta(p):
    """(ineq, eq): the (step, phase, family) of each inequality and each
    equality row. The sequential form has four friction rows per sample,
    then four CoP rows per sample; the simultaneous form ten contact rows
    per sample and nine dynamics rows per step."""
    s = samples(p)
    if p.layout.kind == "sequential":
        return [(t, i, fam) for fam in ("friction", "cop") for i, t in s for _ in range(4)], []
    return (
        [(t, i, "contact") for i, t in s for _ in range(10)],
        [(t, None, "dynamics") for t in range(p.scenario.T) for _ in range(9)],
    )
