"""Seeded, literal inputs for the three workloads, and the exact spectra the
benchmark checks results against.

Nothing here imports dkradial: the expected levels come from the p^2
formulas of the paper (README table), so a defect in ``closedform`` cannot
hide itself by also moving the reference.
"""

from __future__ import annotations

import math
import random

# (m, j, lo, hi, step) shooting windows, fixed literals: the acceptance
# criterion-2 windows for (m, j) in {0, 1} x {1, 2, 3}, each holding exactly
# the 15 lowest bound levels at the criterion-2 step, and the criterion-1
# windows for j = 0 (6 levels each, step 0.05).
ORACLE_ROWS = (
    (0.0, 1, 0.15, 8.972179222463181, 0.02),
    (0.0, 2, 0.15, 9.974968671630002, 0.01857603000028026),
    (0.0, 3, 0.15, 10.977249200050075, 0.016708542977933522),
    (1.0, 1, 0.15, 9.027735042633894, 0.02),
    (1.0, 2, 0.15, 10.024968827881711, 0.018461712712472433),
    (1.0, 3, 0.15, 11.022703842524301, 0.016625207040296647),
    (0.0, 0, 0.2, 7.23118247591637, 0.05),
    (1.0, 0, 0.2, 7.3, 0.05),
    (2.0, 0, 0.2, 7.502666192761077, 0.05),
)
# One-level windows (p^2 = 3 for both) for the probe and the self-test.
ORACLE_ROWS_TINY = (
    (0.0, 1, 0.15, 1.9, 0.02),
    (0.0, 0, 0.2, 2.0, 0.05),
)

FAMILIES = ("f1", "f2", "f3", "f4")
VERIFY_J = (1, 2, 3)
VERIFY_N = (0, 1, 2, 3)
VERIFY_CROSS_MASS = 1.0
FACTORIZATION_PAIRS = 10
# Criterion-5 inputs of the general (non-terminating) basis.
WRONSKIAN_J = (1, 2)
WRONSKIAN_P = 2.3
WRONSKIAN_X0 = (0.3, 0.6)

# The six README commands; the name is the metric suffix (cli.<name>_s).
CLI_COMMANDS = (
    ("spectrum", ["spectrum", "--family", "f1", "--j", "1", "--n-max", "2", "--mass", "0"]),
    ("spectrum_dirac", ["spectrum", "--family", "dirac", "--J", "1/2", "--n-max", "1", "--mass", "0"]),
    ("wavefunction", ["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--mass", "0",
                      "--grid", "2001", "--out", "{out}"]),
    ("verify", ["verify", "--suite", "all", "--j", "1", "--n", "0", "--mass", "0"]),
    ("oracle", ["oracle", "--j", "1", "--mass", "0", "--eps-max", "4.5", "--compare"]),
    ("degeneracy", ["degeneracy", "--j-max", "5", "--n-max", "5"]),
)
CLI_TINY = ("spectrum", "degeneracy")


def p_sq(family: str, j: int, n: int) -> int:
    """Exact p^2 of one state label (README table)."""
    if family == "f1":
        return (j + 2 + 2 * n) ** 2 - 1
    if family == "f2":
        return (j + 1 + 2 * n) ** 2 - 1
    if family == "f3":
        return (j + 2 * n) ** 2
    if family == "f4":
        return (j + 1 + 2 * n) ** 2
    if family == "j0":
        return (2 + n) ** 2 - 1
    raise ValueError(f"unknown family {family}")


def bound_states(j: int, n_max: int):
    """(family, n, p^2) of every bound state at j with n <= n_max."""
    if j == 0:
        return [("j0", n, p_sq("j0", 0, n)) for n in range(n_max + 1)]
    return [
        (fam, n, p_sq(fam, j, n))
        for fam in FAMILIES
        for n in range(n_max + 1)
        if not (fam == "f3" and n == 0)  # p^2 = j^2 carries no bound state
    ]


def window_levels(m: float, j: int, lo: float, hi: float):
    """Bound states whose eps = sqrt(p^2 + m^2) lies in [lo, hi], by eps."""
    levels = [
        (math.sqrt(p2 + m * m), fam, n, p2)
        for fam, n, p2 in bound_states(j, 40)
        if lo <= math.sqrt(p2 + m * m) <= hi
    ]
    return sorted(levels)


def make(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one workload.  The same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        rows = []
        for m, j, lo, hi, step in ORACLE_ROWS_TINY if tiny else ORACLE_ROWS:
            # Shift the scan grid by under half a step: new brackets, same levels.
            lo = lo + rng.uniform(0.0, 0.5) * step
            rows.append({"m": m, "j": j, "lo": lo, "hi": hi, "step": step,
                         "levels": window_levels(m, j, lo, hi)})
        rng.shuffle(rows)
        return {"rows": rows}
    if workload == "verify":
        js, ns = ((1,), (1,)) if tiny else (VERIFY_J, VERIFY_N)
        states = [(fam, j, n, p2) for j in js for fam, n, p2 in bound_states(j, max(ns))]
        rng.shuffle(states)
        if tiny:
            states = states[:2]
        pairs = []
        for _ in range(1 if tiny else FACTORIZATION_PAIRS):
            p2 = rng.uniform(0.5, 30.0)
            j = rng.randint(1, 6)
            pairs.append((p2, j * (j + 1)))
        wj = WRONSKIAN_J[:1] if tiny else WRONSKIAN_J
        return {"states": states, "pairs": pairs,
                "wronskian": [(j, WRONSKIAN_P, WRONSKIAN_X0) for j in wj]}
    if workload == "cli":
        cmds = [c for c in CLI_COMMANDS if not tiny or c[0] in CLI_TINY]
        rng.shuffle(cmds)
        return {"commands": cmds}
    raise ValueError(f"unknown workload {workload}")
