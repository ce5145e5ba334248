"""Self-verification suite: every module invariant, checked end to end.

Run via ``qurel verify``. Prints one [PASS]/[FAIL] line per check plus a
few informational notes, and exits nonzero if anything fails. The whole
suite finishes in well under a minute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import I2, SIGMA_X, SIGMA_Z, Checks, dagger, partial_trace
from .measurements import Observable, conditional_stats, sequential_decomposition, variance
from .model import (
    ModelParams,
    T_MIN,
    _eigenvectors,
    _gibbs_eigensystems,
    _levels,
    closed_form_concurrence,
    closed_form_mixedness,
    hamiltonian,
    thermal_state,
)
from .relations import MeasurementSetup, l_tra, qc_vur, qm_eur, schrodinger_bound, xz_control_setup
from .states import DensityOperator, concurrence_two_qubit, mixedness
from .sweep import (_matched_bounds, check_single_valued, evaluate_point, figure_preset,
                    match_mixedness, sweep_columns)

GRID_D = (0.0, 0.5, 1.0, 2.0)
GRID_J = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
GRID_T = (0.2, 0.5, 1.0, 2.0, 5.0)
#: seeds the random cases of every section that draws any
SEED = 20240817


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _random_density(rng, dims) -> DensityOperator:
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, tuple(dims))


def _random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _closed_form_matrix(p: ModelParams) -> np.ndarray:
    """Analytic thermal matrix, written in shift-free form (grid betas are
    moderate, so the plain exponentials are safe here)."""
    beta, j, delta = p.beta, p.j, p.delta
    r11 = math.exp(-beta * j / 2.0)
    r22 = math.exp(beta * (j - delta) / 2.0) * (1.0 + math.exp(beta * delta)) / 2.0
    r23 = (np.exp(1j * p.theta_dm)
           * math.exp(beta * (j - delta) / 2.0) * (1.0 - math.exp(beta * delta)) / 2.0)
    z = 2.0 * math.exp(-beta * j / 2.0) * (1.0 + math.exp(beta * j) * math.cosh(beta * delta / 2.0))
    out = np.array([[r11, 0, 0, 0],
                    [0, r22, r23, 0],
                    [0, np.conj(r23), r22, 0],
                    [0, 0, 0, r11]], dtype=complex)
    return out / z


def check_kernel(rng) -> list[Check]:
    a, b, c = (_random_hermitian(rng, 2) for _ in range(3))
    m = np.kron(np.kron(a, b), c)
    step = partial_trace(partial_trace(m, (2, 2, 2), (0, 1)), (2, 2), (0,))
    full = partial_trace(m, (2, 2, 2), (0,))
    dev = float(np.max(np.abs(step - full))) + abs(np.trace(step) - np.trace(m))
    return [Check("partial trace chains and preserves trace", dev <= 1e-12, f"dev {dev:.2e}")]


def check_hamiltonian() -> Check:
    """The closed-form eigensystem behind every thermal state, against the
    Hamiltonian built from its Pauli terms: V diag(E) V^dagger, with E the
    ground level -j/2 - |j| r plus |j| times each height, reproduces
    ``hamiltonian(p)`` to a few eps ||H|| (||H|| = max |E|)."""
    d = np.repeat(GRID_D, len(GRID_J))
    j = np.tile(GRID_J, len(GRID_D))
    r = np.hypot(1.0, d)
    heights, v = _levels(d, j, r), _eigenvectors(d, j, r)
    energies = (-j / 2.0 - np.abs(j) * r)[:, None] + np.abs(j)[:, None] * heights
    rebuilt = (v * energies[:, None, :]) @ dagger(v)
    worst = max(float(np.max(np.abs(m - hamiltonian(ModelParams(dd, jj, 1.0)))))
                / (np.finfo(float).eps * float(np.max(np.abs(e))))
                for m, e, dd, jj in zip(rebuilt, energies, d.tolist(), j.tolist()))
    return Check("closed-form eigensystem reproduces the Hamiltonian to 4 eps ||H||",
                 worst <= 4.0, f"max dev {worst:.2f} eps ||H|| over {len(d)} (d, j)")


def check_decomposition() -> Check:
    """The closed-form decomposition that every thermal state carries, on
    the verify grid, against matrix computations on the state: rho V =
    V diag(w) (Frobenius norm) and w = eigvalsh(rho), both to a few eps
    (||rho|| <= 1)."""
    d, j, t = (axis.ravel() for axis in np.meshgrid(GRID_D, GRID_J, GRID_T, indexing="ij"))
    failures = Checks(len(d))
    rho, w, v = _gibbs_eigensystems(d, j, t, failures)
    eps = np.finfo(float).eps
    residual = float(np.max(np.linalg.norm(rho @ v - v * w[:, None, :], axis=(-2, -1))) / eps)
    spectrum = float(np.max(np.abs(w - np.linalg.eigvalsh(rho))) / eps)
    return Check("closed-form decomposition diagonalises the thermal states to 4 eps",
                 not failures.failed.any() and residual <= 4.0 and spectrum <= 4.0,
                 f"max ||rho V - V diag(w)|| {residual:.2f} eps, max |w - eigvalsh(rho)| "
                 f"{spectrum:.2f} eps over {len(d)} states")


def check_model() -> list[Check]:
    checks = [check_hamiltonian(), check_decomposition()]
    worst_state = worst_gamma = worst_conc = worst_marg = 0.0
    for d in GRID_D:
        for j in GRID_J:
            for t in GRID_T:
                p = ModelParams(d, j, t)
                rho = thermal_state(p)
                worst_state = max(worst_state, float(np.max(np.abs(rho.matrix - _closed_form_matrix(p)))))
                worst_gamma = max(worst_gamma, abs(closed_form_mixedness(p) - mixedness(rho)))
                worst_conc = max(worst_conc, abs(closed_form_concurrence(p) - concurrence_two_qubit(rho)))
                for side in (0, 1):
                    worst_marg = max(worst_marg, float(np.max(np.abs(
                        rho.reduced(side).matrix - I2 / 2.0))))
    checks.append(Check("thermal state matches analytic elements", worst_state <= 1e-10,
                        f"max dev {worst_state:.2e} over {len(GRID_D)*len(GRID_J)*len(GRID_T)} points"))
    checks.append(Check("closed-form mixedness = 1 - Tr(rho^2)", worst_gamma <= 1e-10,
                        f"max dev {worst_gamma:.2e}"))
    checks.append(Check("closed-form concurrence = spin-flip concurrence", worst_conc <= 1e-10,
                        f"max dev {worst_conc:.2e}"))
    checks.append(Check("both reduced states are I/2", worst_marg <= 1e-12, f"max dev {worst_marg:.2e}"))

    setup = xz_control_setup()
    worst = 0.0
    for k in (0.5, 2.0, 10.0):
        for (d, j, t) in ((1.0, 1.0, 1.0), (0.5, -1.0, 0.7), (2.0, 2.0, 3.0)):
            base = evaluate_point(ModelParams(d, j, t), setup)
            scaled = evaluate_point(ModelParams(d, k * j, k * t), setup)
            for fld in ("gamma", "concurrence", "lhs", "w"):
                worst = max(worst, abs(getattr(base, fld) - getattr(scaled, fld)))
    checks.append(Check("scalars invariant under (j, t) -> (k j, k t)", worst <= 1e-10,
                        f"max dev {worst:.2e}"))
    return checks


def check_conditional(rng) -> list[Check]:
    checks = []
    worst = 0.0
    for i in range(200):
        dims = (2, 2) if i % 2 == 0 else (2, 2, 2)
        rho = _random_density(rng, dims)
        a, c = rng.permutation(len(dims))[:2]
        q = Observable(_random_hermitian(rng, dims[a]), int(a))
        o = Observable(_random_hermitian(rng, dims[c]), int(c))
        stats = conditional_stats(rho, q, o)
        worst = max(worst, abs(stats.e_of_v + stats.v_of_e - variance(rho, q)))
    checks.append(Check("law of total variance (200 random cases)", worst <= 1e-10,
                        f"max dev {worst:.2e}"))

    worst = 0.0
    # from +inf, so the detail shows the smallest term however large it is
    neg = np.inf
    for i in range(100):
        n_ctrl = 2 if i % 2 == 0 else 3
        dims = (2,) * (n_ctrl + 1)
        rho = _random_density(rng, dims)
        q = Observable(_random_hermitian(rng, 2), 0)
        controls = [Observable(_random_hermitian(rng, 2), s) for s in range(1, n_ctrl + 1)]
        seq = sequential_decomposition(rho, q, controls)
        total = seq.residual + seq.first_term + sum(seq.nested)
        worst = max(worst, abs(total - variance(rho, q)))
        neg = min(neg, seq.residual, seq.first_term, *seq.nested)
    checks.append(Check("chained decomposition telescopes to V(Q) (100 cases)", worst <= 1e-9,
                        f"max dev {worst:.2e}"))
    checks.append(Check("decomposition terms nonnegative", neg >= -1e-10, f"min term {neg:.2e}"))
    return checks


def check_inequalities(rng) -> list[Check]:
    checks = []
    # each excess starts at -inf, so its detail shows the true margin
    worst = -np.inf
    for _ in range(500):
        rho = _random_density(rng, (2,))
        a = Observable(_random_hermitian(rng, 2), 0)
        b = Observable(_random_hermitian(rng, 2), 0)
        o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        bound = l_tra(rho, a, b, o, theta)
        total = variance(rho, a) + variance(rho, b)
        worst = max(worst, bound - total)
    checks.append(Check("additive bound holds (500 random cases)", worst <= 1e-9,
                        f"max excess {worst:.2e}"))

    worst = -np.inf
    for _ in range(500):
        rho = _random_density(rng, (2,))
        a = Observable(_random_hermitian(rng, 2), 0)
        b = Observable(_random_hermitian(rng, 2), 0)
        lhs, rhs = schrodinger_bound(rho, a, b)
        worst = max(worst, rhs - lhs)
    checks.append(Check("product bound holds (500 random cases)", worst <= 1e-10,
                        f"max excess {worst:.2e}"))

    setup = xz_control_setup()
    worst_ineq = worst_eur = -np.inf
    worst_bridge = 0.0
    min_ratio = np.inf
    for d in GRID_D:
        for j in GRID_J:
            for t in GRID_T:
                rho = thermal_state(ModelParams(d, j, t))
                res = qc_vur(rho, setup)
                worst_ineq = max(worst_ineq, res.w - res.lhs)
                total_var = sum(variance(rho, q) for q, _ in setup.pairs)
                worst_bridge = max(worst_bridge, abs(res.lhs + res.subtracted - total_var))
                if res.u is not None and res.w > 1e-6:
                    min_ratio = min(min_ratio, res.u)
                eur = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
                worst_eur = max(worst_eur, eur.rhs - (eur.h_rb + eur.h_sb))
    checks.append(Check("assisted bound holds on the model grid", worst_ineq <= 1e-9,
                        f"max excess {worst_ineq:.2e}"))
    checks.append(Check("lhs + subtracted = total variance on the grid", worst_bridge <= 1e-9,
                        f"max dev {worst_bridge:.2e}"))
    checks.append(Check("entropic bound holds on the model grid", worst_eur <= 1e-9,
                        f"max excess {worst_eur:.2e}"))
    checks.append(Check("tightness ratio >= 1 where bound positive", min_ratio >= 1.0 - 1e-9,
                        f"min ratio {min_ratio:.6f}"))

    worst_bridge, worst_ineq = 0.0, -np.inf
    for i in range(200):
        n_ctrl = 1 + i % 3
        dims = (2,) * (n_ctrl + 1)
        rho = _random_density(rng, dims)
        pairs = []
        for _ in range(2):
            q = Observable(_random_hermitian(rng, 2), 0)
            controls = tuple(Observable(_random_hermitian(rng, 2), s)
                             for s in range(1, n_ctrl + 1))
            pairs.append((q, controls))
        o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        setup_i = MeasurementSetup(pairs=tuple(pairs), ltra_operator=o,
                                   theta=rng.uniform(0.0, 2.0 * np.pi))
        res = qc_vur(rho, setup_i)
        total_var = sum(variance(rho, q) for q, _ in pairs)
        worst_bridge = max(worst_bridge, abs(res.lhs + res.subtracted - total_var))
        worst_ineq = max(worst_ineq, res.w - res.lhs)
    checks.append(Check("assisted bound holds on random 2-4 qubit cases", worst_ineq <= 1e-9,
                        f"max excess {worst_ineq:.2e}"))
    checks.append(Check("bridge identity on random 2-4 qubit cases", worst_bridge <= 1e-9,
                        f"max dev {worst_bridge:.2e}"))
    return checks


def check_reference_points() -> tuple[list[Check], list[str]]:
    checks = []
    notes = []
    setup = xz_control_setup()

    hot = evaluate_point(ModelParams(1.0, 1.0, 1e6), setup)
    ok = (abs(hot.lhs - 2.0) <= 1e-5
          and abs(hot.w - (1.0 + math.cos(0.5))) <= 1e-5
          and abs(hot.u - 2.0 / (1.0 + math.cos(0.5))) <= 1e-4)
    checks.append(Check("high-temperature limit (lhs = 2, w = 1 + cos 0.5)", ok,
                        f"lhs {hot.lhs:.8f}, w {hot.w:.8f}, u {hot.u:.8f}"))

    spot = evaluate_point(ModelParams(1.0, 1.0, 1.0), setup)
    ok = (abs(spot.lhs - 1.205631622584718) <= 1e-9
          and abs(spot.w - 1.0832141844750907) <= 1e-9
          and abs(spot.u - 1.1130131416890086) <= 1e-9)
    checks.append(Check("reference point (d=1, j=1, t=1)", ok,
                        f"lhs {spot.lhs:.8f}, w {spot.w:.8f}, u {spot.u:.8f}"))

    cold = evaluate_point(ModelParams(0.0, 1.0, T_MIN), setup)
    ok = cold.gamma <= 1e-5 and cold.lhs <= 1e-5 and abs(cold.w) <= 0.13
    checks.append(Check("cold antiferromagnetic point (gamma, lhs vanish; |w| <= 0.13)", ok,
                        f"gamma {cold.gamma:.2e}, lhs {cold.lhs:.2e}, w {cold.w:.8f}"))
    notes.append(
        f"note: at (d=0, j=1, t={T_MIN}) the unclamped bound is w = {cold.w:.12f} "
        f"= cos(0.5) - 1; the zero-mixedness point gives a negative bound, not a "
        f"vanishing one, under the fixed theta = 0.5 convention (lhs and gamma do vanish).")
    return checks, notes


def check_mixedness_matching(setup) -> list[Check]:
    checks = []
    t_back = match_mixedness(1.0, 2.0, closed_form_mixedness(ModelParams(1.0, 1.0, 1.0)))
    checks.append(Check("matched mixedness respects coupling rescaling", abs(t_back - 2.0) <= 1e-8,
                        f"t = {t_back!r}, expected 2"))

    results = [check_single_valued(d, js, setup) for d in (0.0, 1.0, 2.0)
               for js in ((0.5, 1.0, 2.0), (-0.5, -1.0, -2.0))]
    worst_w = max(res.w_spread for res in results)
    worst_u = max(res.u_spread for res in results)
    checks.append(Check("bound single-valued in (mixedness, d) at fixed coupling sign",
                        worst_w <= 1e-12 and worst_u <= 1e-12,
                        f"w spread {worst_w:.2e}, u spread {worst_u:.2e}"))

    w, _, skipped = _matched_bounds(1.0, [1.0, -1.0],
                                    np.logspace(np.log10(0.2), np.log10(5.0), 20).tolist(), setup)
    spread = float(np.max(np.abs(w[:, 0] - w[:, 1])))
    checks.append(Check("opposite coupling signs give different bound at matched mixedness",
                        spread > 1e-3 and not skipped, f"max spread {spread:.2e}"))
    return checks


def check_tightness_trend() -> list[Check]:
    grid, setup = figure_preset("fig7b")
    cols, _ = sweep_columns(grid, setup)
    # a failed row is NaN throughout, so neither count includes it
    defined = int(np.count_nonzero(~np.isnan(cols["u"]) & ~np.isnan(cols["u_eur"])))
    frac = int(np.count_nonzero(cols["u"] < cols["u_eur"])) / defined
    return [Check("variance-based tightness beats entropic on most of the map",
                  frac > 0.5, f"fraction {frac:.4f} over {defined} points")]


def run_all() -> int:
    """Run the whole suite; returns 0 on success, 2 on any failure."""
    t0 = time.time()
    # one generator per section that draws random cases, so that an edit to
    # one section leaves the others' cases as they were
    rng = [np.random.default_rng((SEED, k)) for k in range(3)]
    # (title, function returning the section's checks and notes), in report order
    sections = [
        ("matrix kernel", lambda: (check_kernel(rng[0]), ())),
        ("thermal model", lambda: (check_model(), ())),
        ("conditional statistics", lambda: (check_conditional(rng[1]), ())),
        ("uncertainty bounds", lambda: (check_inequalities(rng[2]), ())),
        ("reference points", check_reference_points),
        ("mixedness matching", lambda: (check_mixedness_matching(xz_control_setup()), ())),
        ("tightness comparison map", lambda: (check_tightness_trend(), ())),
    ]
    all_ok = True
    for title, fn in sections:
        print(f"-- {title}")
        checks, notes = fn()
        for chk in checks:
            all_ok &= chk.ok
            print(f"  [{'PASS' if chk.ok else 'FAIL'}] {chk.name}  ({chk.detail})")
        for note in notes:
            print(f"  {note}")

    print(f"{'all checks passed' if all_ok else 'FAILURES detected'} "
          f"in {time.time() - t0:.1f} s")
    return 0 if all_ok else 2
