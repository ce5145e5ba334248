"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them all).

Criteria 1-9 assert, by name, the checks of ``qurel.verify``'s sections (the
one home of the invariants and their thresholds) and add only independent
oracles (verbatim analytic formulas, brute-force chain expansion), frozen
constants and time budgets. Criterion 10 runs ``qurel verify`` itself.
"""

import math
import time

import numpy as np

from qurel import (
    SIGMA_X, SIGMA_Z, T_MIN, ModelParams, Observable, closed_form_concurrence,
    closed_form_mixedness, concurrence_two_qubit, evaluate_point, qc_vur, qm_eur,
    sequential_decomposition, thermal_state, verify, xz_control_setup)
from qurel.cli import main as cli_main

from helpers import random_density, random_hermitian, thermal_elements
from test_measurements import chain_oracle


def report(criterion, ok, detail, checks=(), names=()):
    """Print and assert one PASS/FAIL line; the verify ``checks`` in ``names`` must pass."""
    by_name = {chk.name: chk for chk in checks}
    checks = [by_name[name] for name in names]
    ok = ok and all(chk.ok for chk in checks)
    parts = [f"{'' if chk.ok else '[FAIL] '}{chk.name} ({chk.detail})" for chk in checks]
    line = f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {'; '.join(parts + [detail])}"
    print(line)
    assert ok, line


def test_criterion_01_gibbs_matches_closed_form():
    t0 = time.monotonic()
    checks = verify.check_model()
    elapsed = time.monotonic() - t0
    report(1, elapsed < 1.0, f"model section in {elapsed:.2f} s",
           checks, ("closed-form eigensystem reproduces the Hamiltonian to 4 eps ||H||",
                    "closed-form decomposition diagonalises the thermal states to 4 eps",
                    "thermal state matches analytic elements", "both reduced states are I/2",
                    "scalars invariant under (j, t) -> (k j, k t)"))


def test_criterion_02_mixedness_closed_form():
    # verbatim-formula oracle at the reference point
    beta, j, delta = 1.0, 1.0, 2.0 * math.sqrt(2.0)
    oracle = (4.0 * math.exp(beta * (j + delta))
              * (math.cosh(beta * j) + 2.0 * math.cosh(beta * delta / 2.0))
              / (math.exp(beta * (j + delta)) + math.exp(beta * j)
                 + 2.0 * math.exp(beta * delta / 2.0)) ** 2)
    spot = closed_form_mixedness(ModelParams(1.0, 1.0, 1.0))
    report(2, abs(spot - oracle) <= 1e-10 and abs(spot - 0.33482) <= 1e-4,
           f"gamma(1,1,1) = {spot:.6f} vs oracle {oracle:.6f}",
           verify.check_model(), ("closed-form mixedness = 1 - Tr(rho^2)",))


def test_criterion_03_concurrence_and_erratum():
    # X-state oracle at the reference point
    r11, _, r23, z = thermal_elements(1.0, 1.0, 1.0)
    oracle = 2.0 * max(abs(r23) - r11, 0.0) / z
    spot = concurrence_two_qubit(thermal_state(ModelParams(1.0, 1.0, 1.0)))
    cold = closed_form_concurrence(ModelParams(0.0, 1.0, T_MIN))
    # the positive-exponent variant wrongly claims separability at (1, 1, 2)
    _, _, r23t, zt = thermal_elements(1.0, 1.0, 2.0)
    printed = 2.0 * max(abs(r23t) - math.exp(0.5 / 2.0), 0.0) / zt
    erratum = abs(printed - concurrence_two_qubit(thermal_state(ModelParams(1.0, 1.0, 2.0))))
    ok = (abs(spot - oracle) <= 1e-4 and abs(spot - 0.61557) <= 1e-4
          and abs(cold - 1.0) <= 1e-6 and erratum > 1e-6)
    report(3, ok, f"C(1,1,1) = {spot:.6f}; C cold = {cold:.8f}; "
                  f"positive-exponent variant off by {erratum:.3f} at (1,1,2)",
           verify.check_model(), ("closed-form concurrence = spin-flip concurrence",))


def test_criterion_04_total_variance_laws():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    checks = verify.check_conditional(rng)
    # the full chained expansion against the brute-force oracle
    worst = 0.0
    for n_ctrl in (2, 3) * 5:
        rho = random_density(rng, (2,) * (n_ctrl + 1))
        q = Observable(random_hermitian(rng, 2), 0)
        controls = [Observable(random_hermitian(rng, 2), s) for s in range(1, n_ctrl + 1)]
        seq = sequential_decomposition(rho, q, controls)
        residual, first, nested = chain_oracle(rho, q, controls)
        worst = max(worst, abs(seq.residual - residual), abs(seq.first_term - first),
                    *(abs(x - y) for x, y in zip(seq.nested, nested)))
    elapsed = time.monotonic() - t0
    report(4, worst <= 1e-9 and elapsed < 10.0,
           f"oracle dev {worst:.2e} (10 chained cases) in {elapsed:.2f} s",
           checks, ("law of total variance (200 random cases)",
                    "chained decomposition telescopes to V(Q) (100 cases)",
                    "decomposition terms nonnegative"))


def test_criterion_05_inequality_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(2025)
    checks = verify.check_inequalities(rng)
    # the entropic bound off the model, on random two-qubit states
    excess = 0.0
    for _ in range(100):
        eur = qm_eur(random_density(rng, (2, 2)), Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        excess = max(excess, eur.rhs - (eur.h_rb + eur.h_sb))
    elapsed = time.monotonic() - t0
    report(5, excess <= 1e-9 and elapsed < 10.0,
           f"entropic excess {excess:.2e} (100 random states) in {elapsed:.2f} s",
           checks, ("additive bound holds (500 random cases)",
                    "product bound holds (500 random cases)",
                    "assisted bound holds on the model grid",
                    "entropic bound holds on the model grid",
                    "lhs + subtracted = total variance on the grid",
                    "tightness ratio >= 1 where bound positive",
                    "assisted bound holds on random 2-4 qubit cases",
                    "bridge identity on random 2-4 qubit cases"))


def test_criterion_06_reference_points():
    setup = xz_control_setup()
    hot = qc_vur(thermal_state(ModelParams(1.0, 1.0, 1e6)), setup)
    spot = qc_vur(thermal_state(ModelParams(1.0, 1.0, 1.0)), setup)
    # correlator oracle from the analytic elements
    r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
    cxx, czz = 2.0 * r23.real / z, (2.0 * r11 - 2.0 * r22) / z
    lhs, w = 2.0 - cxx ** 2 - czz ** 2, 1.0 + math.cos(0.5) - cxx ** 2 - czz ** 2
    spots = ((spot.lhs, lhs, 1.20560), (spot.w, w, 1.08318), (spot.u, lhs / w, 1.11302))
    ok = abs(hot.u - 1.06518) <= 1e-4 and all(
        abs(got - oracle) <= 1e-4 and abs(got - frozen) <= 1e-4 for got, oracle, frozen in spots)
    report(6, ok, f"hot u {hot.u:.6f}; (1,1,1) oracle lhs {lhs:.6f}, w {w:.6f}, u {lhs / w:.6f}",
           verify.check_reference_points()[0],
           ("high-temperature limit (lhs = 2, w = 1 + cos 0.5)", "reference point (d=1, j=1, t=1)"))


def test_criterion_07_cold_antiferromagnetic_point():
    rec = evaluate_point(ModelParams(0.0, 1.0, T_MIN), xz_control_setup())
    # the verify command must surface the unclamped value
    checks, notes = verify.check_reference_points()
    noted = any("unclamped" in n and f"{rec.w:.6f}"[:8] in n for n in notes)
    report(7, rec.u is not None and abs(rec.u) <= 1e-4 and noted,
           f"u {rec.u}; unclamped w {rec.w:.8f} reported by verify: {noted}",
           checks, ("cold antiferromagnetic point (gamma, lhs vanish; |w| <= 0.13)",))


def test_criterion_08_single_valuedness():
    t0 = time.monotonic()
    checks = verify.check_mixedness_matching(xz_control_setup())
    elapsed = time.monotonic() - t0
    report(8, elapsed < 5.0, f"mixedness-matching section in {elapsed:.2f} s",
           checks, ("matched mixedness respects coupling rescaling",
                    "bound single-valued in (mixedness, d) at fixed coupling sign",
                    "opposite coupling signs give different bound at matched mixedness"))


def test_criterion_09_tightness_trend():
    report(9, True, "fig7b map", verify.check_tightness_trend(),
           ("variance-based tightness beats entropic on most of the map",))


def test_criterion_10_determinism_and_verify_budget(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(["sweep", "--preset", "fig1a", "--out", str(out1)])
    code2 = cli_main(["sweep", "--preset", "fig1a", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    t0 = time.monotonic()
    verify_code = cli_main(["verify"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()  # absorb the verify report
    report(10, code1 == 0 and code2 == 0 and identical and verify_code == 0 and elapsed < 60.0,
           f"byte-identical sweeps: {identical}; verify exit {verify_code} in {elapsed:.1f} s")
