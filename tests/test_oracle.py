"""The package's columns against the 50-digit oracle of ``oracle.py``.

Each column has an absolute bound, the worst error measured on these
points rounded up; an assertion message also gives the relative error.
The ratios u = lhs / w and u_eur = (h_rb + h_sb) / eur_rhs are gated as
the sweep's reference CSVs gate a ratio: the error times |den| / (1 +
|ratio|), with den the oracle's w or eur_rhs, and each must be undefined
exactly where the oracle's |den| < RATIO_MIN. The entropic columns are
gated twice: the sweep's closed forms, and ``qm_eur``'s matrix path on a
``thermal_state``.
The points are every row of the reference CSVs under tests/data, the
coldest fig3b row at d = 0.06 and seeded points with beta |j| up to
1000, d up to 1e6 and theta at 0 and pi.
"""

import csv
import functools
import math
from decimal import Decimal
from pathlib import Path

import numpy as np

import oracle
from qurel.linalg import SIGMA_X, SIGMA_Z
from qurel.measurements import Observable
from qurel.model import (
    ModelParams,
    T_MIN,
    closed_form_concurrence,
    closed_form_mixedness,
    thermal_state,
)
from qurel.relations import RATIO_MIN, qm_eur, xz_control_setup
from qurel.sweep import evaluate_point

DATA = Path(__file__).parent / "data"

#: absolute bound of each column, for the sweep's values through
#: ``evaluate_point``, for the scalar closed forms (``_cf``) and for
#: ``qm_eur`` on a ``thermal_state`` (``_qm``): the worst errors measured
#: here are 5.3e-16 (gamma), 8.9e-16 (concurrence, which also carries the
#: rounding of LAPACK's svd), 7.1e-16 (l_tra), 7.9e-16 (lhs), 8.9e-16 (w),
#: 6.2e-16 (u, scaled as the module docstring says; undefined at 9 seeded
#: points), 3.6e-16 (gamma_cf) and 2.7e-16 (concurrence_cf).
#: For the sweep's entropic columns, closed forms in the Gibbs weights,
#: they are 4.3e-16 (h_rb), 4.4e-16 (h_sb), 5.2e-16 (h_ab and eur_rhs) and
#: 3.9e-16 (u_eur, scaled as u). qm_eur's matrix path reads them from the
#: spectra of 2 x 2 memory blocks, where an eigenvalue that is 0 in truth
#: comes out about eps and weighs in at eps log2(1/eps): 6.0e-15
#: (h_rb_qm), 2.7e-15 (h_sb_qm), 5.2e-16 (h_ab_qm and eur_rhs_qm) and
#: 1.9e-15 (u_eur_qm).
BOUNDS = {
    "gamma": 1e-15,
    "concurrence": 2e-15,
    "l_tra": 1e-15,
    "lhs": 1e-15,
    "w": 1e-15,
    "u": 1e-15,
    "gamma_cf": 5e-16,
    "concurrence_cf": 5e-16,
    "h_rb": 5e-16,
    "h_sb": 5e-16,
    "h_ab": 1e-15,
    "eur_rhs": 1e-15,
    "u_eur": 5e-16,
    "h_rb_qm": 1e-14,
    "h_sb_qm": 5e-15,
    "h_ab_qm": 1e-15,
    "eur_rhs_qm": 1e-15,
    "u_eur_qm": 2e-15,
}


#: the entropic bound's observables, sigma_x and sigma_z on qubit 0
_EUR_PAIR = (Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))


@functools.cache
def _setup(theta):
    return xz_control_setup(theta=theta)


def package_row(d, j, t, theta) -> dict:
    """The package's values of the oracle's columns at one row."""
    p = ModelParams(d, j, t)
    rec = evaluate_point(p, _setup(theta))
    eur = qm_eur(thermal_state(p), *_EUR_PAIR)
    return {"gamma": rec.gamma, "concurrence": rec.concurrence, "l_tra": rec.l_tra,
            "lhs": rec.lhs, "w": rec.w, "u": rec.u, "gamma_cf": closed_form_mixedness(p),
            "concurrence_cf": closed_form_concurrence(p), "h_rb": rec.h_rb,
            "h_sb": rec.h_sb, "h_ab": rec.h_ab, "eur_rhs": rec.eur_rhs,
            "u_eur": rec.u_eur, "h_rb_qm": eur.h_rb, "h_sb_qm": eur.h_sb,
            "h_ab_qm": eur.h_ab, "eur_rhs_qm": eur.rhs, "u_eur_qm": eur.u_eur}


#: each ratio column and the column it divides by
RATIOS = {"u": "w", "u_eur": "eur_rhs"}


def worst_errors(points) -> dict:
    """Per column, (error, relative error, point) of the point with the
    largest error against the oracle: the absolute error, or a ratio's
    scaled one."""
    worst = {name: (0.0, 0.0, None) for name in BOUNDS}
    for point in points:
        truth = oracle.row(*point)
        for name, value in package_row(*point).items():
            column = name.removesuffix("_cf").removesuffix("_qm")
            exact = truth[column]
            if column in RATIOS:
                den = abs(truth[RATIOS[column]])
                assert (value is None) == (den < Decimal(RATIO_MIN)), (point, name, value, den)
                if value is None:
                    continue
            err = abs(Decimal(value) - exact)
            rel = err / abs(exact) if exact else (Decimal(0) if not err else Decimal("Inf"))
            if column in RATIOS:
                err *= den / (1 + abs(exact))
            if err > worst[name][0] or worst[name][2] is None:
                worst[name] = (float(err), float(rel), point)
    return worst


def assert_within_bounds(worst: dict) -> None:
    misses = [f"{name}: abs {err:.3g} > {BOUNDS[name]:.0e} (rel {rel:.3g}) at {point}"
              for name, (err, rel, point) in worst.items() if not err <= BOUNDS[name]]
    assert not misses, "; ".join(misses)


def reference_points() -> list:
    """(d, j, t, theta) of every row of the reference CSVs."""
    points = []
    for path in sorted(DATA.glob("*.csv")):
        with open(path, newline="") as fh:
            points += [tuple(float(row[k]) for k in ("d", "j", "t", "theta"))
                       for row in csv.DictReader(fh)]
    return points


def seeded_points(n=400, seed=16001) -> list:
    """Points with beta |j| in [1e-3, 1000] (a tenth of them at 1000), d
    in [1e-4, 1e6] or 0, t at T_MIN or in [T_MIN, 1e3], either sign and
    theta at 0 or pi."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        beta_j = 1e3 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 3.0)
        d = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0, 6.0)
        t = T_MIN if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 3.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        theta = 0.0 if rng.random() < 0.5 else math.pi
        points.append((d, sign * beta_j * t, t, theta))
    return points


def test_reference_rows_agree_with_the_oracle():
    points = reference_points()
    assert len(points) == 2445
    assert_within_bounds(worst_errors(points))


def test_seeded_points_agree_with_the_oracle():
    assert_within_bounds(worst_errors(seeded_points()))


def test_coldest_fig3b_row_agrees_with_the_oracle():
    """(0.06, -1, T_MIN) sits beta |J| / 2 = 500 above a near-degenerate
    gap J (1 - r). Formed from its stable form, gamma is within a few
    ulps, and lhs and w well within the 1.08e-13 of the exponent
    differences they replaced."""
    point = (0.06, -1.0, T_MIN, 0.5)
    truth = oracle.row(*point)
    got = package_row(*point)
    ulp = math.ulp(float(truth["gamma"]))
    for name in ("gamma", "gamma_cf"):
        err = abs(Decimal(got[name]) - truth["gamma"])
        assert err <= 4 * ulp, f"{name}: {float(err) / ulp:.1f} ulps"
    for name in ("lhs", "w"):
        err = abs(Decimal(got[name]) - truth[name])
        assert err <= Decimal(BOUNDS[name]), f"{name}: abs {float(err):.3g}"
