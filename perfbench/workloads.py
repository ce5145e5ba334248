"""The benchmark's three workloads: seeded inputs, the timed op, and its check.

A workload yields *units*. A unit is prepared outside the timed region
(inputs drawn, the package's input objects built), run inside it, and
checked after it; reference values for the check are computed only by the
check. A unit holds one op, except in ``thermal_map``, where a unit is one
``qurel sweep`` call and each of its grid points is an op.

The package is driven only through public functions, always looked up as
module attributes (``qurel.cli.main``, not a local alias), so that the traced
run can rebind them.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qurel.cli
import qurel.measurements
import qurel.model
import qurel.relations
import qurel.states
import qurel.sweep

from qurel.model import ModelParams

#: tolerances of the output checks; each is the one the acceptance tests or
#: ``qurel verify`` already apply to the same quantity
CLOSED_FORM_TOL = 1e-10      # gamma, concurrence, l_tra against closed forms
BOUND_TOL = 1e-9             # lhs >= w, bridge identity, entropic bound
SINGLE_VALUED_TOL = 1e-6     # w at matched mixedness against w at the reference


@dataclass
class Unit:
    ops: int
    run: Callable[[], object]
    check: Callable[[object], int]  # returns the number of failed ops


# --------------------------------------------------------------------------
# thermal_map: preset-shaped grids through ``qurel sweep``


def _fmt(x: float) -> str:
    return repr(float(x))


def _axis(start: float, stop: float, steps: int) -> tuple[str, np.ndarray]:
    """CLI range text for an axis and the values the sweep will use."""
    return f"{_fmt(start)}:{_fmt(stop)}:{steps}", np.linspace(float(start), float(stop), steps)


def _point(x: float) -> tuple[str, np.ndarray]:
    """CLI text for a single-value axis and its value."""
    return _fmt(x), np.array([float(x)])


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


#: points per map axis and per t-scan, as in the figure presets: ten of the
#: twelve presets are 101 x 101 maps and two are 401-point t-scans
MAP_STEPS = 101
SCAN_STEPS = 401


def _map_grid(rng, shape: int):
    """(d, j, t) axis texts and values for one preset-sized grid, with
    seeded ranges around the presets' ranges:
    0 = (d, j) map at fixed t (fig1a, fig1b, fig4a, fig4b, fig7a, fig7b),
    1 = t-scan from T_MIN at fixed (d, j) (fig2, fig5),
    2 = (d, t) map at fixed j (fig3a, fig3b, fig6a, fig6b)."""
    t_min = qurel.model.T_MIN
    if shape == 0:
        d = _axis(0.0, rng.uniform(1.0, 3.0), MAP_STEPS)
        # offset half a step from zero coupling, as the presets do
        step, n_neg = rng.uniform(0.04, 0.08), int(rng.integers(45, 57))
        j = _axis(-(n_neg - 0.5) * step, (MAP_STEPS - n_neg - 0.5) * step, MAP_STEPS)
        t = _point(rng.uniform(0.3, 1.5))
    elif shape == 1:
        # |j| <= 1 keeps beta |J| <= 1000 at T_MIN, the supported range
        d = _point(rng.uniform(0.0, 3.0))
        j = _point(_sign(rng) * rng.uniform(0.5, 1.0))
        t = _axis(t_min, rng.uniform(3.0, 10.0), SCAN_STEPS)
    else:
        d = _axis(0.0, rng.uniform(1.0, 3.0), MAP_STEPS)
        j = _point(_sign(rng) * rng.uniform(0.5, 1.0))
        t = _axis(t_min, rng.uniform(5.0, 10.0), MAP_STEPS)
    return d, j, t


def _row_ok(row: dict, d: float, j: float, t: float, theta: float) -> bool:
    values = {k: (float(v) if v else None) for k, v in row.items()}
    if (values["d"], values["j"], values["t"], values["theta"]) != (d, j, t, theta):
        return False
    if any(values[k] is None for k in ("gamma", "concurrence", "l_tra", "lhs", "w",
                                       "h_rb", "h_sb", "eur_rhs")):
        return False
    if qurel.sweep.SweepRecord(**values).invariant_violations():
        return False
    p = ModelParams(d, j, t)
    return (abs(values["gamma"] - qurel.model.closed_form_mixedness(p)) <= CLOSED_FORM_TOL
            and abs(values["concurrence"] - qurel.model.closed_form_concurrence(p))
            <= CLOSED_FORM_TOL
            and abs(values["l_tra"] - (1.0 + math.cos(theta))) <= CLOSED_FORM_TOL)


def _sweep_unit(d, j, t, theta: float, out: str) -> Unit:
    argv = ["sweep", f"--d={d[0]}", f"--j={j[0]}", f"--t={t[0]}",
            f"--theta={_fmt(theta)}", "--out", out]
    points = [(float(a), float(b), float(c)) for a in d[1] for b in j[1] for c in t[1]]

    def check(code) -> int:
        # rows are streamed, so that the check adds little to peak memory
        n = failed = 0
        with open(out, newline="", encoding="ascii") as fh:
            for n, row in enumerate(csv.DictReader(fh), 1):
                if n > len(points) or not _row_ok(row, *points[n - 1], theta):
                    failed += 1
        if n != len(points):
            return len(points)
        # a nonzero exit with every row passing still fails the whole call
        return failed if code == 0 or failed else len(points)

    return Unit(len(points), lambda: qurel.cli.main(argv), check)


def thermal_map(rng, workdir: str):
    out = os.path.join(workdir, "sweep.csv")
    shape = 0
    while True:
        d, j, t = _map_grid(rng, shape)
        yield _sweep_unit(d, j, t, rng.uniform(0.1, 3.0), out)
        shape = (shape + 1) % CYCLE_UNITS["thermal_map"]


def _one_point_sweep(rng, workdir: str) -> Unit:
    """A one-point sweep: the first point a user of the CLI evaluates."""
    d, j, t = _map_grid(rng, 0)
    return _sweep_unit(_point(d[1][-1]), _point(j[1][-1]), t, 0.5,
                       os.path.join(workdir, "sweep.csv"))


# --------------------------------------------------------------------------
# match_gamma: the unit that check-single-valued and match-gamma repeat


#: couplings matched against each reference point, as check_single_valued
#: matches several couplings against one reference
MATCHES_PER_REF = 4


def _match_units(rng, setup) -> list[Unit]:
    sign = _sign(rng)
    d = rng.uniform(0.0, 3.0)
    j_ref = sign * rng.uniform(0.5, 2.0)
    # reference temperatures span the range check_single_valued uses
    t_ref = abs(j_ref) * 10.0 ** rng.uniform(-1.0, 1.0)
    ref = ModelParams(d, j_ref, t_ref)
    target = qurel.model.closed_form_mixedness(ref)

    @functools.cache
    def w_ref() -> float:
        return qurel.relations.qc_vur(qurel.model.thermal_state(ref), setup).w

    return [_match_unit(d, sign * rng.uniform(0.5, 2.0), target, w_ref, setup)
            for _ in range(MATCHES_PER_REF)]


def _match_unit(d: float, j: float, target: float, w_ref, setup) -> Unit:
    def run():
        t_match = qurel.sweep.match_mixedness(d, j, target)
        return t_match, qurel.relations.qc_vur(
            qurel.model.thermal_state(ModelParams(d, j, t_match)), setup)

    def check(out) -> int:
        t_match, res = out
        gamma = qurel.model.closed_form_mixedness(ModelParams(d, j, t_match))
        ok = (abs(gamma - target) <= qurel.sweep.GAMMA_TOL
              and abs(res.w - w_ref()) <= SINGLE_VALUED_TOL)
        return 0 if ok else 1

    return Unit(1, run, check)


def match_gamma(rng, workdir: str):
    setup = qurel.relations.xz_control_setup(theta=0.5)
    while True:
        yield from _match_units(rng, setup)


# --------------------------------------------------------------------------
# random_states: arbitrary 2-4 qubit states, drawn as qurel verify draws them


def _random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _random_density(rng, n_qubits: int):
    n = 2 ** n_qubits
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return qurel.states.DensityOperator(m / np.trace(m).real, (2,) * n_qubits)


def _random_unit(rng) -> Unit:
    Observable = qurel.measurements.Observable
    n_ctrl = 1 + int(rng.integers(3))
    rho = _random_density(rng, n_ctrl + 1)
    pairs = tuple(
        (Observable(_random_hermitian(rng, 2), 0),
         tuple(Observable(_random_hermitian(rng, 2), s) for s in range(1, n_ctrl + 1)))
        for _ in range(2))
    o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    setup = qurel.relations.MeasurementSetup(pairs=pairs, ltra_operator=o,
                                             theta=rng.uniform(0.0, 2.0 * np.pi))
    r, s = pairs[0][0], pairs[1][0]

    def run():
        vur = qurel.relations.qc_vur(rho, setup)
        rho_01 = rho if n_ctrl == 1 else rho.reduced((0, 1))
        return (vur, qurel.relations.qm_eur(rho_01, r, s),
                qurel.states.concurrence_two_qubit(rho_01))

    def check(out) -> int:
        vur, eur, conc = out
        total_var = sum(qurel.measurements.variance(rho, q) for q, _ in pairs)
        ok = (vur.lhs >= vur.w - BOUND_TOL
              and abs(vur.lhs + vur.subtracted - total_var) <= BOUND_TOL
              and eur.h_rb + eur.h_sb >= eur.rhs - BOUND_TOL
              and 0.0 <= conc <= 1.0)
        return 0 if ok else 1

    return Unit(1, run, check)


def random_states(rng, workdir: str):
    while True:
        yield _random_unit(rng)


STREAMS = {"thermal_map": thermal_map, "match_gamma": match_gamma,
           "random_states": random_states}
#: a run measures whole cycles of its stream; a thermal_map cycle is one
#: grid of each preset shape, so every run has the same mix of shapes
CYCLE_UNITS = {"thermal_map": 3, "match_gamma": 1, "random_states": 1}


def first_unit(workload: str, rng, workdir: str) -> Unit:
    """The op a set-up probe times: the stream's first, except that
    ``thermal_map`` evaluates one point rather than a whole grid."""
    if workload == "thermal_map":
        return _one_point_sweep(rng, workdir)
    return next(STREAMS[workload](rng, workdir))
