"""Parameter sweeps over (d, j, t, theta) grids and their CSV datasets.

A sweep evaluates, at every grid point, the thermal state's mixedness and
concurrence, the control-assisted variance bound with its tightness, and
the memory-assisted entropic bound with its tightness, and emits one CSV
row per point. Matching points of equal mixedness across different
couplings makes the "bound is a function of mixedness" claim a numeric
statement instead of a visual one.

Points are evaluated in chunks, each as one (N, 4, 4) batch through the
array kernels of the lower modules; ``evaluate_point`` is a batch of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple
from itertools import islice, repeat

import numpy as np

from .errors import QurelError, RangeError, UsageError, ValidationError
from .linalg import SIGMA_X, SIGMA_Z, Checks
from .measurements import ChainPlan, Observable
from .model import (
    ModelParams,
    T_MIN,
    closed_form_mixedness,
    gibbs_states,
    thermal_state,
)
from .relations import (
    EurPlan,
    MeasurementSetup,
    eur_plan,
    optional,
    qc_vur,
    qc_vur_batch,
    qm_eur_batch,
    vur_plan,
    xz_control_setup,
)
from .states import check_density, concurrence_batch, mixedness_batch

CSV_HEADER = ("d", "j", "t", "theta", "gamma", "concurrence", "l_tra", "lhs",
              "w", "u", "h_rb", "h_sb", "h_ab", "eur_rhs", "u_eur")

#: matched-mixedness targets are located on this log-spaced scan
SCAN_T_MAX = 1e4
SCAN_POINTS = 200
GAMMA_TOL = 1e-10

#: grid points evaluated together as one batch: a chunk's working arrays
#: take a few hundred kilobytes, whatever the size of the grid
CHUNK_POINTS = 512

#: the entropic bound always compares sigma_x and sigma_z on qubit 0
_EUR_PAIR = (Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))


@dataclass(frozen=True)
class SweepGrid:
    """Axis ranges, each a (start, stop, steps) triple, plus the phase."""

    d_range: tuple[float, float, int]
    j_range: tuple[float, float, int]
    t_range: tuple[float, float, int]
    theta: float = 0.5

    def __post_init__(self):
        for name, rng in (("d", self.d_range), ("j", self.j_range), ("t", self.t_range)):
            start, stop, steps = rng
            if steps < 1:
                raise ValidationError(f"{name}_range needs steps >= 1, got {steps}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValidationError(
                    f"{name}_range needs a finite start and stop, got {start} and {stop}")
            if steps == 1 and start != stop:
                raise ValidationError(
                    f"{name}_range has one step but start {start} != stop {stop}")
            if start > stop:
                raise ValidationError(f"{name}_range has start {start} > stop {stop}")
        if self.t_range[0] < T_MIN:
            raise ValidationError(f"t_range must start at or above {T_MIN}")
        if np.min(np.abs(self.j_values())) < 1e-9:
            raise ValidationError("j_range passes through zero coupling")

    def d_values(self) -> np.ndarray:
        return np.linspace(*self.d_range[:2], self.d_range[2])

    def j_values(self) -> np.ndarray:
        return np.linspace(*self.j_range[:2], self.j_range[2])

    def t_values(self) -> np.ndarray:
        return np.linspace(*self.t_range[:2], self.t_range[2])


@dataclass(frozen=True)
class SweepRecord:
    """Everything computed at one grid point. Ratios are None when their
    denominator is numerically zero; ``error`` flags a failed point."""

    d: float
    j: float
    t: float
    theta: float
    gamma: float | None = None
    concurrence: float | None = None
    l_tra: float | None = None
    lhs: float | None = None
    w: float | None = None
    u: float | None = None
    h_rb: float | None = None
    h_sb: float | None = None
    h_ab: float | None = None
    eur_rhs: float | None = None
    u_eur: float | None = None
    error: str | None = None

    def invariant_violations(self) -> list[str]:
        """Human-readable list of violated row invariants (empty if fine)."""
        bad = []
        if self.error is not None:
            bad.append(f"point ({self.d}, {self.j}, {self.t}) failed: {self.error}")
            return bad
        if not -1e-9 <= self.gamma <= 0.75 + 1e-9:
            bad.append(f"gamma {self.gamma} outside [0, 0.75]")
        if not -1e-9 <= self.concurrence <= 1.0 + 1e-9:
            bad.append(f"concurrence {self.concurrence} outside [0, 1]")
        if self.lhs < self.w - 1e-9:
            bad.append(f"lhs {self.lhs} below bound w {self.w}")
        if self.h_rb + self.h_sb < self.eur_rhs - 1e-9:
            bad.append(f"entropic sum {self.h_rb + self.h_sb} below bound {self.eur_rhs}")
        return [f"({self.d}, {self.j}, {self.t}): {msg}" for msg in bad]


class _SweepPlan(NamedTuple):
    """A setup's operators for two-qubit thermal states, embedded once."""

    setup: MeasurementSetup
    vur: tuple[ChainPlan, ...]
    eur: EurPlan


def _plan(setup: MeasurementSetup) -> _SweepPlan:
    return _SweepPlan(setup, vur_plan(setup, (2, 2)), eur_plan((2, 2), *_EUR_PAIR))


def _states(d, j, t, checks: Checks) -> np.ndarray:
    """Validated Gibbs states (N, 4, 4) of a batch of model points."""
    rho = gibbs_states(d, j, t, checks)
    check_density(rho, checks)
    return rho


def _columns(rho, plan: _SweepPlan, checks: Checks) -> dict:
    """Record columns (CSV names, NaN for an undefined ratio) of a batch of
    validated thermal states."""
    vur = qc_vur_batch(rho, (2, 2), plan.setup, plan.vur, checks)
    eur = qm_eur_batch(rho, plan.eur)
    return dict(gamma=mixedness_batch(rho), concurrence=concurrence_batch(rho, checks),
                l_tra=vur["l_tra"], lhs=vur["lhs"], w=vur["w"], u=vur["u"],
                h_rb=eur["h_rb"], h_sb=eur["h_sb"], h_ab=eur["h_ab"],
                eur_rhs=eur["rhs"], u_eur=eur["u_eur"])


def _records(d, j, t, theta: float, cols: dict) -> list:
    columns = [cols[name].tolist() for name in CSV_HEADER[4:]]
    for name in ("u", "u_eur"):
        k = CSV_HEADER.index(name) - 4
        columns[k] = [optional(x) for x in columns[k]]
    return [SweepRecord(*row)
            for row in zip(d.tolist(), j.tolist(), t.tolist(), repeat(theta), *columns)]


def evaluate_point(params: ModelParams, setup: MeasurementSetup) -> SweepRecord:
    """Full record for one model point: the sweep's evaluation as a batch
    of one, which raises the first failing check's error."""
    d, j, t = (np.array([x], dtype=float) for x in (params.d, params.j, params.t))
    checks = Checks(1, strict=True)
    rho = _states(d, j, t, checks)
    return _records(d, j, t, setup.theta, _columns(rho, _plan(setup), checks))[0]


def _point_record(d: float, j: float, t: float, theta: float,
                  setup: MeasurementSetup) -> SweepRecord:
    try:
        return evaluate_point(ModelParams(d, j, t), setup)
    except QurelError as exc:
        return SweepRecord(d=d, j=j, t=t, theta=theta, error=str(exc))


def _chunk_records(d, j, t, theta: float, setup: MeasurementSetup, plan) -> list:
    """Records of one chunk of points. Every point the batch flags, and
    every point of a batch whose solver failed, is evaluated again as a
    batch of one, which records its own error message."""
    failed = np.ones(len(d), dtype=bool)
    records = [None] * len(d)
    if plan is not None:
        checks = Checks(len(d), strict=False)
        try:
            cols = _columns(_states(d, j, t, checks), plan, checks)
        except np.linalg.LinAlgError:
            pass
        else:
            records = _records(d, j, t, setup.theta, cols)
            failed = checks.failed
    for i in np.flatnonzero(failed):
        records[i] = _point_record(float(d[i]), float(j[i]), float(t[i]), theta, setup)
    return records


def run_sweep(grid: SweepGrid, setup: MeasurementSetup) -> list[SweepRecord]:
    """One record per grid point, in row-major (d, j, t) order.

    The grid is evaluated in chunks of CHUNK_POINTS points, each one batch
    of (N, 4, 4) arrays, with the setup's operators embedded once for the
    whole sweep; working memory beyond the records is bounded by the chunk
    size, not the grid size. A failing point is flagged on its record
    instead of aborting the sweep, so edge points cannot take down a long
    run: it is evaluated again through ``evaluate_point``, and its record
    carries the error that raises.
    """
    axes = (grid.d_values(), grid.j_values(), grid.t_values())
    shape = tuple(len(a) for a in axes)
    try:
        plan = _plan(setup)
    except QurelError:
        plan = None  # a setup every point rejects: each point records the error
    records = []
    n = math.prod(shape)
    for start in range(0, n, CHUNK_POINTS):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, n)), shape)
        d, j, t = (a[i] for a, i in zip(axes, index))
        records += _chunk_records(d, j, t, grid.theta, setup, plan)
    return records


def format_value(x) -> str:
    return "" if x is None else format(float(x), ".17g")


#: a row with no undefined field; "%.17g" formats a value as format_value does
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER))
_csv_fields = operator.attrgetter(*CSV_HEADER)


def _csv_row(rec) -> str:
    values = _csv_fields(rec)
    if None in values:
        return ",".join(format_value(x) for x in values)
    return _CSV_ROW % values


def emit_csv(records, destination) -> None:
    """Write records as CSV: fixed header, 17-significant-digit floats,
    LF line endings, empty fields for undefined ratios. Rows are written
    CHUNK_POINTS at a time, so the text of the whole file is never held
    in memory at once."""
    rows = map(_csv_row, records)
    with open(destination, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        while block := list(islice(rows, CHUNK_POINTS)):
            block.append("")
            fh.write("\n".join(block))


def match_mixedness(d: float, j: float, target_gamma: float) -> float:
    """Temperature at which the model reaches a target mixedness.

    The target is bracketed on a log-spaced temperature scan over
    [T_MIN, 1e4] and refined by bisection to |gamma - target| <= 1e-10;
    with several brackets the one at the smallest temperature wins.
    """
    if not math.isfinite(target_gamma):
        raise ValidationError(f"target mixedness must be finite, got {target_gamma}")

    def gamma_at(t: float) -> float:
        return closed_form_mixedness(ModelParams(d, j, t))

    ts = np.logspace(np.log10(T_MIN), np.log10(SCAN_T_MAX), SCAN_POINTS)
    gammas = np.array([gamma_at(t) for t in ts])
    residues = gammas - target_gamma

    hit = np.flatnonzero(np.abs(residues) <= GAMMA_TOL)
    if hit.size:
        return float(ts[hit[0]])
    brackets = np.flatnonzero(residues[:-1] * residues[1:] < 0.0)
    if not brackets.size:
        raise RangeError(
            f"gamma = {target_gamma} not achieved for d = {d}, j = {j}; "
            f"scan reached [{gammas.min():.6g}, {gammas.max():.6g}]")
    lo, hi = float(ts[brackets[0]]), float(ts[brackets[0] + 1])
    f_lo = gamma_at(lo) - target_gamma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = gamma_at(mid) - target_gamma
        if abs(f_mid) <= GAMMA_TOL:
            return mid
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise RangeError(f"bisection stalled matching gamma = {target_gamma}")


@dataclass(frozen=True)
class SingleValuedResult:
    w_spread: float
    u_spread: float
    skipped: int  # targets dropped because some sample could not match them


def check_single_valued(d: float, j_samples, setup: MeasurementSetup,
                        n_targets: int = 20) -> SingleValuedResult:
    """Maximum spread of the bound and its tightness across couplings of one
    sign, compared at matched mixedness.

    Reference mixedness targets come from the first sample's temperature
    grid; every other sample is brought to the same mixedness and the
    assisted bound re-evaluated there. A spread at rounding level means
    the bound depends on (j/t, d) only.
    """
    if n_targets < 1:
        raise ValidationError(f"n_targets must be >= 1, got {n_targets}")
    j_samples = [float(j) for j in j_samples]
    if len(j_samples) < 2:
        return SingleValuedResult(0.0, 0.0, 0)
    signs = {np.sign(j) for j in j_samples}
    if len(signs) != 1:
        raise ValidationError(f"coupling samples must share one sign, got {sorted(j_samples)}")

    def w_u_at(j: float, t: float):
        res = qc_vur(thermal_state(ModelParams(d, j, t)), setup)
        return res.w, res.u

    ref_ts = np.logspace(np.log10(0.1), np.log10(10.0), n_targets) * abs(j_samples[0])
    w_spread = u_spread = 0.0
    skipped = 0
    for t_ref in ref_ts:
        target = closed_form_mixedness(ModelParams(d, j_samples[0], float(t_ref)))
        ws, us = [], []
        try:
            for j in j_samples:
                t_match = t_ref if j == j_samples[0] else match_mixedness(d, j, target)
                w, u = w_u_at(j, float(t_match))
                ws.append(w)
                if u is not None:
                    us.append(u)
        except RangeError:
            skipped += 1
            continue
        w_spread = max(w_spread, max(ws) - min(ws))
        if len(us) == len(j_samples):
            u_spread = max(u_spread, max(us) - min(us))
    return SingleValuedResult(w_spread=w_spread, u_spread=u_spread, skipped=skipped)


_DJ_GRID = dict(d_range=(0.0, 3.0, 101), j_range=(-2.97, 3.03, 101))
_T_SCAN = dict(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(T_MIN, 5.0, 401))

_PRESETS = {
    # (d, j) maps at fixed temperature; the j axis is offset half a step
    # so the zero-coupling line is never sampled
    "fig1a": (dict(_DJ_GRID, t_range=(0.5, 0.5, 1)), ("concurrence", "gamma", "w")),
    "fig1b": (dict(_DJ_GRID, t_range=(1.0, 1.0, 1)), ("concurrence", "gamma", "w")),
    "fig2": (dict(_T_SCAN), ("w", "concurrence", "gamma")),
    "fig3a": (dict(d_range=(0.0, 3.0, 101), j_range=(1.0, 1.0, 1),
                   t_range=(T_MIN, 10.0, 101)), ("gamma", "w")),
    "fig3b": (dict(d_range=(0.0, 3.0, 101), j_range=(-1.0, -1.0, 1),
                   t_range=(T_MIN, 10.0, 101)), ("gamma", "w")),
    "fig4a": (dict(_DJ_GRID, t_range=(0.5, 0.5, 1)), ("u",)),
    "fig4b": (dict(_DJ_GRID, t_range=(1.0, 1.0, 1)), ("u",)),
    "fig5": (dict(_T_SCAN), ("u", "concurrence", "gamma")),
    "fig6a": (dict(d_range=(0.0, 3.0, 101), j_range=(1.0, 1.0, 1),
                   t_range=(T_MIN, 10.0, 101)), ("gamma", "u")),
    "fig6b": (dict(d_range=(0.0, 3.0, 101), j_range=(-1.0, -1.0, 1),
                   t_range=(T_MIN, 10.0, 101)), ("gamma", "u")),
    "fig7a": (dict(_DJ_GRID, t_range=(1.0, 1.0, 1)), ("u_eur",)),
    "fig7b": (dict(_DJ_GRID, t_range=(1.0, 1.0, 1)), ("u",)),
}


def figure_preset(name: str):
    """Grid, measurement setup and plotted-column subset for a named map."""
    if name not in _PRESETS:
        raise UsageError(
            f"unknown preset {name!r}; valid presets: {', '.join(sorted(_PRESETS))}")
    grid_kwargs, columns = _PRESETS[name]
    grid = SweepGrid(theta=0.5, **grid_kwargs)
    return grid, xz_control_setup(theta=0.5), columns
