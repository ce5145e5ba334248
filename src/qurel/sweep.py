"""Parameter sweeps over (d, j, t, theta) grids and their CSV datasets.

A sweep evaluates, at every grid point, the thermal state's mixedness and
concurrence, the control-assisted variance bound with its tightness, and
the memory-assisted entropic bound with its tightness, and emits one CSV
row per point. Matching points of equal mixedness across different
couplings makes the "bound is a function of mixedness" claim a numeric
statement instead of a visual one.

Points are evaluated in chunks, each as one (N, 4, 4) batch through the
array kernels of the lower modules, with one eigendecomposition per state;
``evaluate_point`` is a batch of one. Each chunk comes out as record
columns, a point that failed in its batch redone on its own into its row.
``sweep_csv`` (behind ``qurel sweep``) writes each chunk's rows from those
columns as soon as it is evaluated, so a sweep of any size holds one chunk
at a time; ``run_sweep`` turns the same columns into records.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple
from itertools import repeat

import numpy as np

from .errors import QurelError, RangeError, UsageError, ValidationError
from .linalg import SIGMA_X, SIGMA_Z, Checks, eigh_batch
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

#: the entropic bound always compares sigma_x and sigma_z on qubit 0, so
#: its operators are built once, at import
_EUR_PLAN = eur_plan((2, 2), Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))


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
            if not isinstance(steps, (int, np.integer)):
                raise ValidationError(f"{name}_range needs an integer step count, got {steps!r}")
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
        """Human-readable list of violated row invariants (empty if fine):
        ``_violations`` as a batch of one."""
        if self.error is not None:
            return [_failure(self.d, self.j, self.t, self.error)]
        values = np.array(_invariant_fields(self), dtype=float)[:, None]
        return [msg for _, msg in _violations(values)]


def _failure(d: float, j: float, t: float, error: str) -> str:
    """The invariant violation of a point that failed with ``error``."""
    return f"point ({d}, {j}, {t}) failed: {error}"


#: the record fields the row invariants read
_INVARIANT_FIELDS = ("d", "j", "t", "gamma", "concurrence", "lhs", "w", "h_rb", "h_sb",
                     "eur_rhs")
_invariant_fields = operator.attrgetter(*_INVARIANT_FIELDS)


def _violations(values: np.ndarray) -> list[tuple[int, str]]:
    """(row, message) of every violated row invariant of a batch of rows
    whose fields ``_INVARIANT_FIELDS`` are the rows of ``values`` (10, N),
    in row order and, within a row, in check order. A NaN value violates a
    range check and no inequality, as on a record."""
    d, j, t, gamma, conc, lhs, w, h_rb, h_sb, rhs = values
    entropic = h_rb + h_sb
    bad = (~((gamma >= -1e-9) & (gamma <= 0.75 + 1e-9)),
           ~((conc >= -1e-9) & (conc <= 1.0 + 1e-9)),
           lhs < w - 1e-9,
           entropic < rhs - 1e-9)
    if not (bad[0] | bad[1] | bad[2] | bad[3]).any():
        return []
    d, j, t, gamma, conc, lhs, w, entropic, rhs = (
        x.tolist() for x in (d, j, t, gamma, conc, lhs, w, entropic, rhs))
    messages = (lambda i: f"gamma {gamma[i]} outside [0, 0.75]",
                lambda i: f"concurrence {conc[i]} outside [0, 1]",
                lambda i: f"lhs {lhs[i]} below bound w {w[i]}",
                lambda i: f"entropic sum {entropic[i]} below bound {rhs[i]}")
    found = sorted((i, k) for k, rows in enumerate(bad) for i in np.flatnonzero(rows).tolist())
    return [(i, f"({d[i]}, {j[i]}, {t[i]}): {messages[k](i)}") for i, k in found]


class _SweepPlan(NamedTuple):
    """A setup's operators for two-qubit thermal states, built once."""

    setup: MeasurementSetup
    vur: tuple[ChainPlan, ...]
    eur: EurPlan


def _plan(setup: MeasurementSetup) -> _SweepPlan:
    return _SweepPlan(setup, vur_plan(setup, (2, 2)), _EUR_PLAN)


def _states(d, j, t, checks: Checks):
    """Validated Gibbs states (N, 4, 4) of a batch of model points, with
    their one eigendecomposition: ascending eigenvalues (N, 4) and
    eigenvectors (N, 4, 4)."""
    rho = gibbs_states(d, j, t, checks)
    w, v = eigh_batch(rho, checks)
    check_density(rho, w, checks)
    return rho, w, v


def _columns(rho, w, v, plan: _SweepPlan, checks: Checks) -> dict:
    """Value columns (CSV names, NaN for an undefined ratio) of a batch of
    validated thermal states and their eigendecompositions."""
    vur = qc_vur_batch(rho, (2, 2), plan.setup, plan.vur, checks)
    eur = qm_eur_batch(rho, w, plan.eur)
    return dict(gamma=mixedness_batch(rho), concurrence=concurrence_batch(w, v),
                l_tra=vur["l_tra"], lhs=vur["lhs"], w=vur["w"], u=vur["u"],
                h_rb=eur["h_rb"], h_sb=eur["h_sb"], h_ab=eur["h_ab"],
                eur_rhs=eur["rhs"], u_eur=eur["u_eur"])


#: positions in CSV_HEADER of the ratios, which may be undefined
_RATIOS = tuple(CSV_HEADER.index(name) for name in ("u", "u_eur"))


def _records(theta: float, cols: dict, errors: dict) -> list:
    """Records of a batch's columns; the row of each ``errors`` key is a
    failed point, whose record carries only its coordinates and error."""
    columns = [repeat(theta) if name == "theta" else cols[name].tolist()
               for name in CSV_HEADER]
    for k in _RATIOS:
        columns[k] = [optional(x) for x in columns[k]]
    records = [SweepRecord(*row) for row in zip(*columns)]
    for i, error in errors.items():
        rec = records[i]
        records[i] = SweepRecord(rec.d, rec.j, rec.t, theta, error=error)
    return records


def _point_columns(d: float, j: float, t: float, setup: MeasurementSetup) -> dict:
    """Record columns, each of length 1, of one model point, evaluated as a
    strict batch of one."""
    d, j, t = (np.array([x], dtype=float) for x in (d, j, t))
    checks = Checks(1, strict=True)
    state = _states(d, j, t, checks)
    return dict(d=d, j=j, t=t, **_columns(*state, _plan(setup), checks))


def evaluate_point(params: ModelParams, setup: MeasurementSetup) -> SweepRecord:
    """Full record for one model point: the sweep's evaluation as a batch
    of one, which raises the first failing check's error."""
    return _records(setup.theta, _point_columns(params.d, params.j, params.t, setup), {})[0]


def _chunks(grid: SweepGrid, setup: MeasurementSetup):
    """Evaluates the grid in row-major (d, j, t) order, CHUNK_POINTS points
    at a time, each chunk one batch of (N, 4, 4) arrays with the setup's
    operators built once for the whole sweep.

    Yields, per chunk, the points' axis indices, their record columns
    (CSV names but theta; NaN for an undefined ratio) and the error text of
    each failed point, keyed by row. Every point the batch flags, every
    point of a batch whose solver failed, and every point of a setup that
    cannot be planned is evaluated again through ``_point_columns``: its
    values replace the row's, or, if it raises, the row's values become NaN
    and its error is kept.
    """
    axes = (grid.d_values(), grid.j_values(), grid.t_values())
    shape = tuple(len(a) for a in axes)
    try:
        plan = _plan(setup)
    except QurelError:
        plan = None  # a setup every point rejects: each point records the error
    n = math.prod(shape)
    for start in range(0, n, CHUNK_POINTS):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, n)), shape)
        d, j, t = (a[i] for a, i in zip(axes, index))
        # placeholders for a batch that cannot be evaluated: every point is redone
        cols = dict(d=d, j=j, t=t, **{name: np.full(len(d), np.nan) for name in CSV_HEADER[4:]})
        failed = np.ones(len(d), dtype=bool)
        if plan is not None:
            checks = Checks(len(d), strict=False)
            try:
                cols.update(_columns(*_states(d, j, t, checks), plan, checks))
            except np.linalg.LinAlgError:
                pass
            else:
                failed = checks.failed
        errors = {}
        for i in np.flatnonzero(failed).tolist():
            try:
                point = _point_columns(d[i], j[i], t[i], setup)
            except QurelError as exc:
                errors[i] = str(exc)
                point = dict.fromkeys(CSV_HEADER[4:], (np.nan,))
            for name in CSV_HEADER[4:]:
                cols[name][i] = point[name][0]
        yield index, cols, errors


def run_sweep(grid: SweepGrid, setup: MeasurementSetup) -> list[SweepRecord]:
    """One record per grid point, in row-major (d, j, t) order, from the
    columns that ``sweep_csv`` writes.

    The grid is evaluated in chunks of CHUNK_POINTS points, each one batch
    of (N, 4, 4) arrays; working memory beyond the records is bounded by
    the chunk size, not the grid size. A failing point is flagged on its
    record instead of aborting the sweep, so edge points cannot take down a
    long run: it is evaluated again as a batch of one, and its record
    carries the error that raises.
    """
    records = []
    for _, cols, errors in _chunks(grid, setup):
        records += _records(grid.theta, cols, errors)
    return records


#: one CSV field: 17 significant digits, which round-trip a float exactly
_FIELD = "%.17g"
#: a row from record columns: the axes, theta and the ratios come as text
_COLUMN_ROW = ",".join("%s" if k < 4 or k in _RATIOS else _FIELD
                       for k in range(len(CSV_HEADER)))
#: the row of a failed point: its axes and theta, no values
_ERROR_ROW = ",".join(["%s"] * 4 + [""] * (len(CSV_HEADER) - 4))


def format_value(x) -> str:
    return "" if x is None else _FIELD % float(x)


def _ratio_field(x: float) -> str:
    """A ratio's field: empty when it is undefined (NaN)."""
    return "" if x != x else _FIELD % x


def _column_rows(index, axis_fields, theta_field: str, cols: dict, errors: dict) -> list[str]:
    """CSV rows of a chunk's record columns; ``axis_fields`` holds each
    axis's values as fields. An undefined ratio is an empty field, and so
    is every value of a row in ``errors``; any other NaN prints as nan."""
    fields = [list(map(text.__getitem__, i.tolist())) for text, i in zip(axis_fields, index)]
    fields.append(repeat(theta_field))
    for k, name in enumerate(CSV_HEADER[4:], 4):
        values = cols[name].tolist()
        fields.append(list(map(_ratio_field, values)) if k in _RATIOS else values)
    rows = list(map(_COLUMN_ROW.__mod__, zip(*fields)))
    for i in errors:
        rows[i] = _ERROR_ROW % (fields[0][i], fields[1][i], fields[2][i], theta_field)
    return rows


def sweep_csv(grid: SweepGrid, setup: MeasurementSetup, destination) -> list[str]:
    """Evaluates a sweep and writes it as CSV, chunk by chunk as each
    finishes, without building the grid's records: fixed header,
    17-significant-digit floats, LF line endings, empty fields for
    undefined ratios and for every value of a failed point. Returns the
    rows' invariant violations in row order, the messages of their
    records' ``invariant_violations``.

    Rows are formatted straight from each chunk's columns; each distinct
    axis value is formatted once per sweep.
    """
    axis_fields = [[_FIELD % x for x in axis.tolist()]
                   for axis in (grid.d_values(), grid.j_values(), grid.t_values())]
    theta_field = _FIELD % grid.theta
    problems = []
    with open(destination, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for index, cols, errors in _chunks(grid, setup):
            rows = _column_rows(index, axis_fields, theta_field, cols, errors)
            rows.append("")
            fh.write("\n".join(rows))
            values = np.array([cols[name] for name in _INVARIANT_FIELDS])
            found = [(i, msg) for i, msg in _violations(values) if i not in errors]
            for i, error in errors.items():
                d, j, t = (cols[name][i].item() for name in ("d", "j", "t"))
                found.append((i, _failure(d, j, t, error)))
            found.sort(key=operator.itemgetter(0))  # stable: a row keeps its order
            problems += [msg for _, msg in found]
    return problems


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
