"""Parameter sweeps over (d, j, t) grids and their CSV datasets.

A sweep evaluates, at every grid point, the thermal state's mixedness and
concurrence, the control-assisted variance bound with its tightness, and
the memory-assisted entropic bound with its tightness, and emits one CSV
row per point. Matching points of equal mixedness across different
couplings makes the "bound is a function of mixedness" claim a numeric
statement instead of a visual one.

Points are evaluated in chunks, each as one (N, 4, 4) batch through the
array kernels of the lower modules; every state comes with its
eigendecomposition in closed form, so a chunk's only solver call is the
concurrence's batched ``svd``, and the entropic bound is a closed form in
the Gibbs weights. ``evaluate_point`` is a batch of one.
Each chunk comes out as columns, one array per CSV column, and the error
of each point that failed, whose values are NaN. ``sweep_csv`` (behind
``qurel sweep``) writes each chunk's rows from those columns as soon as
it is evaluated, so a sweep of any size holds one chunk at a time;
``sweep_columns`` concatenates them into the grid's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import ArgumentError, RangeError, UsageError
from .linalg import Checks
from .model import (
    ModelParams,
    T_MIN,
    _domain_error,
    _gibbs_eigensystems,
    _mixedness_of,
    closed_form_mixedness,
)
from .relations import (
    MeasurementSetup,
    optional,
    qc_vur_batch,
    ratios,
    vur_plan,
    xz_control_setup,
)
from .states import concurrence_batch, mixedness_batch, spectrum_entropies

#: matched-mixedness targets are located on this log-spaced scan
SCAN_T_MAX = 1e4
SCAN_POINTS = 200
_SCAN_TS = tuple(np.logspace(np.log10(T_MIN), np.log10(SCAN_T_MAX), SCAN_POINTS).tolist())
#: a matched temperature's mixedness is this close to the target, or
#: matching raises RangeError
GAMMA_TOL = 1e-10

#: grid points evaluated together as one batch: a chunk's working arrays
#: take a few hundred kilobytes, whatever the size of the grid
CHUNK_POINTS = 512


@dataclass(frozen=True)
class SweepGrid:
    """Axis ranges, each a (start, stop, steps) triple, whose every point
    is in the model's domain. A sweep's phase theta is its setup's."""

    d_range: tuple[float, float, int]
    j_range: tuple[float, float, int]
    t_range: tuple[float, float, int]

    def __post_init__(self):
        for name, rng in (("d", self.d_range), ("j", self.j_range), ("t", self.t_range)):
            start, stop, steps = rng
            if not isinstance(steps, (int, np.integer)):
                raise ArgumentError(f"{name}_range needs an integer step count, got {steps!r}")
            if steps < 1:
                raise ArgumentError(f"{name}_range needs steps >= 1, got {steps}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ArgumentError(
                    f"{name}_range needs a finite start and stop, got {start} and {stop}")
            if steps == 1 and start != stop:
                raise ArgumentError(
                    f"{name}_range has one step but start {start} != stop {stop}")
            if start > stop:
                raise ArgumentError(f"{name}_range has start {start} > stop {stop}")
            if not math.isfinite(float(stop) - float(start)):
                raise ArgumentError(
                    f"{name}_range's span stop - start overflows, from {start} to {stop}")
        if self.d_range[0] < 0.0:
            raise ArgumentError("d_range must start at or above 0")
        if self.t_range[0] < T_MIN:
            raise ArgumentError(f"t_range must start at or above {T_MIN}")
        j = self.j_values()
        if (weak := j[np.abs(j) < 1e-9]).size:
            raise ArgumentError(f"j_range samples the coupling j = {weak[0].item()}; every "
                                f"sampled coupling needs |j| >= 1e-9")

    def _values(self, rng) -> np.ndarray:
        # the span is finite, so only the last point's step * (steps - 1) can
        # overflow, and linspace then overwrites it with stop
        with np.errstate(over="ignore"):
            return np.linspace(*rng[:2], rng[2])

    def d_values(self) -> np.ndarray:
        return self._values(self.d_range)

    def j_values(self) -> np.ndarray:
        return self._values(self.j_range)

    def t_values(self) -> np.ndarray:
        return self._values(self.t_range)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's row, field for field the CSV columns in their
    order: what ``evaluate_point`` returns. A ratio is None when its
    denominator is numerically zero."""

    d: float
    j: float
    t: float
    theta: float
    gamma: float
    concurrence: float
    l_tra: float
    lhs: float
    w: float
    u: float | None
    h_rb: float
    h_sb: float
    h_ab: float
    eur_rhs: float
    u_eur: float | None

    def invariant_violations(self) -> list[str]:
        """Human-readable list of violated row invariants (empty if fine):
        ``_violations`` as a batch of one."""
        values = np.array([getattr(self, name) for name in _INVARIANT_FIELDS], dtype=float)
        return [msg for _, msg in _violations(values[:, None], {})]


CSV_HEADER = tuple(f.name for f in fields(SweepRecord))


#: the record fields the row invariants read
_INVARIANT_FIELDS = ("d", "j", "t", "gamma", "concurrence", "lhs", "w", "h_rb", "h_sb",
                     "eur_rhs")


def _violations(values: np.ndarray, errors: dict) -> list[tuple[int, str]]:
    """(row, message) of every failed row and violated row invariant of a
    batch of rows whose fields ``_INVARIANT_FIELDS`` are the rows of
    ``values`` (10, N), in row order and, within a row, in check order. A
    row in ``errors`` failed with that error: its one message names the
    point and the error, and its values are not checked. A NaN value
    violates a range check and no inequality, as on a record."""
    d, j, t, gamma, conc, lhs, w, h_rb, h_sb, rhs = values
    entropic = h_rb + h_sb
    bad = (~((gamma >= -1e-9) & (gamma <= 0.75 + 1e-9)),
           ~((conc >= -1e-9) & (conc <= 1.0)),
           lhs < w - 1e-9,
           entropic < rhs - 1e-9)
    if not (errors or (bad[0] | bad[1] | bad[2] | bad[3]).any()):
        return []
    d, j, t, gamma, conc, lhs, w, entropic, rhs = (
        x.tolist() for x in (d, j, t, gamma, conc, lhs, w, entropic, rhs))
    messages = (lambda i: f"gamma {gamma[i]} outside [0, 0.75]",
                lambda i: f"concurrence {conc[i]} outside [0, 1]",
                lambda i: f"lhs {lhs[i]} below bound w {w[i]}",
                lambda i: f"entropic sum {entropic[i]} below bound {rhs[i]}")
    found = sorted([(i, k) for k, rows in enumerate(bad) for i in np.flatnonzero(rows).tolist()
                    if i not in errors] + [(i, -1) for i in errors])
    return [(i, f"point ({d[i]}, {j[i]}, {t[i]}) failed: {errors[i]}" if k < 0
             else f"({d[i]}, {j[i]}, {t[i]}): {messages[k](i)}") for i, k in found]


def _entropic_columns(w: np.ndarray) -> dict:
    """The entropic bound's columns (h_rb, h_sb, h_ab, eur_rhs, u_eur; u_eur
    NaN where undefined) for sigma_x and sigma_z on qubit 0 of Gibbs
    states with weights w (N, 4) in ``_levels``' order, in closed form.

    Both marginals are I/2, so S(B) = 1, and the eigenbases of sigma_x and
    sigma_z overlap by c = 1/2, so log2(1/c) = 1. With w1 = w2, measuring
    sigma_x leaves the spectrum {p, p, q, q}, p = (w0 + w1)/2 and q = (w1 +
    w3)/2, and measuring sigma_z leaves {w1, m, m, w1}, m = (w0 + w3)/2:
    h_rb = -2 (p log2 p + q log2 q) - 1, h_sb = -2 (w1 log2 w1 + m log2 m)
    - 1 and h_ab = S(w) - 1, each entropy under ``spectrum_entropies``'
    0 log 0 = 0. No measured eigenvalue that is 0 in truth reads as eps.
    """
    pairs = 0.5 * (w[:, [[0, 1], [1, 0]]] + w[:, [[1, 3], [1, 3]]])  # [[p, q], [w1, m]]
    h_rb, h_sb = (2.0 * spectrum_entropies(pairs) - 1.0).T
    h_ab = spectrum_entropies(w) - 1.0
    eur_rhs = 1.0 + h_ab
    return dict(h_rb=h_rb, h_sb=h_sb, h_ab=h_ab, eur_rhs=eur_rhs,
                u_eur=ratios(h_rb + h_sb, eur_rhs))


def _columns(d, j, t, setup: MeasurementSetup, checks: Checks) -> dict:
    """Value columns (CSV names, NaN for an undefined ratio) of a batch of
    model points, which the caller has checked: their Gibbs states with
    their eigendecompositions, all in closed form, through the setup's
    operators, and the entropic bound from the weights alone. The states are
    valid by construction; only their reduced measured states are checked.
    A setup that cannot be planned on two qubits raises."""
    rho, w, v = _gibbs_eigensystems(d, j, t, checks)
    vur = qc_vur_batch(rho, (2, 2), setup, checks)
    return dict(gamma=mixedness_batch(rho), concurrence=concurrence_batch(w, v),
                l_tra=vur["l_tra"], lhs=vur["lhs"], w=vur["w"], u=vur["u"],
                **_entropic_columns(w))


#: positions in CSV_HEADER of the ratios, which may be undefined
_RATIOS = tuple(CSV_HEADER.index(name) for name in ("u", "u_eur"))


def _chunks(axes, setup: MeasurementSetup):
    """Evaluates the grid of the (d, j, t) value arrays ``axes`` in
    row-major order, CHUNK_POINTS points at a time, each chunk one batch of
    (N, 4, 4) arrays with the setup's operators built once for the whole
    sweep.

    Yields, per chunk, the points' axis indices, their columns (CSV names
    but theta; NaN for an undefined ratio and in every value column
    of a failed point) and the error of each failed point's first failed
    check, keyed by row.
    """
    shape = tuple(len(a) for a in axes)
    n = math.prod(shape)
    for start in range(0, n, CHUNK_POINTS):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, n)), shape)
        d, j, t = (a[i] for a, i in zip(axes, index))
        checks = Checks(len(d))
        cols = dict(d=d, j=j, t=t, **_columns(d, j, t, setup, checks))
        for name in CSV_HEADER[4:]:
            cols[name][checks.failed] = np.nan
        yield index, cols, checks.errors


def evaluate_point(params: ModelParams, setup: MeasurementSetup) -> SweepRecord:
    """The row of one model point: the sweep's evaluation as a batch of
    one, which raises the error of the first check the point fails."""
    axes = tuple(np.array([x]) for x in (params.d, params.j, params.t))
    [(_, cols, errors)] = _chunks(axes, setup)
    if errors:
        raise errors[0]
    row = {name: col.item() for name, col in cols.items()}
    return SweepRecord(theta=setup.theta, **dict(row, u=optional(row["u"]),
                                                 u_eur=optional(row["u_eur"])))


def sweep_columns(grid: SweepGrid, setup: MeasurementSetup) -> tuple[dict, dict]:
    """The grid's columns, one array per CSV_HEADER name (theta too, the
    setup's) in row-major (d, j, t) order, evaluated in chunks as
    ``sweep_csv`` does, and the error of each failed point keyed by its
    row. A ratio is NaN where it is undefined, and a failed point's values
    are all NaN: its error, the one its ``evaluate_point`` raises, does
    not abort the sweep. A setup that cannot be planned on two qubits
    raises from the first chunk."""
    axes = (grid.d_values(), grid.j_values(), grid.t_values())
    chunks, errors = [], {}
    for _, cols, chunk_errors in _chunks(axes, setup):
        errors.update((CHUNK_POINTS * len(chunks) + i, e) for i, e in chunk_errors.items())
        chunks.append(cols)
    n = math.prod(map(len, axes))
    return {name: np.full(n, setup.theta) if name == "theta"
            else np.concatenate([cols[name] for cols in chunks]) for name in CSV_HEADER}, errors


#: one CSV field: 17 significant digits, which round-trip a float exactly
_FIELD = "%.17g"
#: a row from record columns: the axes and theta come as text
_COLUMN_ROW = ",".join(["%s"] * 4 + [_FIELD] * (len(CSV_HEADER) - 4))
#: the row of a point with an undefined ratio: its ratios come as text too
_RATIO_ROW = ",".join("%s" if k < 4 or k in _RATIOS else _FIELD
                      for k in range(len(CSV_HEADER)))
#: the row of a failed point: its axes and theta, no values
_ERROR_ROW = ",".join(["%s"] * 4 + [""] * (len(CSV_HEADER) - 4))


def format_value(x) -> str:
    """A field: empty where undefined (None or NaN), else 17 digits."""
    return "" if x is None or x != x else _FIELD % x


def _column_rows(index, axis_fields, theta_field: str, cols: dict, errors: dict) -> list[str]:
    """CSV rows of a chunk's record columns; ``axis_fields`` holds each
    axis's values as fields. An undefined ratio is an empty field, and so
    is every value of a row in ``errors``; any other NaN prints as nan.
    Every row is first formatted as if both its ratios were defined; the
    rows with an undefined ratio, and then the failed ones, are rebuilt."""
    fields = [list(map(text.__getitem__, i.tolist())) for text, i in zip(axis_fields, index)]
    fields.append(repeat(theta_field))
    fields += [cols[name].tolist() for name in CSV_HEADER[4:]]
    rows = list(map(_COLUMN_ROW.__mod__, zip(*fields)))
    for i in np.flatnonzero(np.isnan(cols["u"]) | np.isnan(cols["u_eur"])).tolist():
        row = [f[i] for f in fields[:3]] + [theta_field] + [f[i] for f in fields[4:]]
        rows[i] = _RATIO_ROW % tuple(format_value(x) if k in _RATIOS else x
                                     for k, x in enumerate(row))
    for i in errors:
        rows[i] = _ERROR_ROW % (fields[0][i], fields[1][i], fields[2][i], theta_field)
    return rows


def sweep_csv(grid: SweepGrid, setup: MeasurementSetup, destination) -> list[str]:
    """Evaluates a sweep and writes it as CSV, chunk by chunk as each
    finishes, without holding the grid's columns: fixed header,
    17-significant-digit floats, LF line endings, empty fields for
    undefined ratios and for every value of a failed point. Returns the
    rows' invariant violations in row order: a passing point's are its
    ``evaluate_point`` record's ``invariant_violations``, and a failed
    point's one message names its error.

    Rows are formatted straight from each chunk's columns; each distinct
    axis value is formatted once per sweep; the theta column is the
    setup's. A setup that cannot be planned raises before ``destination``
    is opened, so it leaves no file.
    """
    vur_plan(setup, (2, 2))  # memoized; raises before the file is opened
    axes = (grid.d_values(), grid.j_values(), grid.t_values())
    axis_fields = [[_FIELD % x for x in axis.tolist()] for axis in axes]
    theta_field = _FIELD % setup.theta
    problems = []
    with open(destination, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for index, cols, errors in _chunks(axes, setup):
            rows = _column_rows(index, axis_fields, theta_field, cols, errors)
            rows.append("")
            fh.write("\n".join(rows))
            values = np.array([cols[name] for name in _INVARIANT_FIELDS])
            problems += [msg for _, msg in _violations(values, errors)]
    return problems


def match_mixedness(d: float, j: float, target_gamma: float) -> float:
    """Lowest temperature at which the model reaches a target mixedness.

    A log-spaced scan over [T_MIN, 1e4] finds the first temperature where
    gamma - target is zero or has changed sign, and stops there: only a
    target the scan never reaches evaluates all of its points, for the
    range its RangeError reports. A zero at T_MIN returns T_MIN; otherwise
    the bracket it closes, [previous scan point, it], is bisected until
    its ends are adjacent floats, keeping gamma - target of the lower
    end's sign at the lower end; signs are compared, never products of two
    residues, which underflow for tiny targets. The end nearer the target
    in gamma is returned. No tolerance on gamma stops the bisection early:
    on a flat stretch of gamma a small gamma gap is a large temperature gap.

    So a target that gamma equals exactly on a stretch of temperatures (a
    plateau, such as gamma = 0 while the excited Boltzmann factors
    underflow, or the 2/3 of a cold ferromagnetic d = 0 model) matches
    the lowest temperature of that stretch: T_MIN when the stretch starts
    there, otherwise the float at which gamma first equals the target.
    The returned temperature meets |gamma - target| <= GAMMA_TOL, or
    RangeError is raised; a target the scan never reaches raises
    RangeError as well.
    """
    if not math.isfinite(target_gamma):
        raise ArgumentError(f"target mixedness must be finite, got {target_gamma}")
    p = ModelParams(d, j, T_MIN)  # checks (d, j) once: every step's t lies in [T_MIN, SCAN_T_MAX]
    gamma = _mixedness_of(p.d, p.j)
    # the match runs on Python floats, so a true overflow is a weight of 0
    # with no warning. gamma - target is never 0 at a bracket's lower end,
    # so its sign is (f_lo < 0); a product of two residues would underflow
    # to 0 for targets below about 1e-162
    gammas = []
    for k, t in enumerate(_SCAN_TS):
        g = gamma(t)
        gammas.append(g)
        f_hi = g - target_gamma
        if f_hi == 0.0 or (k and (f_hi < 0.0) != (f_lo < 0.0)):
            break
        f_lo = f_hi
    else:
        raise RangeError(
            f"gamma = {target_gamma} not achieved for d = {d}, j = {j}; "
            f"scan reached [{min(gammas)!r}, {max(gammas)!r}]")
    if k == 0:
        return _SCAN_TS[0]
    lo, hi = _SCAN_TS[k - 1], _SCAN_TS[k]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = gamma(mid) - target_gamma
        if f_mid != 0.0 and (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    t, residue = (hi, f_hi) if abs(f_hi) <= abs(f_lo) else (lo, f_lo)
    if not abs(residue) <= GAMMA_TOL:
        raise RangeError(f"matching gamma = {target_gamma} for d = {d}, j = {j} "
                         f"ended {abs(residue):.3e} away at t = {t}")
    return t


@dataclass(frozen=True)
class SingleValuedResult:
    w_spread: float
    u_spread: float
    skipped: int  # targets dropped: a sample could not match them, or a point raised RangeError


def _matched_bounds(d: float, j_samples: list, ref_ts: list, setup: MeasurementSetup):
    """w and u (NaN where undefined), as (target, sample) arrays, of every
    sample matched to the first one's mixedness at each reference
    temperature, all points evaluated as one batch, and the number of
    targets skipped: a sample did not match, or a point raised RangeError.
    Any other point error is raised, and RangeError if all are skipped."""
    j0 = j_samples[0]
    ts = []
    for t_ref in ref_ts:
        target = closed_form_mixedness(ModelParams(d, j0, t_ref))
        try:
            ts.append([t_ref if j == j0 else match_mixedness(d, j, target) for j in j_samples])
        except RangeError:
            pass
    nothing = RangeError(f"no mixedness target could be compared for d = {d}, "
                         f"j = {j_samples}: all {len(ref_ts)} targets skipped")
    if not ts:
        raise nothing  # a zero-size batch is never evaluated
    t = np.array(ts)
    checks = Checks(t.size)
    cols = _columns(np.full(t.size, d), np.tile(j_samples, len(t)), t.ravel(), setup, checks)
    if other := [e for _, e in sorted(checks.errors.items()) if not isinstance(e, RangeError)]:
        raise other[0]
    kept = ~checks.failed.reshape(t.shape).any(axis=1)
    if not kept.any():
        raise nothing
    w, u = (cols[name].reshape(t.shape)[kept] for name in ("w", "u"))
    return w, u, len(ref_ts) - len(w)


def _check_couplings(d: float, j_samples: list, n_targets: int) -> None:
    """check_single_valued's argument rules, each an ArgumentError, in
    order: at least one target and two couplings, every (d, j) in the
    model's domain, no coupling repeated (it would be compared with
    itself), one sign, and the reference temperatures 0.1 |j0| .. 10 |j0|
    of the first coupling j0 in [T_MIN, the float maximum]."""
    if n_targets < 1:
        raise ArgumentError(f"n_targets must be >= 1, got {n_targets}")
    if len(j_samples) < 2:
        raise ArgumentError(f"at least two coupling samples are needed, got {j_samples}")
    for j in j_samples:
        if (error := _domain_error(d, j, T_MIN)) is not None:
            raise error
    if repeated := sorted({j for j in j_samples if j_samples.count(j) > 1}):
        raise ArgumentError(f"coupling samples must be distinct, got {repeated} "
                            f"more than once in {j_samples}")
    if len({j > 0.0 for j in j_samples}) != 1:
        raise ArgumentError(f"coupling samples must share one sign, got {sorted(j_samples)}")
    j0 = j_samples[0]
    reference = f"first coupling j0 = {j0} puts the reference temperatures 0.1 |j0| .. 10 |j0|"
    if abs(j0) < 10 * T_MIN:
        raise ArgumentError(f"{reference} below T_MIN: |j0| must be >= {10 * T_MIN}")
    if not math.isfinite(10 * abs(j0)):
        raise ArgumentError(f"{reference} above the float maximum: 10 |j0| must be finite")


def check_single_valued(d: float, j_samples, setup: MeasurementSetup,
                        n_targets: int = 20) -> SingleValuedResult:
    """Maximum spread of the bound and its tightness across couplings of one
    sign, compared at matched mixedness (u where every sample's is defined).

    Reference mixedness targets come from the first sample's temperature
    grid; every other sample is brought to the same mixedness and the
    assisted bound evaluated there, in one batch. A spread at rounding
    level means the bound depends on (j/t, d) only.
    """
    j_samples = [float(j) for j in j_samples]
    _check_couplings(d, j_samples, n_targets)
    ref_ts = np.logspace(np.log10(0.1), np.log10(10.0), n_targets) * abs(j_samples[0])
    w, u, skipped = _matched_bounds(d, j_samples, ref_ts.tolist(), setup)
    u = u[~np.isnan(u).any(axis=1)]
    return SingleValuedResult(w_spread=float(np.ptp(w, axis=1).max()),
                              u_spread=float(np.ptp(u, axis=1).max(initial=0.0)), skipped=skipped)


_DJ_MAP = dict(d_range=(0.0, 3.0, 101), j_range=(-2.97, 3.03, 101))
_D_SCAN = dict(d_range=(0.0, 3.0, 101), t_range=(T_MIN, 10.0, 101))

#: each distinct preset grid once, under the names of the figures drawn
#: from it; the (d, j) maps offset j half a step so the zero-coupling line
#: is never sampled
_PRESETS = {name: grid for names, grid in (
    (("fig1a", "fig4a"), dict(_DJ_MAP, t_range=(0.5, 0.5, 1))),
    (("fig1b", "fig4b", "fig7a", "fig7b"), dict(_DJ_MAP, t_range=(1.0, 1.0, 1))),
    (("fig2", "fig5"), dict(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1),
                            t_range=(T_MIN, 5.0, 401))),
    (("fig3a", "fig6a"), dict(_D_SCAN, j_range=(1.0, 1.0, 1))),
    (("fig3b", "fig6b"), dict(_D_SCAN, j_range=(-1.0, -1.0, 1))),
) for name in names}


def figure_preset(name: str):
    """Grid and measurement setup of a named figure."""
    if name not in _PRESETS:
        raise UsageError(
            f"unknown preset {name!r}; valid presets: {', '.join(sorted(_PRESETS))}")
    return SweepGrid(**_PRESETS[name]), xz_control_setup(theta=0.5)
