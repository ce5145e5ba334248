import itertools
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from qurel import model, sweep
from qurel.errors import (
    DegenerateOperator,
    QurelError,
    RangeError,
    SubsystemError,
    UsageError,
    ValidationError,
)
from qurel.linalg import SIGMA_X, SIGMA_Z
from qurel.measurements import Observable
from qurel.model import (
    ModelParams,
    T_MIN,
    _mixedness_of,
    closed_form_concurrence,
    closed_form_mixedness,
    thermal_state,
)
from qurel.relations import MeasurementSetup, optional, qc_vur, xz_control_setup
from qurel.sweep import (
    CHUNK_POINTS,
    CSV_HEADER,
    SweepGrid,
    SweepRecord,
    check_single_valued,
    evaluate_point,
    figure_preset,
    format_value,
    match_mixedness,
    sweep_columns,
    sweep_csv,
)

from helpers import count_solver_calls

#: the largest float
MAX = sys.float_info.max


class TestSweepGrid:
    def test_single_point_grid(self):
        grid = SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))
        assert list(grid.d_values()) == [1.0]
        assert list(grid.j_values()) == [1.0]

    def test_rejects_zero_coupling_grid_point(self):
        """Every sampled coupling needs |j| >= 1e-9: the message names the
        first that does not, whether the range crosses zero or not."""
        for j_range, j in [((-1.0, 1.0, 3), "0.0"), ((1e-10, 1e-10, 1), "1e-10"),
                           ((-1.0, 1e-10, 2), "1e-10"), ((-5e-10, 1.0, 4), "-5e-10")]:
            with pytest.raises(ValidationError) as err:
                SweepGrid(d_range=(0.0, 1.0, 2), j_range=j_range, t_range=(1.0, 1.0, 1))
            assert str(err.value) == (f"j_range samples the coupling j = {j}; every sampled "
                                      f"coupling needs |j| >= 1e-9")

    def test_rejects_cold_start(self):
        with pytest.raises(ValidationError):
            SweepGrid(d_range=(0.0, 1.0, 2), j_range=(1.0, 1.0, 1), t_range=(1e-5, 1.0, 5))

    def test_rejects_reversed_range(self):
        with pytest.raises(ValidationError):
            SweepGrid(d_range=(1.0, 0.0, 2), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))

    @pytest.mark.parametrize("t_range", [(1.0, math.inf, 2), (math.nan, math.nan, 1),
                                         (math.nan, 2.0, 3)])
    def test_rejects_non_finite_bounds(self, t_range):
        with pytest.raises(ValidationError, match="^t_range needs a finite start and stop"):
            SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=t_range)

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308),
                                             (np.float64(-1e308), np.float64(1e308))])
    def test_rejects_a_span_that_overflows(self, start, stop):
        """linspace would form stop - start = inf and fill the grid with
        NaN, warning twice on the way."""
        with pytest.raises(ValidationError) as err:
            SweepGrid(d_range=(0.0, 1.0, 2), j_range=(start, stop, 2), t_range=(1.0, 1.0, 1))
        assert str(err.value) == (
            "j_range's span stop - start overflows, from -1e+308 to 1e+308")

    def test_accepts_a_span_near_the_float_maximum(self):
        """On the last three spans linspace's last product, step
        (steps - 1), overflows, and linspace then overwrites it with stop:
        each axis holds these values, bit for bit, and no RuntimeWarning
        (an error under this suite's filter) escapes, also from the
        zero-coupling check."""
        for axis, rng, values in [
            ("j", (-1e308, 7e307, 2), [-1e308, 7e307]),
            ("d", (0.0, MAX, 4), [0.0, 5.992310449541053e+307, 1.1984620899082105e+308, MAX]),
            ("j", (-MAX / 2, MAX / 2, 4),
             [-MAX / 2, -2.996155224770526e+307, 2.996155224770527e+307, MAX / 2]),
            ("t", (T_MIN, MAX, 4),
             [T_MIN, 5.992310449541053e+307, 1.1984620899082105e+308, MAX]),
        ]:
            ranges = dict(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))
            grid = SweepGrid(**dict(ranges, **{f"{axis}_range": rng}))
            assert getattr(grid, f"{axis}_values")().tolist() == values, axis

    def test_rejects_one_step_that_drops_stop(self):
        with pytest.raises(ValidationError, match="^t_range"):
            SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(0.5, 2.0, 1))

    @pytest.mark.parametrize("steps", [2.5, 2.0])
    def test_rejects_non_integer_step_count(self, steps):
        with pytest.raises(ValidationError, match="^j_range needs an integer step count"):
            SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 2.0, steps),
                      t_range=(1.0, 1.0, 1))

    @pytest.mark.parametrize("theta", [math.nan, -0.1, 2.0 * math.pi + 1e-9, math.inf])
    def test_rejects_theta_outside_zero_two_pi(self, theta):
        """A sweep's phase is its setup's, which takes theta in [0, 2*pi]
        only."""
        with pytest.raises(ValidationError, match=r"^theta must lie in \[0, 2\*pi\], got "):
            xz_control_setup(theta=theta)

    def test_accepts_theta_endpoints(self):
        for theta in (0.0, 2.0 * math.pi):
            assert xz_control_setup(theta=theta).theta == theta

    def test_accepts_numpy_integer_step_count(self):
        grid = SweepGrid(d_range=(0.0, 1.0, np.int64(2)), j_range=(1.0, 1.0, 1),
                         t_range=(1.0, 1.0, 1))
        assert list(grid.d_values()) == [0.0, 1.0]


def _record(cols: dict, i: int) -> SweepRecord:
    """Row ``i`` of a sweep's columns as evaluate_point gives it: a record
    whose undefined (NaN) ratios are None."""
    row = {name: col[i].item() for name, col in cols.items()}
    return SweepRecord(**dict(row, u=optional(row["u"]), u_eur=optional(row["u_eur"])))


def _point_or_error(cols: dict, i: int, setup):
    """What the batch of one gives for row ``i``'s point: its record, or
    the text of the error it raises."""
    try:
        return evaluate_point(ModelParams(*(cols[k][i].item() for k in "djt")), setup)
    except QurelError as exc:
        return str(exc)


class TestRunSweep:
    def test_single_point_matches_evaluate_point(self):
        grid = SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))
        setup = xz_control_setup()
        cols, errors = sweep_columns(grid, setup)
        assert list(cols) == list(CSV_HEADER)
        assert all(len(col) == 1 for col in cols.values()) and errors == {}
        direct = evaluate_point(ModelParams(1.0, 1.0, 1.0), setup)
        assert _record(cols, 0) == direct

    def test_row_major_order(self):
        grid = SweepGrid(d_range=(0.0, 1.0, 2), j_range=(1.0, 2.0, 2), t_range=(1.0, 2.0, 2))
        cols, _ = sweep_columns(grid, xz_control_setup())
        coords = list(zip(cols["d"].tolist(), cols["j"].tolist(), cols["t"].tolist()))
        expected = [(d, j, t) for d in (0.0, 1.0) for j in (1.0, 2.0) for t in (1.0, 2.0)]
        assert coords == expected

    def test_records_satisfy_row_invariants(self):
        grid = SweepGrid(d_range=(0.0, 2.0, 3), j_range=(-2.0, -0.5, 3), t_range=(0.3, 3.0, 4))
        cols, errors = sweep_columns(grid, xz_control_setup())
        assert errors == {}
        values = np.array([cols[name] for name in sweep._INVARIANT_FIELDS])
        assert sweep._violations(values, errors) == []

    def test_invariant_violation_messages(self):
        """Each violated invariant of a record gives one message, in check
        order; a NaN fails a range check but no inequality."""
        base = SweepRecord(d=1.0, j=-0.5, t=0.25, theta=0.5, gamma=0.3, concurrence=0.2,
                           l_tra=1.8, lhs=1.2, w=1.0, u=1.2, h_rb=0.5, h_sb=0.6, h_ab=0.1,
                           eur_rhs=1.1, u_eur=1.0)
        assert base.invariant_violations() == []
        at = "(1.0, -0.5, 0.25): "
        bad = replace(base, gamma=0.8, concurrence=-0.1, lhs=0.5, h_rb=0.25, eur_rhs=math.nan)
        assert bad.invariant_violations() == [at + "gamma 0.8 outside [0, 0.75]",
                                              at + "concurrence -0.1 outside [0, 1]",
                                              at + "lhs 0.5 below bound w 1.0"]
        bad = replace(base, gamma=math.nan, concurrence=1.5, w=math.nan, h_rb=0.1)
        assert bad.invariant_violations() == [at + "gamma nan outside [0, 0.75]",
                                              at + "concurrence 1.5 outside [0, 1]",
                                              at + "entropic sum 0.7 below bound 1.1"]
        # a failed row has the one message of its error, whatever its values
        failed = np.array([[1.0]] * 3 + [[math.nan]] * 7)
        assert sweep._violations(failed, {0: "boom"}) == [
            (0, "point (1.0, 1.0, 1.0) failed: boom")]

    def test_cold_map_mixedness_structure(self):
        """On the coupling map at t = 0.5 (the fig1a setting, coarsened),
        mixedness peaks at the 0.75 ceiling near zero coupling and falls
        off toward strong coupling of either sign."""
        grid = SweepGrid(d_range=(0.0, 3.0, 4), j_range=(-2.97, 3.03, 11),
                         t_range=(0.5, 0.5, 1))
        cols, _ = sweep_columns(grid, xz_control_setup())
        by_j = {}
        for j, gamma in zip(cols["j"].tolist(), cols["gamma"].tolist()):
            by_j.setdefault(j, []).append(gamma)
        js = sorted(by_j)
        weakest = min(js, key=abs)
        assert min(by_j[weakest]) > 0.7  # near maximally mixed
        assert max(by_j[js[-1]]) < 0.35  # strong antiferromagnetic: cold
        assert all(-1e-9 <= g <= 0.75 + 1e-9 for gs in by_j.values() for g in gs)
        # ferromagnetic side freezes into the triplet manifold instead
        assert max(by_j[js[0]]) < 0.70


class TestBatchedSweep:
    """sweep_columns evaluates chunks of points as one batch; every row
    must equal what evaluate_point, the batch of one, gives for its point."""

    def test_grid_across_chunk_boundaries(self):
        grid = SweepGrid(d_range=(0.0, 3.0, 3), j_range=(-2.0, 2.5, 300),
                         t_range=(0.4, 0.4, 1))
        assert 900 > CHUNK_POINTS
        setup = xz_control_setup()
        cols, errors = sweep_columns(grid, setup)
        assert all(len(col) == 900 for col in cols.values())
        assert errors == {}
        for i in range(900):
            assert _record(cols, i) == _point_or_error(cols, i, setup)

    def test_errors_are_keyed_by_grid_row_across_chunks(self):
        """The second chunk's failed rows are keyed by their rows in the
        grid, not in the chunk: each key's error is its own point's."""
        grid = SweepGrid(d_range=(0.0, 1e308, 2), j_range=(-2.0, 2.5, 300),
                         t_range=(1.0, 1.0, 1))
        assert 300 < CHUNK_POINTS < 600
        setup = xz_control_setup()
        cols, errors = sweep_columns(grid, setup)
        assert sorted(errors) == list(range(300, 600))
        for i in range(600):
            if i in errors:
                assert str(errors[i]) == _point_or_error(cols, i, setup)
            else:
                assert _record(cols, i) == _point_or_error(cols, i, setup)

    def test_failed_point_is_flagged_alone(self):
        grid = SweepGrid(d_range=(0.0, 1e308, 2), j_range=(1.0, 1.0, 1),
                         t_range=(1.0, 1.0, 1))
        setup = xz_control_setup()
        cols, errors = sweep_columns(grid, setup)
        assert list(errors) == [1]
        assert _record(cols, 0) == _point_or_error(cols, 0, setup)
        assert str(errors[1]) == _point_or_error(cols, 1, setup)
        assert np.isnan(cols["gamma"][1]) and np.isnan(cols["u"][1])

    def test_failed_point_columns_are_nan(self):
        """The columns hold a failed point's row as NaN, never the values
        its batch computed for a state it rejected."""
        grid = SweepGrid(d_range=(0.0, 1e308, 2), j_range=(1.0, 1.0, 1),
                         t_range=(1.0, 1.0, 1))
        cols, errors = sweep_columns(grid, xz_control_setup())
        assert list(errors) == [1]
        values = np.array([cols[name] for name in CSV_HEADER[4:]])
        assert np.isnan(values[:, 1]).all() and not np.isnan(values[:, 0]).any()

    @pytest.mark.parametrize("theta", [0.0, math.pi, 2.0 * math.pi])
    def test_theta_column_is_the_setups_at_its_endpoints(self, tmp_path, theta):
        """The theta column, in sweep_columns and as 17-digit text in
        sweep_csv, is the setup's phase, and the standard setup's l_tra is
        1 + cos(theta) there, at theta's endpoints and at pi."""
        grid = SweepGrid(d_range=(0.0, 2.0, 2), j_range=(-1.0, 1.5, 2), t_range=(0.5, 2.0, 2))
        setup = xz_control_setup(theta=theta)
        cols, errors = sweep_columns(grid, setup)
        assert not errors
        assert cols["theta"].tolist() == [setup.theta] * 8
        assert np.abs(cols["l_tra"] - (1.0 + math.cos(theta))).max() <= 1e-10
        path = tmp_path / "theta.csv"
        assert sweep_csv(grid, setup, path) == []
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[CSV_HEADER.index("theta")] for row in rows] == ["%.17g" % setup.theta] * 8
        l_tra = np.array([float(row[CSV_HEADER.index("l_tra")]) for row in rows])
        assert np.abs(l_tra - (1.0 + math.cos(theta))).max() <= 1e-10

    def test_setup_every_point_rejects(self, tmp_path):
        """A setup that cannot be planned on two qubits raises once, from
        the first chunk's qc_vur_batch, as qc_vur does, and before
        sweep_csv opens its destination."""
        grid = SweepGrid(d_range=(0.0, 1.0, 2), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))
        # sigma_x / sigma_z controls on a third qubit, which the model lacks
        setup = MeasurementSetup(pairs=tuple((Observable(m, 0), (Observable(m, 2),))
                                             for m in (SIGMA_X, SIGMA_Z)),
                                 ltra_operator=SIGMA_X + SIGMA_Z, theta=0.5)
        with pytest.raises(SubsystemError, match="out of range"):
            sweep_columns(grid, setup)
        with pytest.raises(SubsystemError, match="out of range"):
            sweep_csv(grid, setup, tmp_path / "none.csv")
        assert not (tmp_path / "none.csv").exists()
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier contents\n")
        with pytest.raises(SubsystemError, match="out of range"):
            sweep_csv(grid, setup, kept)
        assert kept.read_bytes() == b"earlier contents\n"
        with pytest.raises(SubsystemError, match="out of range"):
            evaluate_point(ModelParams(1.0, 1.0, 1.0), setup)


#: range ends at the edges of the model's domain and of the float range
_EDGES = (0.0, -0.0, T_MIN, 1e-9, -1e-9, 1.0, -1.0, MAX / 2, -MAX / 2, MAX, -MAX,
          math.inf, -math.inf, math.nan)
_ONE = (1.0, 1.0, 1)
_NEAR_MAX = ((0.0, MAX, 4), (-MAX / 2, MAX / 2, 4), (T_MIN, MAX, 4))


@st.composite
def _ranges(draw):
    """A (start, stop, steps) range of up to 5 steps whose ends are edge
    values or any finite floats, reversed one time in four; or, half the
    time, the one point 1, so that the other axes' ranges meet an accepted
    grid more often."""
    if draw(st.booleans()):
        return _ONE
    ends = st.one_of(st.sampled_from(_EDGES), st.floats(-MAX, MAX))
    start, stop = sorted([draw(ends), draw(ends)], reverse=draw(st.integers(0, 3)) == 0)
    steps = draw(st.integers(1, 5))
    return (start, start, 1) if steps == 1 else (start, stop, steps)


@seed(20261020)
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_ranges(), _ranges(), _ranges())
@example(_NEAR_MAX[0], _ONE, _ONE)
@example(_ONE, _NEAR_MAX[1], _ONE)
@example(_ONE, _ONE, _NEAR_MAX[2])
@example(_ONE, (-MAX, MAX, 2), _ONE)
def test_every_point_of_an_accepted_grid_is_in_the_model_domain(d_range, j_range, t_range):
    """The Gibbs kernel does not check the model's domain: a grid that
    SweepGrid accepts must hold only valid ModelParams points, with no
    RuntimeWarning (an error under this suite's filter) on the way."""
    try:
        grid = SweepGrid(d_range=d_range, j_range=j_range, t_range=t_range)
    except ValidationError:
        return
    axes = (grid.d_values(), grid.j_values(), grid.t_values())
    for point in itertools.product(*(axis.tolist() for axis in axes)):
        ModelParams(*point)


_couplings = st.builds(lambda m, sign: sign * m, st.floats(1e-9, 1e3),
                       st.sampled_from((-1.0, 1.0)))


def _axis(values):
    values = sorted(values)
    return (values[0], values[-1], len(values))


@st.composite
def _grids(draw):
    """Grids of up to 2 x 2 x 2 points with d in [0, 1e6], 1e-9 <= |j| <= 1e3,
    t in [T_MIN, 1e3] and beta |j| <= 1e3 at every point, each with a
    phase in [0, 2 pi] for its setup."""
    d = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=2, unique=True))
    j = draw(st.lists(_couplings, min_size=1, max_size=2, unique=True))
    t_low = max(T_MIN, max(abs(x) for x in j) / 1e3)
    t = draw(st.lists(st.floats(t_low, 1e3), min_size=1, max_size=2, unique=True))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    return SweepGrid(d_range=_axis(d), j_range=_axis(j), t_range=_axis(t)), theta


@seed(20231018)
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_grids())
def test_batched_records_equal_batch_of_one(grid_theta):
    """Every row equals its batch of one and, where defined, holds the row
    invariants and agrees with the closed forms."""
    grid, theta = grid_theta
    setup = xz_control_setup(theta=theta)
    cols, errors = sweep_columns(grid, setup)
    for i in range(len(cols["d"])):
        expected = _point_or_error(cols, i, setup)
        assert (str(errors[i]) if i in errors else _record(cols, i)) == expected
        if i in errors:
            continue
        rec = _record(cols, i)
        params = ModelParams(rec.d, rec.j, rec.t)
        assert rec.lhs >= rec.w - 1e-9
        assert rec.h_rb + rec.h_sb >= rec.eur_rhs - 1e-9
        assert -1e-9 <= rec.gamma <= 0.75 + 1e-9
        assert abs(rec.gamma - closed_form_mixedness(params)) <= 1e-10
        assert abs(rec.concurrence - closed_form_concurrence(params)) <= 1e-10
        assert abs(rec.l_tra - (1.0 + math.cos(theta))) <= 1e-10


class TestEmitCsv:
    """sweep_csv's file format."""

    def test_single_record_two_lines(self, tmp_path):
        grid = SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))
        rec = evaluate_point(ModelParams(1.0, 1.0, 1.0), xz_control_setup())
        path = tmp_path / "one.csv"
        sweep_csv(grid, xz_control_setup(), path)
        text = path.read_text()
        lines = text.split("\n")
        assert len(lines) == 3 and lines[2] == ""
        assert lines[0] == ",".join(CSV_HEADER)
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER)
        assert float(fields[4]) == rec.gamma  # 17 digits round-trips exactly

    def test_undefined_ratio_is_empty_field(self, tmp_path, monkeypatch):
        """The cold singlet's u_eur is undefined; u is forced undefined."""
        qc_vur_batch = sweep.qc_vur_batch

        def undefined_u(*args):
            vur = qc_vur_batch(*args)
            return dict(vur, u=np.full_like(vur["u"], np.nan))

        monkeypatch.setattr(sweep, "qc_vur_batch", undefined_u)
        grid = SweepGrid(d_range=(0.0, 0.0, 1), j_range=(1.0, 1.0, 1),
                         t_range=(T_MIN, T_MIN, 1))
        path = tmp_path / "none.csv"
        assert sweep_csv(grid, xz_control_setup(), path) == []
        row = path.read_text().split("\n")[1].split(",")
        assert row[CSV_HEADER.index("u")] == ""
        assert row[CSV_HEADER.index("u_eur")] == ""

    def test_rows_are_their_records_fields_byte_for_byte(self, tmp_path):
        """On an 800-point theta = 0 grid whose chunks mix rows with u
        undefined, u_eur undefined, both and neither, every data row is
        the format_value join of its evaluate_point record's fields."""
        grid = SweepGrid(d_range=(0.0, 0.3, 4), j_range=(-1.0, 1.0, 4),
                         t_range=(0.001, 0.05, 50))
        setup = xz_control_setup(theta=0.0)
        path = tmp_path / "ratios.csv"
        assert sweep_csv(grid, setup, path) == []
        points = itertools.product(grid.d_values().tolist(), grid.j_values().tolist(),
                                   grid.t_values().tolist())
        records = [evaluate_point(ModelParams(*p), setup) for p in points]
        undefined = [(rec.u is None, rec.u_eur is None) for rec in records]
        assert [undefined.count(k) for k in ((True, False), (False, True), (True, True))] == \
            [2, 229, 76]
        assert path.read_text().splitlines()[1:] == [
            ",".join(format_value(getattr(rec, name)) for name in CSV_HEADER) for rec in records]

    def test_deterministic_bytes(self, tmp_path):
        grid = SweepGrid(d_range=(0.0, 1.0, 3), j_range=(0.5, 2.0, 3), t_range=(0.5, 2.0, 3))
        setup = xz_control_setup()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_csv(grid, setup, p1)
        sweep_csv(grid, setup, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unix_line_endings(self, tmp_path):
        grid = SweepGrid(d_range=(0.0, 1.0, 2), j_range=(1.0, 1.0, 1), t_range=(1.0, 1.0, 1))
        path = tmp_path / "lf.csv"
        sweep_csv(grid, xz_control_setup(), path)
        assert b"\r" not in path.read_bytes()
        assert path.read_bytes().count(b"\n") == 3


def test_format_value_17_digits():
    assert format_value(None) == ""
    assert format_value(1.0) == "1"
    assert format_value(0.5) == "0.5"
    assert format_value(1e6) == "1000000"
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    x = 0.1234567890123456789
    assert float(format_value(x)) == x  # 17 digits round-trip exactly


class TestMatchMixedness:
    def test_fixed_point(self):
        target = closed_form_mixedness(ModelParams(1.0, 1.0, 1.0))
        t = match_mixedness(1.0, 1.0, target)
        assert abs(t - 1.0) <= 1e-8

    def test_scale_symmetry(self):
        target = closed_form_mixedness(ModelParams(1.0, 1.0, 1.0))
        t = match_mixedness(1.0, 2.0, target)
        assert abs(t - 2.0) <= 1e-8

    def test_unachievable_target(self):
        with pytest.raises(RangeError):
            match_mixedness(1.0, 1.0, 0.9)  # above the 0.75 ceiling

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValidationError, match="finite"):
            match_mixedness(1.0, 1.0, target)

    @pytest.mark.parametrize("d, j, message", [
        (-1.0, 1.0, "^d must be finite and >= 0, got -1.0"),
        (math.nan, 1.0, "^d must be finite and >= 0, got nan"),
        (math.inf, 1.0, "^d must be finite and >= 0, got inf"),
        (1.0, 0.0, "^j must be nonzero and finite, got 0.0"),
        (1.0, math.inf, "^j must be nonzero and finite, got inf"),
        (1.0, -math.inf, "^j must be nonzero and finite, got -inf"),
        (1.0, math.nan, "^j must be nonzero and finite, got nan"),
    ])
    def test_rejects_a_point_outside_the_model_domain(self, d, j, message):
        with pytest.raises(ValidationError, match=message):
            match_mixedness(d, j, 0.3)

    def test_reports_a_non_finite_target_before_the_point(self):
        with pytest.raises(ValidationError, match="^target mixedness must be finite, got nan"):
            match_mixedness(-1.0, 1.0, math.nan)

    def test_matched_gamma_tolerance(self):
        target = 0.42
        t = match_mixedness(0.5, -1.5, target)
        assert abs(closed_form_mixedness(ModelParams(0.5, -1.5, t)) - target) <= 1e-10

    @staticmethod
    def rescaling_cases():
        """(d, j, t, j') of one sign: the ROADMAP's four cases, then seeded
        ones whose exact match t j'/j lies inside the scan."""
        cases = [(2.0, 1.0, 0.1, 0.5), (2.0, 1.0, 0.127, 0.5), (1.0, 1.0, 0.1, 2.0),
                 (0.0, -1.0, 0.1, -0.5)]
        rng = np.random.default_rng(1515)
        while len(cases) < 64:
            sign = rng.choice([-1.0, 1.0])
            d, j, j2 = rng.uniform(0.0, 3.0), sign * rng.uniform(0.3, 3.0), sign * rng.uniform(0.3, 3.0)
            t = abs(j) * 10.0 ** rng.uniform(-1.5, 1.5)
            if 2 * T_MIN < t * j2 / j < 5e3:
                cases.append((d, j, t, j2))
        return cases

    def test_matches_the_exact_rescaled_temperature(self):
        """rho(d, j, t) depends on (d, j/t) only, so the match of a
        coupling j' to the mixedness at (d, j, t) is t j'/j. The match
        holds it to 8 ulps, plus 8 ulps of gamma carried into t through
        the relative slope |t gamma'/gamma|: where gamma is flat, as just
        above the ferromagnetic 2/3 plateau, t is correspondingly loose."""
        eps = np.finfo(float).eps

        def gamma(d, j, t):
            return closed_form_mixedness(ModelParams(d, j, t))

        for d, j, t, j2 in self.rescaling_cases():
            target = gamma(d, j, t)
            exact = t * j2 / j
            slope = abs(gamma(d, j2, exact * (1 + 1e-6))
                        - gamma(d, j2, exact * (1 - 1e-6))) / (2e-6 * target)
            got = match_mixedness(d, j2, target)
            assert abs(got / exact - 1.0) <= 8 * eps * (1.0 + 1.0 / slope), (d, j, t, j2, got)

    def test_tiny_target_on_a_steep_tail(self):
        """The reproducer of the old absolute tolerance, which returned
        T_MIN here because gamma(T_MIN) = 0 was within 1e-10 of the target."""
        t = match_mixedness(2.0, 0.5, 3.5318013206062414e-14)
        assert abs(t - 0.05) <= 5e-14

    @pytest.mark.parametrize("d, j", [(2.0, 0.5), (0.0, -1.0)])
    def test_plateau_target_matches_the_lowest_temperature(self, d, j):
        """gamma is exactly 0 (excited weights underflow) or exactly 2/3
        (cold ferromagnet at d = 0) from T_MIN up: a target on that
        plateau returns T_MIN."""
        target = closed_form_mixedness(ModelParams(d, j, T_MIN))
        assert target == {2.0: 0.0, 0.0: 2.0 / 3.0}[d]
        assert closed_form_mixedness(ModelParams(d, j, 2 * T_MIN)) == target
        assert match_mixedness(d, j, target) == T_MIN

    def test_target_at_a_scan_point_returns_the_first_float_reaching_it(self):
        """Where gamma is flat at rounding level, as near its 3/4 ceiling,
        floats below the scan point reach the target too: the match is the
        lowest of them."""
        ts = np.logspace(np.log10(T_MIN), np.log10(sweep.SCAN_T_MAX), sweep.SCAN_POINTS)
        for k in (40, 90, 150):
            target = closed_form_mixedness(ModelParams(1.0, 1.0, float(ts[k])))
            t = match_mixedness(1.0, 1.0, target)
            assert ts[k - 1] < t <= ts[k]
            assert closed_form_mixedness(ModelParams(1.0, 1.0, t)) == target
            below = np.nextafter(t, 0.0)
            assert closed_form_mixedness(ModelParams(1.0, 1.0, below)) != target

    @pytest.mark.parametrize("d, j", [(1.0, 1e307), (1e308, 1.0), (0.0, -1e307)])
    def test_overflowing_weights_are_zero_without_a_warning(self, d, j):
        """Where |j| height / t overflows on the scan's floats, the weight
        is 0, as in the Gibbs states, and no RuntimeWarning is raised:
        gamma stays on its cold plateau, 0 or (d = 0, j < 0) 2/3, so a
        target off it is out of reach and one on it matches T_MIN."""
        plateau = 2.0 / 3.0 if d == 0.0 else 0.0
        message = (f"gamma = 0.3 not achieved for d = {d}, j = {j}; "
                   f"scan reached [{plateau:.6g}, {plateau:.6g}]")
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            match_mixedness(d, j, 0.3)
        assert match_mixedness(d, j, plateau) == T_MIN

    @pytest.mark.parametrize("target", [1e-170, 1e-300])
    def test_tiny_target_matches_the_first_float_reaching_it(self, target):
        """At (1, 1) gamma rises from 0 to 0.75; between scan points 15 and
        16 it goes from about 3e-311 to 5e-287. A product of two residues
        there underflows to 0, so the scan and the bisection compare their
        signs: the match is the first float reaching the target, or the one
        below it."""
        gamma = _mixedness_of(1.0, 1.0)
        t = match_mixedness(1.0, 1.0, target)
        assert abs(gamma(t) - target) <= sweep.GAMMA_TOL
        assert gamma(np.nextafter(t, 0.0)) < target
        assert max(gamma(t), gamma(np.nextafter(t, np.inf))) >= target  # the bracket closed

    def test_scan_grid_is_the_log_spaced_scan(self):
        """The scan's temperatures are built once, as Python floats, equal
        element by element to the log-spaced grid over [T_MIN, SCAN_T_MAX]."""
        ts = np.logspace(np.log10(T_MIN), np.log10(sweep.SCAN_T_MAX), sweep.SCAN_POINTS)
        assert len(sweep._SCAN_TS) == sweep.SCAN_POINTS
        assert all(type(t) is float for t in sweep._SCAN_TS)
        assert all(a == b for a, b in zip(sweep._SCAN_TS, ts, strict=True))

    @pytest.mark.parametrize("case, expected", [
        ((1.0, 2.0, 0.3), "1.883799229466196"),
        ((0.5, -1.5, 0.42), "0.10215551573656355"),
        ((0.0, -1.0, 2.0 / 3.0), "0.001"),
        ((1.0, 1.0, 1e-300), "0.0034879322793226189"),
    ])
    def test_numpy_scalar_point_matches_as_floats(self, case, expected):
        """A numpy-scalar (d, j) enters the match as floats: the same
        matched temperature, bit for bit, as float arguments."""
        d, j, target = case
        t = match_mixedness(np.float64(d), np.float64(j), target)
        assert type(t) is float
        assert t == float(expected) == match_mixedness(d, j, target)

    @pytest.mark.parametrize("d, j, target", [(1.0, 1e306, 0.3), (0.0, -1e306, 0.6),
                                              (1.0, 1e308, 0.3), (0.0, -1e308, 0.6)])
    def test_numpy_scalar_overflow_raises_no_warning(self, d, j, target):
        """|j| / t overflows on the scan, and at d = 0, j < 0 the zero
        height times that infinite |j| / t is NaN, which the kernel's min
        drops; at 1e308 the far height times |j| overflows too, before the
        scan. On floats each is a weight of 0 with no RuntimeWarning under
        the suite's filter, so the target, off the cold plateau, is out of
        reach."""
        plateau = 2.0 / 3.0 if d == 0.0 else 0.0
        message = (f"gamma = {target} not achieved for d = {d}, j = {j}; "
                   f"scan reached [{plateau:.6g}, {plateau:.6g}]")
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            match_mixedness(np.float64(d), np.float64(j), target)

    @staticmethod
    def _count_scan_evaluations(monkeypatch) -> list:
        """Wraps ``_mixedness_of`` so that every gamma it returns counts its
        evaluations at the scan's temperatures in the list returned, and
        fails unless every temperature it is given is a Python float."""
        scan = set(np.logspace(np.log10(T_MIN), np.log10(sweep.SCAN_T_MAX),
                               sweep.SCAN_POINTS).tolist())
        calls = []
        mixedness_of = sweep._mixedness_of

        def counting(d, j):
            gamma = mixedness_of(d, j)

            def counted(t):
                assert type(t) is float, repr(t)
                if float(t) in scan:
                    calls.append(t)
                return gamma(t)

            return counted

        monkeypatch.setattr(sweep, "_mixedness_of", counting)
        return calls

    @pytest.mark.parametrize("d, j, k", [(0.1, 0.01, 1), (1.0, 1.0, 16), (1.0, 1.0, 90),
                                         (1.0, 1.0, 199)])
    def test_scan_stops_at_the_point_closing_the_bracket(self, monkeypatch, d, j, k):
        ts = np.logspace(np.log10(T_MIN), np.log10(sweep.SCAN_T_MAX), sweep.SCAN_POINTS)
        gamma = _mixedness_of(d, j)
        below, above = gamma(float(ts[k - 1])), gamma(float(ts[k]))
        assert below < above
        calls = self._count_scan_evaluations(monkeypatch)
        t = match_mixedness(d, j, below + 0.5 * (above - below))
        assert ts[k - 1] < t < ts[k]
        assert len(calls) == k + 1

    def test_unreached_target_evaluates_the_whole_scan(self, monkeypatch):
        calls = self._count_scan_evaluations(monkeypatch)
        message = "gamma = 0.9 not achieved for d = 1.0, j = 1.0; scan reached [0, 0.75]"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            match_mixedness(1.0, 1.0, 0.9)
        assert len(calls) == sweep.SCAN_POINTS

    #: (d, j, target) -> repr of the matched temperature, or the RangeError
    #: text. Matching bisects to adjacent floats, so a change to its search
    #: or to its gamma kernel that keeps the numerics keeps every one
    PINNED = [
        ((1.0, 2.0, 0.3), "1.883799229466196"),
        ((1.0, 1.0, 0.33479470938479916), "1.0"),  # gamma at (1, 1, 1)
        ((0.5, -1.5, 0.42), "0.10215551573656355"),
        ((1.0, -1.0, 0.5), "0.29874195065830994"),
        ((2.0, 0.5, 0.0), "0.001"),  # the gamma = 0 plateau from T_MIN
        ((0.0, -1.0, 2.0 / 3.0), "0.001"),  # the cold ferromagnet's 2/3 plateau
        ((2.0, 0.5, 3.5318013206062414e-14), "0.049999999999999996"),
        ((1.0, 1.0, 0.7499), "56.49301061734665"),  # near the 3/4 ceiling
        ((1.0, -2.0, 0.7499), "110.58570881328262"),
        ((1.0, 1.0, 0.5321431614828891), "1.464971398307286"),  # gamma at scan point 90
        ((0.0, -1.0, 0.5), "RangeError: gamma = 0.5 not achieved for d = 0.0, j = -1.0; "
                           "scan reached [0.666667, 0.75]"),
        ((1.0, 1.0, 0.7499999965998086), "9587.392538691875"),  # in the last scan interval
        ((0.1, 0.01, 1.1574441119271892e-08), "0.001"),  # gamma(T_MIN), off any plateau
        ((1.0, 1.0, 0.7499999999), "RangeError: gamma = 0.7499999999 not achieved for d = 1.0, "
                                   "j = 1.0; scan reached [0, 0.75]"),  # above gamma at 1e4
        ((0.1, 0.01, 3e-08), "0.0010498283787484682"),  # first interval, gamma(T_MIN) > 0
    ]

    @pytest.mark.parametrize("case, expected", PINNED)
    def test_matched_temperatures_are_pinned(self, case, expected):
        try:
            got = repr(match_mixedness(*case))
        except RangeError as exc:
            got = f"RangeError: {exc}"
        assert got == expected


class TestCheckSingleValued:
    @pytest.mark.parametrize("j", [math.inf, 0.0, 1.0, -5.0])
    def test_single_sample_is_rejected(self, monkeypatch, j):
        """One coupling has nothing to compare against: a ValidationError
        naming it, before its (d, j) is checked and before any matching."""
        monkeypatch.setattr(sweep, "match_mixedness", None)
        message = f"at least two coupling samples are needed, got [{j!r}]"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_single_valued(1.0, [j], xz_control_setup())
        with pytest.raises(ValidationError, match=r"^at least two coupling samples are needed, got \[\]$"):
            check_single_valued(1.0, [], xz_control_setup())

    def test_same_sign_samples_are_single_valued(self):
        res = check_single_valued(1.0, [0.5, 1.0, 2.0], xz_control_setup(), n_targets=8)
        assert res.w_spread <= 1e-6
        assert res.u_spread <= 1e-6
        assert res.skipped == 0

    @pytest.mark.parametrize("d", [0.0, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spreads_are_at_rounding_level(self, d, sign):
        """Matching to adjacent floats leaves verify's 1e-12 threshold a
        wide margin: rho depends on (d, j/t) only."""
        res = check_single_valued(d, [sign * 0.5, sign * 1.0, sign * 2.0], xz_control_setup(),
                                  n_targets=8)
        assert res.w_spread <= 1e-13 and res.u_spread <= 1e-13 and res.skipped == 0

    def test_mixed_signs_rejected(self):
        with pytest.raises(ValidationError):
            check_single_valued(1.0, [-1.0, 1.0], xz_control_setup())

    @pytest.mark.parametrize("n_targets", [0, -2])
    def test_rejects_fewer_than_one_target(self, n_targets):
        with pytest.raises(ValidationError, match="^n_targets must be >= 1"):
            check_single_valued(1.0, [0.5, 1.0], xz_control_setup(), n_targets=n_targets)
        # the first rule: before the count of couplings is checked
        with pytest.raises(ValidationError, match=f"^n_targets must be >= 1, got {n_targets}$"):
            check_single_valued(1.0, [1.0], xz_control_setup(), n_targets=n_targets)

    @pytest.mark.parametrize("js, repeated", [
        ([1.0, 1.0], [1.0]),
        ([-0.5, -1.0, -0.5], [-0.5]),
        ([2.0, 0.5, 1.0, 0.5, 2.0], [0.5, 2.0]),
    ])
    def test_repeated_couplings_are_rejected(self, monkeypatch, js, repeated):
        """A repeated coupling would be compared with itself at equal
        mixedness, a spread of 0 that shows nothing: a ValidationError
        naming it, before any matching."""
        monkeypatch.setattr(sweep, "match_mixedness", None)
        message = f"coupling samples must be distinct, got {repeated} more than once in {js}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_single_valued(1.0, js, xz_control_setup())

    @pytest.mark.parametrize("j0", [0.005, -0.009999999999999998])
    def test_rejects_a_first_coupling_whose_reference_temperatures_start_below_t_min(
            self, monkeypatch, j0):
        """The reference temperatures run from 0.1 |j0| to 10 |j0|: below
        |j0| = 10 T_MIN the first lies outside the model's domain. The
        coupling is rejected before any matching."""
        monkeypatch.setattr(sweep, "match_mixedness", None)
        message = (f"first coupling j0 = {j0} puts the reference temperatures "
                   f"0.1 |j0| .. 10 |j0| below T_MIN: |j0| must be >= 0.01")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_single_valued(1.0, [j0, 2 * j0], xz_control_setup())

    def test_accepts_a_first_coupling_at_the_limit(self):
        res = check_single_valued(1.0, [0.01, 0.02], xz_control_setup(), n_targets=3)
        assert res.skipped == 0 and res.w_spread <= 1e-13

    @pytest.mark.parametrize("d", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_spreads_equal_a_point_by_point_reference_bit_for_bit(self, d, sign):
        """The one batch of matched points gives, bit for bit, the spreads
        of one qc_vur(thermal_state(...)) per matched sample."""
        js = [sign * 0.5, sign * 1.0, sign * 2.0]
        setup = xz_control_setup()
        w_spread = u_spread = 0.0
        for t_ref in (np.logspace(np.log10(0.1), np.log10(10.0), 20) * abs(js[0])).tolist():
            target = closed_form_mixedness(ModelParams(d, js[0], t_ref))
            ts = [t_ref] + [match_mixedness(d, j, target) for j in js[1:]]
            results = [qc_vur(thermal_state(ModelParams(d, j, t)), setup) for j, t in zip(js, ts)]
            ws = [res.w for res in results]
            us = [res.u for res in results]
            w_spread = max(w_spread, max(ws) - min(ws))
            if None not in us:
                u_spread = max(u_spread, max(us) - min(us))
        res = check_single_valued(d, js, setup)
        assert (res.w_spread, res.u_spread, res.skipped) == (w_spread, u_spread, 0)

    def test_zero_weighting_operator_raises(self):
        setup = MeasurementSetup(pairs=xz_control_setup().pairs, ltra_operator=np.zeros((2, 2)),
                                 theta=0.5)
        with pytest.raises(DegenerateOperator, match="numerically zero"):
            check_single_valued(1.0, [0.5, 1.0], setup, n_targets=3)

    @staticmethod
    def _failing_row(monkeypatch, row: int, error: Exception):
        """Makes one row of every batch fail with ``error``, its w and u
        set far off, as an overflowed state fails in the Gibbs checks."""
        columns = sweep._columns

        def failing(d, j, t, setup, checks):
            cols = columns(d, j, t, setup, checks)
            cols["w"][row] = cols["u"][row] = 1e9
            checks.require(np.arange(len(d)) != row, lambda i: error)
            return cols

        monkeypatch.setattr(sweep, "_columns", failing)

    def test_a_point_failing_with_range_error_skips_its_target(self, monkeypatch):
        """Row 4 is target 1's second sample: its target drops out of both
        spreads and counts in skipped."""
        self._failing_row(monkeypatch, 4, RangeError("Hamiltonian overflowed"))
        res = check_single_valued(1.0, [0.5, 1.0, 2.0], xz_control_setup(), n_targets=4)
        assert res.skipped == 1
        assert res.w_spread <= 1e-13 and res.u_spread <= 1e-13

    def test_u_spread_counts_targets_where_every_u_is_defined(self, monkeypatch):
        """An undefined u (NaN) at row 4 drops target 1 from the u spread
        only; its w still counts, and nothing is skipped."""
        columns = sweep._columns

        def undefined(*args):
            cols = columns(*args)
            cols["u"][4] = np.nan
            return cols

        monkeypatch.setattr(sweep, "_columns", undefined)
        res = check_single_valued(1.0, [0.5, 1.0, 2.0], xz_control_setup(), n_targets=4)
        assert res.skipped == 0
        assert res.w_spread <= 1e-13 and res.u_spread <= 1e-13

    def test_any_other_point_error_is_raised(self, monkeypatch):
        self._failing_row(monkeypatch, 4, ValidationError("forced"))
        with pytest.raises(ValidationError, match="^forced$"):
            check_single_valued(1.0, [0.5, 1.0, 2.0], xz_control_setup(), n_targets=4)

    @pytest.mark.parametrize("d, js", [(1.0, [1e306, 2e306]), (1e308, [1.0, 2.0])])
    def test_comparing_nothing_raises(self, d, js):
        """Every match failing (at |j| = 1e306 gamma stays on its 0 plateau)
        or every state overflowing (d = 1e308) leaves nothing compared."""
        message = (f"no mixedness target could be compared for d = {d}, j = {js}: "
                   "all 4 targets skipped")
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            check_single_valued(d, js, xz_control_setup(), n_targets=4)


def test_chunk_makes_one_solver_call(monkeypatch):
    """One full chunk of a fresh standard setup makes one LAPACK call, the
    concurrence's svd: the Gibbs states and their eigendecompositions come
    from the closed-form eigensystem, and the controls' projectors and the
    measured qubit's spectrum are closed forms too."""
    calls = count_solver_calls(monkeypatch)
    grid = SweepGrid(d_range=(0.0, 3.0, 8), j_range=(-1.9, 1.6, 8), t_range=(T_MIN, 4.0, 8))
    cols, errors = sweep_columns(grid, xz_control_setup())
    assert len(cols["gamma"]) == CHUNK_POINTS and not errors
    assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 1}


def test_matched_point_bound_makes_no_solver_call(monkeypatch):
    """The op of mixedness matching: a matched temperature, then the
    assisted bound on the thermal state there, with a setup already
    planned. The state comes with its closed-form eigendecomposition, so
    the op makes no LAPACK call."""
    setup = xz_control_setup()
    qc_vur(thermal_state(ModelParams(1.0, 1.0, 1.0)), setup)
    calls = count_solver_calls(monkeypatch)
    t = match_mixedness(1.0, -1.5, closed_form_mixedness(ModelParams(1.0, -1.0, 0.7)))
    qc_vur(thermal_state(ModelParams(1.0, -1.5, t)), setup)
    assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}


def test_matching_builds_one_model_point(monkeypatch):
    """Matching checks (d, j) once, through one ModelParams at T_MIN; its
    scan and bisection steps call the closed form's float kernel."""
    target = closed_form_mixedness(ModelParams(1.0, -1.0, 0.7))
    built = []

    def counting(*args):
        built.append(args)
        return ModelParams(*args)

    monkeypatch.setattr(sweep, "ModelParams", counting)
    t = match_mixedness(1.0, -1.5, target)
    assert built == [(1.0, -1.5, T_MIN)]
    assert abs(t / 1.05 - 1.0) <= 1e-12


def test_matching_forms_the_heights_once(monkeypatch):
    """One match builds the weight kernel of its (d, j) once; its scan and
    bisection steps only call the kernel's weights(t)."""
    target = closed_form_mixedness(ModelParams(1.0, -1.0, 0.7))
    built = []
    shifted_weights = model._shifted_weights

    def counting(d, j):
        built.append((d, j))
        return shifted_weights(d, j)

    monkeypatch.setattr(model, "_shifted_weights", counting)
    t = match_mixedness(1.0, -1.5, target)
    assert built == [(1.0, -1.5)]
    assert abs(t / 1.05 - 1.0) <= 1e-12


@pytest.mark.parametrize("d, j", [(0.0, 1.0), (0.0, -1.0), (1.0, 2.0), (0.5, -1.5),
                                  (3.0, 0.25), (0.06, -1.0)])
def test_float_kernel_is_the_public_closed_form_on_the_scan(d, j):
    """At the scan's temperatures the kernel equals closed_form_mixedness
    bit for bit, on numpy scalars and on the floats that the scan and the
    bisection pass."""
    ts = np.logspace(np.log10(T_MIN), np.log10(sweep.SCAN_T_MAX), sweep.SCAN_POINTS)
    assert ts[0] == T_MIN and ts[-1] == sweep.SCAN_T_MAX
    kernel = _mixedness_of(d, j)
    for t in ts:
        gamma = closed_form_mixedness(ModelParams(d, j, t))
        assert kernel(t) == gamma == kernel(float(t)), t


class TestExactLaws:
    """Two exact laws of the thermal states under the standard setup. Both
    marginals are I/2, so each measured variance is 1 and l_tra = 1 +
    cos(theta); the bridge identity then gives w = lhs - (1 - cos(theta)).
    At d = 0 three weights tie at some a, so <zz> = 4a - 1 = +-<xx> and
    gamma = 6a - 12a^2, which make lhs = 8 gamma / 3; and the sigma_x- and
    sigma_z-measured spectra hold the same two values, so h_rb = h_sb."""

    def test_bound_is_lhs_less_one_minus_cos_theta_on_every_preset(self):
        """On the five distinct preset grids (41,205 points), |w - (lhs -
        (1 - cos theta))| measured at most 4.44e-16 (2 eps); the bound is
        4.5e-16."""
        for name in ("fig1a", "fig1b", "fig2", "fig3a", "fig3b"):
            grid, setup = figure_preset(name)
            cols, errors = sweep_columns(grid, setup)
            assert not errors
            law = cols["lhs"] - (1.0 - math.cos(setup.theta))
            assert np.abs(cols["w"] - law).max() <= 4.5e-16, name

    @pytest.mark.parametrize("j_range", [(0.05, 3.0, 60), (-3.0, -0.05, 60)])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_lhs_is_eight_thirds_gamma_at_zero_d(self, j_range, theta):
        """On d = 0 lines of 60 couplings of one sign by 200 temperatures,
        |lhs - 8 gamma / 3| measured at most 1.41e-15 and |w - (8 gamma / 3
        - (1 - cos theta))| at most 1.62e-15; the bounds are 1.5e-15 and
        1.7e-15. The antiferromagnet spans gamma in [0, 3/4], the
        ferromagnet [2/3, 3/4]."""
        grid = SweepGrid(d_range=(0.0, 0.0, 1), j_range=j_range, t_range=(T_MIN, 10.0, 200))
        cols, errors = sweep_columns(grid, xz_control_setup(theta=theta))
        assert not errors
        law = 8.0 * cols["gamma"] / 3.0
        assert np.abs(cols["lhs"] - law).max() <= 1.5e-15
        assert np.abs(cols["w"] - (law - (1.0 - math.cos(theta)))).max() <= 1.7e-15

    @pytest.mark.parametrize("j_range", [(0.05, 3.0, 60), (-3.0, -0.05, 60)])
    def test_entropic_columns_coincide_at_zero_d(self, j_range):
        """With weights (far, |00>, |11>, ground), sigma_x leaves the
        measured pair p = (w0 + w1)/2, q = (w1 + w3)/2 and sigma_z the pair
        w1, m = (w0 + w3)/2. At d = 0 three weights tie, so the pairs hold
        the same two floats and h_rb == h_sb bit for bit on the d = 0 lines
        of 60 couplings of one sign by 200 temperatures."""
        grid = SweepGrid(d_range=(0.0, 0.0, 1), j_range=j_range, t_range=(T_MIN, 10.0, 200))
        cols, errors = sweep_columns(grid, xz_control_setup())
        assert not errors
        assert np.array_equal(cols["h_rb"], cols["h_sb"])


class TestFigurePresets:
    def test_unknown_name_lists_presets(self):
        with pytest.raises(UsageError) as err:
            figure_preset("fig9")
        assert "fig1a" in str(err.value)

    #: the five distinct grids, each under the figures drawn from it
    GRIDS = (("fig1a", "fig4a"), ("fig1b", "fig4b", "fig7a", "fig7b"), ("fig2", "fig5"),
             ("fig3a", "fig6a"), ("fig3b", "fig6b"))

    def test_twelve_names_are_five_grids(self):
        assert sorted(sweep._PRESETS) == sorted(name for names in self.GRIDS for name in names)
        grids = [{figure_preset(name)[0] for name in names} for names in self.GRIDS]
        assert all(len(g) == 1 for g in grids)
        assert len(set.union(*grids)) == 5

    def test_temperature_scan_preset(self):
        grid, setup = figure_preset("fig2")
        assert grid.d_values().tolist() == [1.0]
        assert grid.j_values().tolist() == [1.0]
        assert len(grid.t_values()) == 401
        assert grid.t_values()[0] == T_MIN
        assert setup.theta == 0.5

    def test_map_presets_have_no_zero_coupling(self):
        for name in ("fig1a", "fig1b", "fig4a", "fig4b", "fig7a", "fig7b"):
            grid, _ = figure_preset(name)
            assert np.min(np.abs(grid.j_values())) >= 1e-2
            assert len(grid.d_values()) == 101 and len(grid.j_values()) == 101

    def test_fixed_temperatures(self):
        assert figure_preset("fig1a")[0].t_values().tolist() == [0.5]
        assert figure_preset("fig1b")[0].t_values().tolist() == [1.0]
        assert figure_preset("fig7a")[0].t_values().tolist() == [1.0]

    def test_negative_coupling_presets(self):
        assert figure_preset("fig3b")[0].j_values().tolist() == [-1.0]
        assert figure_preset("fig6b")[0].j_values().tolist() == [-1.0]
        assert figure_preset("fig3a")[0].j_values().tolist() == [1.0]
