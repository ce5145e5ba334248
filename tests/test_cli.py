import csv
import hashlib
import itertools
import math
import operator
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qurel import cli, relations, sweep, verify
from qurel.cli import main
from qurel.errors import ArgumentError, QurelError, ValidationError
from qurel.model import T_MIN, ModelParams
from qurel.relations import xz_control_setup
from qurel.states import check_density, mixedness_batch
from qurel.sweep import CSV_HEADER, SweepGrid, evaluate_point

from helpers import csv_gate

DATA = Path(__file__).parent / "data"
#: committed ``qurel sweep --preset P`` outputs, as (file, every how many
#: data rows it keeps, its undefined u_eur fields). fig2 is whole and was
#: written before the entropic bound took its dephased spectra from 2 x 2
#: blocks in closed form; the maps keep every 20th row and were written
#: after it.
REFERENCES = {"fig2": ("fig2.csv", 1, 8),
              "fig1a": ("fig1a_every20.csv", 20, 1),
              "fig1b": ("fig1b_every20.csv", 20, 0),
              "fig3a": ("fig3a_every20.csv", 20, 10),
              "fig3b": ("fig3b_every20.csv", 20, 5)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def batch_of_one(grid, setup) -> list:
    """(CSV fields, warnings, failed) of each grid point in row-major
    order, from evaluate_point: the fields and invariant violations of its
    record or, for a point that raises, its axes and theta with no values
    and the one warning that names its error."""
    oracle = []
    for d, j, t in itertools.product(grid.d_values().tolist(), grid.j_values().tolist(),
                                     grid.t_values().tolist()):
        try:
            rec = evaluate_point(ModelParams(d, j, t), setup)
        except QurelError as exc:
            oracle.append(((d, j, t, setup.theta) + (None,) * (len(CSV_HEADER) - 4),
                           [f"point ({d}, {j}, {t}) failed: {exc}"], True))
        else:
            oracle.append((operator.attrgetter(*CSV_HEADER)(rec), rec.invariant_violations(),
                           False))
    return oracle


class TestPointCommand:
    def test_prints_key_value_lines(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--d", "1", "--j", "1", "--t", "1")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert set(lines) == set(CSV_HEADER)
        assert abs(float(lines["gamma"]) - 0.334794709384799) <= 1e-12
        assert abs(float(lines["w"]) - 1.0832141844750907) <= 1e-12

    def test_hamiltonian_overflow_names_the_point(self, capsys):
        code, _, err = run_cli(capsys, "point", "--d", "1e308", "--j", "1", "--t", "1")
        assert code == 2
        assert "overflowed" in err and "1e+308" in err

    def test_undefined_ratio_prints_empty(self, capsys):
        # the cold antiferromagnetic point is the pure singlet: the
        # entropic bound's denominator is exactly zero there
        code, out, _ = run_cli(capsys, "point", "--d", "0", "--j", "1", "--t", "0.001")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert values["u_eur"] == ""
        assert abs(float(values["h_ab"]) + 1.0) <= 1e-6
        assert float(values["u"]) == 0.0  # defined: w is negative, lhs zero


class TestArgumentDomain:
    """Arguments outside the model's or the setup's domain are usage errors."""

    def test_theta_out_of_range_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "point", "--d", "1", "--j", "1", "--t", "1",
                               "--theta", "7")
        assert code == 1
        assert "usage error" in err and "theta" in err

    def test_sweep_theta_out_of_range_exits_one(self, tmp_path, capsys):
        """The sweep's setup rejects theta = 7 before the file is opened."""
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "--d", "0:1:2", "--j", "1", "--t", "1",
                               "--theta", "7", "--out", str(out))
        assert code == 1
        assert "usage error: theta must lie in [0, 2*pi], got 7.0" in err
        assert not out.exists()

    def test_zero_step_range_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "0:1:0", "--j", "1", "--t", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "usage error" in err and "d_range" in err

    def test_nan_target_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "match-gamma", "--d", "1", "--j", "1",
                               "--target", "nan")
        assert code == 1
        assert "usage error" in err and "finite" in err

    @pytest.mark.parametrize("d, j, message", [("-1", "1", "d must be finite and >= 0, got -1.0"),
                                               ("1", "0", "j must be nonzero and finite, got 0.0")])
    def test_match_gamma_outside_the_model_domain_exits_one(self, capsys, d, j, message):
        code, out, err = run_cli(capsys, "match-gamma", "--d", d, "--j", j, "--target", "0.3")
        assert code == 1 and out == ""
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("axis,text", [("d", "0:inf:2"), ("d", "nan"), ("t", "1:-inf:3")])
    def test_non_finite_range_exits_one(self, tmp_path, capsys, axis, text):
        ranges = {"d": "0:1:2", "j": "1", "t": "1"}
        ranges[axis] = text
        argv = [x for name, value in ranges.items() for x in (f"--{name}", value)]
        code, _, err = run_cli(capsys, "sweep", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert f"usage error: {axis}_range needs a finite start and stop" in err
        assert not (tmp_path / "x.csv").exists()

    def test_overflowing_range_span_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "sweep", "--d", "0:1:2", "--j=-1e308:1e308:2",
                                 "--t", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1 and out == ""
        assert err == ("usage error: j_range's span stop - start overflows, "
                       "from -1e+308 to 1e+308\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("j, coupling", [("-1:1:3", "0.0"), ("1e-10", "1e-10")])
    def test_zero_coupling_names_the_coupling(self, tmp_path, capsys, j, coupling):
        code, out, err = run_cli(capsys, "sweep", "--d", "0:1:2", f"--j={j}", "--t", "1",
                                 "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (1, "")
        assert err == (f"usage error: j_range samples the coupling j = {coupling}; every "
                       f"sampled coupling needs |j| >= 1e-9\n")
        assert not (tmp_path / "x.csv").exists()

    def test_negative_d_range_start_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d=-1:1:3", "--j", "1", "--t", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "usage error: d_range" in err
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_d_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "point", "--d", "inf", "--j", "1", "--t", "1")
        assert code == 1
        assert "d must be finite" in err

    @pytest.mark.parametrize("build", [
        lambda: ModelParams(-1.0, 1.0, 1.0),
        lambda: ModelParams(1.0, 1.0, 0.0),
        lambda: SweepGrid((0.0, 1.0, 0), (1.0, 1.0, 1), (1.0, 1.0, 1)),
        lambda: SweepGrid((0.0, 1.0, 2), (-1.0, 1.0, 3), (1.0, 1.0, 1)),
        lambda: xz_control_setup(theta=7.0),
        lambda: sweep.match_mixedness(1.0, 1.0, math.nan),
        lambda: sweep.match_mixedness(1.0, 0.0, 0.3),
        lambda: sweep.check_single_valued(1.0, [1.0, 1.0], xz_control_setup()),
        lambda: sweep.check_single_valued(1.0, [1.0, 2.0], xz_control_setup(), n_targets=0),
    ])
    def test_every_argument_rule_raises_an_argument_error(self, build):
        """Each argument rule raises ArgumentError, which a library
        caller's ``except ValidationError`` still catches."""
        try:
            build()
        except ValidationError as exc:
            assert type(exc) is ArgumentError
        else:
            pytest.fail("no ValidationError raised")

    @staticmethod
    def _fail_every_density_check(monkeypatch):
        """Makes every reduced measured state of a sweep batch fail the
        density check, a numerical ValidationError, not an argument error."""
        monkeypatch.setattr(relations, "check_density",
                            lambda m, w, checks: check_density(m, w - 1.0, checks))

    def test_numerical_validation_error_exits_two(self, monkeypatch, capsys):
        """A failed density check is a plain ValidationError: exit 2 where
        the command evaluates, with every argument accepted."""
        self._fail_every_density_check(monkeypatch)
        message = "error: density matrix has a negative eigenvalue\n"
        code, out, err = run_cli(capsys, "point", "--d", "1", "--j", "1", "--t", "1")
        assert (code, out, err) == (2, "", message)
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1",
                                 "--j", "0.5,1,2", "--targets", "3")
        assert (code, out, err) == (2, "", message)


class TestSweepCommand:
    def test_explicit_ranges(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, "sweep", "--d", "0:1:2", "--j", "1", "--t",
                               "0.5:2:3", "--out", str(out_path))
        assert code == 0, err
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 1 * 3

    def test_negative_range_start_in_equals_form(self, tmp_path, capsys):
        # after a space, argparse reads "-1.5:1.5:4" as an option
        out_path = tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, "sweep", "--d", "0", "--j=-1.5:1.5:4", "--t", "1",
                               "--out", str(out_path))
        assert code == 0, err
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        j_values = [float(row[CSV_HEADER.index("j")]) for row in rows]
        assert j_values == pytest.approx([-1.5, -0.5, 0.5, 1.5], abs=1e-15)

    def test_preset_and_ranges_conflict(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig2", "--d", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "usage error" in err

    def test_theta_with_preset_exits_one(self, tmp_path, capsys):
        """A preset fixes its own theta: a --theta beside it is refused, not
        silently dropped, and no file is written."""
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig2", "--theta", "1.2",
                               "--out", str(out))
        assert code == 1
        assert "usage error" in err and "--theta" in err
        assert not out.exists()

    def test_unknown_preset_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig99",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "fig1a" in err

    def test_missing_ranges_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_unwritable_destination_exits_three(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "1", "--j", "1", "--t", "1",
                               "--out", str(tmp_path / "no" / "dir" / "x.csv"))
        assert code == 3
        assert "cannot write" in err

    def test_negative_range_start_after_space_hints_equals_form(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "0", "--j", "-1.5:1.5:4", "--t", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "argument --j: expected one argument" in err
        assert "--j=START:STOP:STEPS" in err
        assert not (tmp_path / "x.csv").exists()

    def test_streamed_csv_equals_record_path(self, tmp_path, capsys):
        """The CSV parsed back equals the batch of one's records field for
        field, and the warnings are their invariant violations, across a
        chunk boundary: the d = 1e308 half of the grid is flagged, and the
        d = 0 half has undefined u_eur rows near T_MIN."""
        grid = SweepGrid(d_range=(0.0, 1e308, 2), j_range=(1.0, 1.0, 1),
                         t_range=(T_MIN, 5.0, 300))
        oracle = batch_of_one(grid, xz_control_setup(theta=0.5))
        assert sum(failed for _, _, failed in oracle) == 300
        assert any(not failed and fields[-1] is None for fields, _, failed in oracle)
        out = tmp_path / "streamed.csv"
        code, _, err = run_cli(capsys, "sweep", "--d", "0:1e308:2", "--j", "1",
                               "--t", f"{T_MIN}:5:300", "--out", str(out))
        assert code == 2
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert [tuple(float(x) if x else None for x in row) for row in rows[1:]] == \
            [fields for fields, _, _ in oracle]
        assert err == "".join(f"warning: {msg}\n" for _, messages, _ in oracle
                              for msg in messages)

    def test_streamed_warnings_keep_row_order(self, tmp_path, capsys, monkeypatch):
        """Flagged rows interleave, within one chunk, with rows whose columns
        break an invariant (gamma pushed out of range here); the warnings
        still come in row order, as the batch of one gives them. At d >= 2,
        j = 1e308 overflows the Hamiltonian's entry j d."""
        monkeypatch.setattr(sweep, "mixedness_batch", lambda rho: 1.0 + mixedness_batch(rho))
        grid = SweepGrid(d_range=(2.0, 3.0, 2), j_range=(1.0, 1e308, 2), t_range=(1.0, 1.0, 1))
        oracle = batch_of_one(grid, xz_control_setup(theta=0.5))
        assert [not failed for _, _, failed in oracle] == [True, False, True, False]
        code, _, err = run_cli(capsys, "sweep", "--d", "2:3:2", "--j", "1:1e308:2", "--t", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err == "".join(f"warning: {msg}\n" for _, messages, _ in oracle
                              for msg in messages)
        assert ["outside" in line for line in err.splitlines()] == [True, False, True, False]

    def test_nan_value_prints_nan_and_failed_point_prints_empty(self, tmp_path, capsys,
                                                                 monkeypatch):
        """A row that passed its checks prints a NaN value as nan (here a
        mixedness forced to NaN); the row of a failed point (d = 1e308)
        prints its axes and theta, then an empty field for every value."""
        monkeypatch.setattr(sweep, "mixedness_batch", lambda rho: np.full(len(rho), np.nan))
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "--d", "1:1e308:2", "--j", "1", "--t", "1",
                               "--out", str(out))
        assert code == 2
        assert err.splitlines()[0] == "warning: (1.0, 1.0, 1.0): gamma nan outside [0, 0.75]"
        passed, failed = (row.split(",") for row in out.read_text().splitlines()[1:])
        assert passed[CSV_HEADER.index("gamma")] == "nan"
        assert all(np.isfinite(float(x)) for name, x in zip(CSV_HEADER, passed)
                   if name != "gamma")
        assert failed == ["1e+308", "1", "1", "0.5"] + [""] * (len(CSV_HEADER) - 4)

    def test_map_sweep_memory_is_bounded_by_the_chunk(self, tmp_path, capsys):
        """A 101 x 101 sweep streams its rows: its traced peak stays far
        below the 6.5 MB of holding the grid's records."""
        argv = ["sweep", "--d", "0:3:101", "--j=-2.97:3.03:101", "--t", "1",
                "--out", str(tmp_path / "map.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 3e6

    @pytest.mark.parametrize("preset", REFERENCES)
    def test_preset_agrees_with_reference_csv(self, tmp_path, capsys, preset):
        """The numerics gate against a committed output of the preset (fig2
        reaches beta |J| = 1000): the same empty fields, every value within
        1e-12, and each ratio x within 1e-12 (1 + |x|) / |denominator|."""
        filename, stride, undefined = REFERENCES[preset]
        out = tmp_path / f"{preset}.csv"
        code, _, err = run_cli(capsys, "sweep", "--preset", preset, "--out", str(out))
        assert code == 0, err
        with open(DATA / filename, newline="") as fh:
            reference = list(csv.reader(fh))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == reference[0] == list(CSV_HEADER)
        rows = rows[1::stride]
        assert len(rows) == len(reference) - 1
        assert sum(row[-1] == "" for row in reference) == undefined
        worst = csv_gate(CSV_HEADER, reference[1:], rows)
        assert all(share <= 1.0 for _, share in worst.values()), worst

    def test_alias_presets_write_their_grids_csv(self, tmp_path, capsys):
        """The 12 preset names are 5 grids: every name of one grid writes
        the same bytes."""
        digests = {}
        for name in sorted(sweep._PRESETS):
            out = tmp_path / f"{name}.csv"
            assert run_cli(capsys, "sweep", "--preset", name, "--out", str(out))[0] == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            digests.setdefault(sweep.figure_preset(name)[0], set()).add(digest)
        assert len(digests) == 5
        assert all(len(d) == 1 for d in digests.values())

    def test_range_near_the_float_maximum_exits_two(self, tmp_path, capsys):
        """linspace overflows on the last d only and overwrites it with
        stop, so no RuntimeWarning escapes: the two points whose 2d
        overflows are the sweep's only warnings."""
        path = tmp_path / "nearmax.csv"
        code, out, err = run_cli(capsys, "sweep", "--d=0:1.7976931348623157e308:4", "--j", "1",
                                 "--t", "1", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"warning: point ({d}, 1.0, 1.0) failed: Hamiltonian overflowed at "
            f"ModelParams(d={d}, j=1.0, t=1.0)"
            for d in ("1.1984620899082105e+308", "1.7976931348623157e+308")]
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            "0", "5.9923104495410527e+307", "1.1984620899082105e+308", "1.7976931348623157e+308"]

    def test_bad_range_syntax_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "0:1", "--j", "1", "--t", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "start:stop:steps" in err


def test_csv_gate_reports_each_columns_worst_share(tmp_path):
    """Shares of the 1e-12 gate, scaled for a ratio by (1 + |x|) / |den|; a
    field empty on one side only is an infinite miss. The script prints
    the same table and exits 1 when a share exceeds 1."""
    header = ("d", "w", "u", "eur_rhs", "u_eur")
    old = [["0.5", "2", "1.5", "1", ""], ["1", "0.5", "", "1", "2"]]
    new = [["0.5", "2.0000000000005", "1.5000000000005", "1", ""], ["1", "0.5", "", "1", "2"]]
    worst = csv_gate(header, old, new)
    assert worst["d"] == worst["eur_rhs"] == worst["u_eur"] == (0.0, 0.0)
    assert worst["w"][1] == pytest.approx(0.5, rel=1e-3)
    assert worst["u"][1] == pytest.approx(0.5e-12 / (1e-12 * 2.5 / 2.0), rel=1e-3)
    assert csv_gate(header, old, [old[0], ["1", "0.5", "", "1", ""]])["u_eur"] == (math.inf,) * 2

    script = Path(__file__).parent / "csv_gate.py"
    files = []
    for name, rows in (("old", old), ("new", new), ("bad", [new[0], ["1", "0.5", "2", "1", "2"]])):
        files.append(tmp_path / f"{name}.csv")
        files[-1].write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    passed = subprocess.run([sys.executable, script, files[0], files[1]],
                            capture_output=True, text=True)
    assert passed.returncode == 0, passed.stderr
    assert passed.stdout.split("\n")[0].split() == ["column", "worst", "|delta|", "share", "of",
                                                    "gate"]
    assert [line.split()[0] for line in passed.stdout.strip().split("\n")[1:]] == list(header)
    assert subprocess.run([sys.executable, script, files[0], files[2]],
                          capture_output=True).returncode == 1


class TestMatchGammaCommand:
    def test_reports_matched_temperature(self, capsys):
        code, out, _ = run_cli(capsys, "match-gamma", "--d", "1", "--j", "2",
                               "--target", "0.334794709384799")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert abs(float(values["t"]) - 2.0) <= 1e-7
        assert abs(float(values["gamma"]) - 0.334794709384799) <= 1e-9

    def test_unachievable_target_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "match-gamma", "--d", "1", "--j", "1",
                               "--target", "0.9")
        assert code == 2
        assert "not achieved" in err

    def test_overflowing_weights_exit_two_with_no_warning(self, capsys):
        """|j| height / t overflows on the scan: the weights are 0, so gamma
        stays 0 and the target is out of reach, with no RuntimeWarning."""
        code, out, err = run_cli(capsys, "match-gamma", "--d", "1", "--j", "1e307",
                                 "--target", "0.3")
        assert code == 2
        assert out == ""
        assert err == ("error: gamma = 0.3 not achieved for d = 1.0, j = 1e+307; "
                       "scan reached [0.0, 0.0]\n")

    def test_tiny_target_is_matched(self, capsys):
        """gamma rises from 0 to 0.75 at (1, 1), so 1e-300 is reached, though
        a product of two residues that small underflows to 0."""
        code, out, err = run_cli(capsys, "match-gamma", "--d", "1", "--j", "1",
                                 "--target", "1e-300")
        assert code == 0 and err == ""
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert abs(float(values["gamma"]) - 1e-300) <= sweep.GAMMA_TOL


class TestCheckSingleValuedCommand:
    def test_same_sign_spreads(self, capsys):
        code, out, _ = run_cli(capsys, "check-single-valued", "--d", "1",
                               "--j", "0.5,1,2", "--targets", "5")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["w_spread"]) <= 1e-6
        assert float(values["u_spread"]) <= 1e-6
        assert values["skipped"] == "0"

    def test_overflowing_weights_skip_every_target(self, capsys):
        """At |j| near the float maximum every match overflows to the gamma
        = 0 plateau, so each target is skipped, with no RuntimeWarning: a
        check that compared nothing is a numerical failure, not a pass."""
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1", "--j", "1e306,2e306")
        assert code == 2
        assert out == ""
        assert err == ("error: no mixedness target could be compared for d = 1.0, "
                       "j = [1e+306, 2e+306]: all 20 targets skipped\n")

    def test_overflowing_states_skip_every_target(self, capsys):
        """At d = 1e308 every target matches, on the gamma = 0 plateau, but
        every state's Hamiltonian overflows: each target is skipped."""
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1e308", "--j", "1,2",
                                 "--targets", "4")
        assert code == 2
        assert out == ""
        assert err == ("error: no mixedness target could be compared for d = 1e+308, "
                       "j = [1.0, 2.0]: all 4 targets skipped\n")

    def test_mixed_signs_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "check-single-valued", "--d", "1", "--j=-1,1")
        assert code == 1
        assert "sign" in err

    def test_first_coupling_below_the_limit_exits_one(self, capsys):
        """The reference temperatures start at 0.1 |j0|: 0.0005 here, which
        the user never gave, so the coupling is the usage error."""
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1", "--j", "0.005,0.01")
        assert code == 1
        assert out == ""
        assert err == ("usage error: first coupling j0 = 0.005 puts the reference temperatures "
                       "0.1 |j0| .. 10 |j0| below T_MIN: |j0| must be >= 0.01\n")

    #: the largest first coupling whose 10 |j0| is finite
    J0_MAX = 1.7976931348623158e+307

    @pytest.mark.parametrize("d, j, message", [
        ("1", "1,inf", "j must be nonzero and finite, got inf"),
        ("1", "1,nan", "j must be nonzero and finite, got nan"),
        ("1", "0,1", "j must be nonzero and finite, got 0.0"),
        ("-1", "1,2", "d must be finite and >= 0, got -1.0"),
        ("1", "-1,1", "coupling samples must share one sign, got [-1.0, 1.0]"),
        ("1", "1,1", "coupling samples must be distinct, got [1.0] more than once in [1.0, 1.0]"),
        ("1", "2,0.5,1,0.5,2", "coupling samples must be distinct, got [0.5, 2.0] more than "
                               "once in [2.0, 0.5, 1.0, 0.5, 2.0]"),
        ("1", "1,1,0", "j must be nonzero and finite, got 0.0"),
        ("1", "0.005,0.01", "first coupling j0 = 0.005 puts the reference temperatures "
                            "0.1 |j0| .. 10 |j0| below T_MIN: |j0| must be >= 0.01"),
        ("1", "1e308,2e307", "first coupling j0 = 1e+308 puts the reference temperatures "
                             "0.1 |j0| .. 10 |j0| above the float maximum: 10 |j0| must be "
                             "finite"),
        ("1", f"{math.nextafter(J0_MAX, math.inf)!r},1",
         "first coupling j0 = 1.797693134862316e+307 puts the reference temperatures "
         "0.1 |j0| .. 10 |j0| above the float maximum: 10 |j0| must be finite"),
    ])
    def test_coupling_rules_are_usage_errors(self, capsys, d, j, message):
        """check_single_valued's argument rules, one function for the
        library and the command line: the same message, and exit 1."""
        with pytest.raises(ValidationError) as err:
            sweep._check_couplings(float(d), [float(x) for x in j.split(",")], 20)
        assert str(err.value) == message
        code, out, err = run_cli(capsys, "check-single-valued", f"--d={d}", f"--j={j}")
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_largest_first_coupling_is_accepted(self, capsys):
        """10 |j0| is finite, so every reference temperature is: no
        RuntimeWarning, and every match overflows to gamma = 0."""
        sweep._check_couplings(1.0, [self.J0_MAX, 1e307], 3)
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1",
                                 "--j", f"{self.J0_MAX!r},1e307", "--targets", "3")
        assert (code, out) == (2, "")
        assert err == ("error: no mixedness target could be compared for d = 1.0, "
                       "j = [1.7976931348623158e+307, 1e+307]: all 3 targets skipped\n")

    def test_rules_run_once(self, monkeypatch, capsys):
        """The command leaves every argument rule to check_single_valued,
        which checks them once: one call, counted in every module that
        binds the rules' function."""
        calls = []
        check_couplings = sweep._check_couplings

        def counting(*args):
            calls.append(args)
            return check_couplings(*args)

        for module in (sweep, cli):
            if hasattr(module, "_check_couplings"):
                monkeypatch.setattr(module, "_check_couplings", counting)
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1",
                                 "--j", "0.5,1,2", "--targets", "3")
        assert (code, err) == (0, "")
        assert out.startswith("w_spread=")
        assert calls == [(1.0, [0.5, 1.0, 2.0], 3)]

    def test_single_sample_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1", "--j", "1")
        assert (code, out, err) == \
            (1, "", "usage error: at least two coupling samples are needed, got [1.0]\n")

    @pytest.mark.parametrize("targets", ["0", "-2"])
    def test_targets_below_one_exit_one(self, capsys, targets):
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1",
                                 "--j", "0.5,1", "--targets", targets)
        assert code == 1
        assert out == ""
        assert err == f"usage error: n_targets must be >= 1, got {targets}\n"


class TestVerifyCommand:
    def test_failing_check_exits_two(self, monkeypatch, capsys):
        failing = verify.Check("forced failure", False, "stub detail")
        monkeypatch.setattr(verify, "check_tightness_trend", lambda: [failing])
        assert verify.run_all() == 2
        lines = capsys.readouterr().out.splitlines()
        assert "  [FAIL] forced failure  (stub detail)" in lines
        assert lines[-1].startswith("FAILURES detected")
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert "[FAIL] forced failure" in out
        assert "FAILURES detected" in out

    def test_details_show_the_true_margins(self):
        """On verify's own seed, the nonnegative-terms check reports its
        smallest term and the bound checks their largest excess, each with
        its sign, not a 0 that any margin would print."""
        def values(checks, names):
            by_name = {chk.name: chk.detail for chk in checks}
            return [float(by_name[name].split()[-1]) for name in names]

        rng = [np.random.default_rng((verify.SEED, k)) for k in range(3)]
        min_term, = values(verify.check_conditional(rng[1]), ["decomposition terms nonnegative"])
        assert min_term > 0.0
        excesses = values(verify.check_inequalities(rng[2]),
                          ["additive bound holds (500 random cases)",
                           "product bound holds (500 random cases)",
                           "assisted bound holds on the model grid",
                           "assisted bound holds on random 2-4 qubit cases"])
        assert all(excess < 0.0 for excess in excesses), excesses


def test_unknown_command_exits_one(capsys):
    code = main(["frobnicate"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
