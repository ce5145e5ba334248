import pytest

from qurel import verify
from qurel.cli import main
from qurel.sweep import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointCommand:
    def test_prints_key_value_lines(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--d", "1", "--j", "1", "--t", "1")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert set(lines) == set(CSV_HEADER)
        assert abs(float(lines["gamma"]) - 0.334794709384799) <= 1e-12
        assert abs(float(lines["w"]) - 1.0832141844750907) <= 1e-12

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

    @pytest.mark.parametrize("axis,text", [("d", "0:inf:2"), ("d", "nan"), ("t", "1:-inf:3")])
    def test_non_finite_range_exits_one(self, tmp_path, capsys, axis, text):
        ranges = {"d": "0:1:2", "j": "1", "t": "1"}
        ranges[axis] = text
        argv = [x for name, value in ranges.items() for x in (f"--{name}", value)]
        code, _, err = run_cli(capsys, "sweep", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert f"usage error: {axis}_range needs a finite start and stop" in err
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_d_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "point", "--d", "inf", "--j", "1", "--t", "1")
        assert code == 1
        assert "d must be finite" in err


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

    def test_bad_range_syntax_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--d", "0:1", "--j", "1", "--t", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "start:stop:steps" in err


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


class TestCheckSingleValuedCommand:
    def test_same_sign_spreads(self, capsys):
        code, out, _ = run_cli(capsys, "check-single-valued", "--d", "1",
                               "--j", "0.5,1,2", "--targets", "5")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["w_spread"]) <= 1e-6
        assert float(values["u_spread"]) <= 1e-6
        assert values["skipped"] == "0"

    def test_mixed_signs_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "check-single-valued", "--d", "1", "--j=-1,1")
        assert code == 1
        assert "sign" in err

    def test_single_sample_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "check-single-valued", "--d", "1", "--j", "1")
        assert code == 1

    @pytest.mark.parametrize("targets", ["0", "-2"])
    def test_targets_below_one_exit_one(self, capsys, targets):
        code, out, err = run_cli(capsys, "check-single-valued", "--d", "1",
                                 "--j", "0.5,1", "--targets", targets)
        assert code == 1
        assert out == ""
        assert f"usage error: --targets must be >= 1, got {targets}" in err


class TestVerifyCommand:
    def test_failing_check_exits_two(self, monkeypatch, capsys):
        failing = verify.Check("forced failure", False, "stub detail")
        monkeypatch.setattr(verify, "check_tightness_trend", lambda: [failing])
        lines = []
        assert verify.run_all(lines.append) == 2
        assert "  [FAIL] forced failure  (stub detail)" in lines
        assert lines[-1].startswith("FAILURES detected")
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert "[FAIL] forced failure" in out
        assert "FAILURES detected" in out


def test_unknown_command_exits_one(capsys):
    code = main(["frobnicate"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
