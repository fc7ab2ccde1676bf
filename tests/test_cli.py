"""End-to-end command-line behaviour."""
import numpy as np
import pytest

from archvar import CopulaSpec, FamilyId, UniformMargin, var_for_spec
from archvar import cli
from archvar.cli import main

BASE_CONFIG = """\
[model]
family = clayton
theta = 2.0
d = 3
alpha = 0.05

[mc]
n = 4000
replications = 3
h = 1e-3
seed = 11
"""

TABLE_CONFIG = BASE_CONFIG + """
[table1]
families = clayton frank gumbel joe
n = 4000 8000
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestVarCommand:
    def test_report_contains_reference_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "var.csv"
        assert main(["var", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        text = out.read_text()
        assert "0.123961" in text
        assert text.startswith("# command = var")
        assert "component,var,abs_error" in text

    def test_full_precision_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "var.csv"
        main(["var", "--config", cfg, "--out", str(out), "--no-timestamp",
              "--full-precision"])
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        values = [float(r.split(",")[1]) for r in rows]
        lib = var_for_spec(CopulaSpec(FamilyId.CLAYTON, 2.0, 3),
                           [UniformMargin()] * 3, 0.05)
        assert values == [float(c) for c in lib.components]

    def test_target_tau_resolves_theta(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("theta = 2.0", "target_tau = 0.5").replace(
            "family = clayton", "family = gumbel")
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg, "--no-timestamp"]) == 0
        captured = capsys.readouterr()
        assert "theta=2" in captured.out

    def test_amh_dimension_validation_exit_2(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("family = clayton", "family = amh").replace(
            "theta = 2.0", "theta = 0.5")
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 2
        assert "bivariate" in capsys.readouterr().err

    def test_both_theta_and_tau_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "theta = 2.0", "theta = 2.0\ntarget_tau = 0.5"))
        assert main(["var", "--config", cfg]) == 2

    def test_missing_config(self):
        assert main(["var", "--config", "/nonexistent.ini"]) == 2
        assert main(["var"]) == 2

    def test_quadrature_budget_exhaustion_exit_3(self, tmp_path, capsys):
        text = BASE_CONFIG + "\n[quadrature]\nabs_tol = 1e-16\nrel_tol = 1e-16\nmax_subdivisions = 1\n"
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 3
        assert "converge" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["abs_tol = inf", "rel_tol = inf", "abs_tol = nan"])
    def test_non_finite_tolerance_exit_2(self, setting, tmp_path, capsys):
        # abs_tol = inf loaded and silently turned refinement off
        cfg = write_config(tmp_path, BASE_CONFIG + f"\n[quadrature]\n{setting}\n")
        assert main(["var", "--config", cfg]) == 2
        assert "must be a finite real > 0" in capsys.readouterr().err

    def test_roundoff_limited_quadrature_exit_3(self, tmp_path, capsys):
        # Frank theta = 40, d = 3, alpha = 0.5: roundoff keeps the integral
        # from meeting its tolerance, and the quadrature stops early
        text = BASE_CONFIG.replace("family = clayton", "family = frank").replace(
            "theta = 2.0", "theta = 40.0").replace("alpha = 0.05", "alpha = 0.5")
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 3
        assert "roundoff" in capsys.readouterr().err

    def test_underflowed_phi_alpha_exit_3(self, tmp_path, capsys):
        # Frank phi(1 - 1e-6) at theta = 40 rounds to 0 in double precision
        text = BASE_CONFIG.replace("family = clayton", "family = frank").replace(
            "theta = 2.0", "theta = 40.0").replace("alpha = 0.05", "alpha = 0.999999")
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 3
        assert "underflows" in capsys.readouterr().err

    def test_frank_theta_where_expm1_overflows_exit_2(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("family = clayton", "family = frank").replace(
            "theta = 2.0", "theta = -720").replace("d = 3", "d = 2").replace(
            "alpha = 0.05", "alpha = 0.5")
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 2
        assert "expm1(-theta) must be finite" in capsys.readouterr().err

    def test_tabulated_margins_file(self, tmp_path):
        # a dense tabulation of the identity behaves like uniform margins
        levels = np.linspace(0.001, 0.999, 400)
        table = "\n".join(f"{u:.10f},{u:.10f}" for u in levels)
        (tmp_path / "margins.csv").write_text("# level,quantile\n" + table + "\n")
        text = BASE_CONFIG + "\n[margins]\nkind = file\npath = margins.csv\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "var.csv"
        assert main(["var", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        row = [l for l in out.read_text().splitlines() if l.startswith("1,")][0]
        assert abs(float(row.split(",")[1]) - 0.123961) <= 1e-4

    def test_missing_margins_file_exit_2(self, tmp_path, capsys):
        text = BASE_CONFIG + "\n[margins]\nkind = file\npath = nope.csv\n"
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 2
        assert "not found" in capsys.readouterr().err

    def test_non_numeric_value_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("d = 3", "d = three"))
        assert main(["var", "--config", cfg]) == 2
        assert "config error: [model] d = 'three'" in capsys.readouterr().err

    def test_percent_sign_is_a_plain_character(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("alpha = 0.05", "alpha = 5%"))
        assert main(["var", "--config", cfg]) == 2
        assert "[model] alpha = '5%'" in capsys.readouterr().err

    def test_malformed_margins_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "margins.csv").write_text("0.1,0.2\n0.5,abc\n0.9,1.0\n")
        text = BASE_CONFIG + "\n[margins]\nkind = file\npath = margins.csv\n"
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 2
        assert "cannot read margins file" in capsys.readouterr().err

    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["var", "--config", cfg, "--jobs", "2"])
        assert exc.value.code == 2


class TestCalibrateCommand:
    def test_clayton(self, capsys):
        assert main(["calibrate", "clayton", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "clayton,0.5,2.0" in out

    def test_frank(self, capsys):
        assert main(["calibrate", "frank", "0.5"]) == 0
        machine = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("frank,")][0]
        theta = float(machine.split(",")[2])
        assert 5.73 <= theta <= 5.75

    def test_unattainable_tau_exit_2(self, capsys):
        assert main(["calibrate", "gumbel", "1.5"]) == 2
        assert "attainable" in capsys.readouterr().err

    def test_tiny_tau_calibrates(self, capsys):
        # tau = theta/9 near 0; the solve covers theta down to 5e-324
        assert main(["calibrate", "frank", "1e-62"]) == 0
        machine = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("frank,")][0]
        assert float(machine.split(",")[2]) == pytest.approx(9e-62, rel=1e-12)


class TestSampleCommand:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        data = np.loadtxt(a, delimiter=",", comments="#", skiprows=7)
        assert data.shape == (4000, 3)

    def test_invalid_n_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n = 4000", "n = 0"))
        assert main(["sample", "--config", cfg]) == 2

    def test_empty_n_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n = 4000", "n ="))
        assert main(["sample", "--config", cfg]) == 2
        assert "at least one sample size" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["5000.7", "1e30", "4000 5000.7", "9007199254740993", "inf"])
    def test_count_that_is_not_an_exact_integer_exit_2(self, n, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n = 4000", f"n = {n}"))
        assert main(["sample", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: [mc] n = {n!r} is not valid" in captured.err

    def test_sample_too_large_for_memory_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("n = 4000", "n = 9007199254740992"))
        assert main(["sample", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sample of n = 9007199254740992, d = 3 ")

    @pytest.mark.parametrize("section,key,old", [
        ("model", "d", "d = 3"), ("mc", "replications", "replications = 3"),
        ("quadrature", "max_subdivisions", None)])
    def test_every_count_key_is_an_exact_integer(self, section, key, old, tmp_path, capsys):
        def config(value):
            line = f"{key} = {value}"
            text = (BASE_CONFIG.replace(old, line) if old
                    else BASE_CONFIG + f"\n[{section}]\n{line}\n")
            return write_config(tmp_path, text)

        cfg = cli.load_config(config("1e2"))
        got = {"d": cfg.spec.d, "replications": cfg.mc_replications,
               "max_subdivisions": cfg.quad.max_subdivisions}[key]
        assert got == 100 and type(got) is int
        assert main(["sample", "--config", config("3.5")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: [{section}] {key} = '3.5' is not valid" in captured.err

    def test_counts_in_float_notation(self, tmp_path):
        text = BASE_CONFIG.replace("n = 4000", "n = 1e6, 5000.0, 9007199254740992")
        cfg = cli.load_config(write_config(tmp_path, text + "\n[table1]\nn = 2e4\n"))
        assert cfg.mc_n == (1_000_000, 5000, 2 ** 53)
        assert cfg.table1_n == (20_000,)
        assert all(type(n) is int for n in (*cfg.mc_n, *cfg.table1_n))


class TestMcCommand:
    def test_study_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "mc.csv"
        assert main(["mc", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        lines = out.read_text().splitlines()
        assert "n,copula,component,mean,std_dev,bias,rmse,theoretical" in lines
        body = [l for l in lines if l and not l.startswith(("#", "n,"))]
        assert len(body) == 3

    def test_infinite_h_exit_2(self, tmp_path, capsys):
        # h = inf selected every row, and the study reported their mean
        cfg = write_config(tmp_path, BASE_CONFIG.replace("h = 1e-3", "h = inf"))
        assert main(["mc", "--config", cfg]) == 2
        assert "level-set tolerance h must be a finite real > 0" in capsys.readouterr().err

    def test_empty_level_set_exit_4(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("n = 4000", "n = 50").replace("h = 1e-3", "h = 1e-12")
        cfg = write_config(tmp_path, text)
        assert main(["mc", "--config", cfg]) == 4
        assert "level" in capsys.readouterr().err


class TestTable1Command:
    def test_theoretical_column_and_notes(self, tmp_path):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        out = tmp_path / "t1.csv"
        assert main(["table1", "--config", cfg, "--out", str(out),
                     "--no-timestamp", "--full-precision"]) == 0
        text = out.read_text()
        assert "0.432431" in text  # the dependence-calibration inconsistency note
        assert "2.856257" in text
        rows = [l.split(",") for l in text.splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        assert len(rows) == 8
        theo = {r[1]: float(r[6]) for r in rows if r[0] == "4000"}
        assert abs(theo["clayton"] - 0.123961) <= 5e-6
        assert abs(theo["frank"] - 0.237818) <= 5e-6
        assert abs(theo["gumbel"] - 0.251829) <= 5e-6
        assert abs(theo["joe"] - 0.317353) <= 5e-6

    def test_byte_identical_across_jobs(self, tmp_path):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table1", "--config", cfg, "--out", str(a),
                     "--no-timestamp", "--jobs", "1"]) == 0
        assert main(["table1", "--config", cfg, "--out", str(b),
                     "--no-timestamp", "--jobs", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_replication_rows_have_zero_sd(self, tmp_path):
        text = TABLE_CONFIG.replace("replications = 3", "replications = 1")
        text = text.replace("n = 4000 8000", "n = 4000")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "t1.csv"
        assert main(["table1", "--config", cfg, "--out", str(out),
                     "--no-timestamp", "--full-precision"]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_family_aliases_take_default_thetas(self, tmp_path):
        text = TABLE_CONFIG.replace("clayton frank gumbel joe", "clayton gumbel-hougaard")
        text = text.replace("n = 4000 8000", "n = 4000")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "t1.csv"
        assert main(["table1", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        assert [r[1] for r in rows] == ["clayton", "gumbel"]
        assert abs(float(rows[1][6]) - 0.251829) <= 5e-6

    def test_unknown_family_exits_before_any_study(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG.replace(
            "clayton frank gumbel joe", "clayton frank claytn"))
        assert main(["table1", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "claytn" in captured.err

    def test_joe_note_only_for_joe_at_caption_theta(self, tmp_path):
        text = TABLE_CONFIG.replace("clayton frank gumbel joe", "joe clayton\nthetas = 1.5 3")
        text = text.replace("n = 4000 8000", "n = 4000")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "t1.csv"
        assert main(["table1", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        text = out.read_text()
        assert "# note" not in text
        assert [l.split(",")[1] for l in text.splitlines()[-2:]] == ["joe", "clayton"]


@pytest.mark.parametrize("command", ["sample", "mc", "table1"])
def test_denormal_clayton_theta_exit_2(command, tmp_path, capsys):
    # CopulaSpec accepts theta = 1e-310, but its gamma frailty shape 1/theta
    # overflows to inf
    text = BASE_CONFIG.replace("theta = 2.0", "theta = 1e-310") + (
        "\n[table1]\nfamilies = clayton\nthetas = 1e-310\nn = 4000\n")
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg]) == 2
    assert "error: gamma shape must be positive and finite" in capsys.readouterr().err


class TestOutPath:
    @pytest.mark.parametrize("command", ["sample", "mc", "table1", "var"])
    def test_missing_directory_exits_2_before_any_work(self, command, tmp_path, capsys,
                                                       monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(cli, "run_study", no_work)
        monkeypatch.setattr(cli, "sample_copula", no_work)
        monkeypatch.setattr(cli, "var_for_spec", no_work)
        cfg = write_config(tmp_path, TABLE_CONFIG if command == "table1" else BASE_CONFIG)
        out = tmp_path / "missing_dir" / "x.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "missing_dir" in captured.err
        assert not out.parent.exists()

    def test_calibrate_checks_before_solving(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["calibrate", "frank", "0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_directory_as_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_2(jobs, tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["mc", "--config", cfg, "--jobs", jobs]) == 2
    assert "jobs" in capsys.readouterr().err
