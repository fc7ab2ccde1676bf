"""End-to-end command-line behaviour."""
import numpy as np

from archvar import CopulaSpec, FamilyId, UniformMargin, var_for_spec
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

    def test_underflowed_phi_alpha_exit_3(self, tmp_path, capsys):
        # Frank phi(1 - 1e-6) at theta = 40 rounds to 0 in double precision
        text = BASE_CONFIG.replace("family = clayton", "family = frank").replace(
            "theta = 2.0", "theta = 40.0").replace("alpha = 0.05", "alpha = 0.999999")
        cfg = write_config(tmp_path, text)
        assert main(["var", "--config", cfg]) == 3
        assert "underflows" in capsys.readouterr().err

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


class TestMcCommand:
    def test_study_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "mc.csv"
        assert main(["mc", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        lines = out.read_text().splitlines()
        assert "n,copula,component,mean,std_dev,bias,rmse,theoretical" in lines
        body = [l for l in lines if l and not l.startswith(("#", "n,"))]
        assert len(body) == 3

    def test_empty_level_set_exit_4(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("n = 4000", "n = 50").replace("h = 1e-3", "h = 1e-12")
        cfg = write_config(tmp_path, text)
        assert main(["mc", "--config", cfg]) == 4
        assert "level" in capsys.readouterr().err


class TestTable1Command:
    TABLE_CONFIG = BASE_CONFIG + """
[table1]
families = clayton frank gumbel joe
n = 4000 8000
"""

    def test_theoretical_column_and_notes(self, tmp_path):
        cfg = write_config(tmp_path, self.TABLE_CONFIG)
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
        cfg = write_config(tmp_path, self.TABLE_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table1", "--config", cfg, "--out", str(a),
                     "--no-timestamp", "--jobs", "1"]) == 0
        assert main(["table1", "--config", cfg, "--out", str(b),
                     "--no-timestamp", "--jobs", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_replication_rows_have_zero_sd(self, tmp_path):
        text = self.TABLE_CONFIG.replace("replications = 3", "replications = 1")
        text = text.replace("n = 4000 8000", "n = 4000")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "t1.csv"
        assert main(["table1", "--config", cfg, "--out", str(out),
                     "--no-timestamp", "--full-precision"]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        assert all(float(r[3]) == 0.0 for r in rows)
