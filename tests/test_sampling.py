"""Copula sampling, frailty laws and the rank-correlation diagnostic."""
import numpy as np
import pytest
from scipy import stats

from archvar import (
    CopulaSpec,
    DomainError,
    FamilyId,
    ParameterError,
    Sample,
    Seed,
    copula_cdf,
    empirical_kendall_tau,
    kendall_tau,
    sample_copula,
    sample_frailty,
    write_sample,
)

TABLE_PARAMS = [
    (FamilyId.CLAYTON, 2.0),
    (FamilyId.FRANK, 5.74),
    (FamilyId.GUMBEL_HOUGAARD, 2.0),
    (FamilyId.JOE, 2.4),
]


def grid20():
    pts = [(a, b, c)
           for a in (0.2, 0.4, 0.6, 0.8)
           for b in (0.3, 0.7)
           for c in (0.25, 0.55, 0.85)]
    return np.array(pts[:20])


class TestDeterminism:
    def test_identical_seeds_identical_samples(self):
        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
        a = sample_copula(spec, 2000, Seed(7, 3))
        b = sample_copula(spec, 2000, Seed(7, 3))
        np.testing.assert_array_equal(a.data, b.data)

    def test_distinct_streams_differ_and_decorrelate(self):
        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
        a = sample_copula(spec, 50_000, Seed(7, 0))
        b = sample_copula(spec, 50_000, Seed(7, 1))
        assert not np.array_equal(a.data, b.data)
        interleaved = np.column_stack([a.data[:, 0], b.data[:, 0]])
        assert abs(empirical_kendall_tau(interleaved)) < 0.01

    def test_data_is_immutable(self):
        s = sample_copula(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), 10, Seed(0))
        with pytest.raises(ValueError):
            s.data[0, 0] = 0.5


class TestSampleValidity:
    @pytest.mark.parametrize("family,theta", TABLE_PARAMS, ids=lambda v: str(v))
    def test_pairwise_tau_matches_calibration(self, family, theta):
        spec = CopulaSpec(family, theta, 3)
        s = sample_copula(spec, 100_000, Seed(0))
        target = kendall_tau(spec)
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert abs(empirical_kendall_tau(s, pair) - target) <= 0.01

    @pytest.mark.parametrize("family,theta", TABLE_PARAMS, ids=lambda v: str(v))
    def test_uniform_margins_ks(self, family, theta):
        spec = CopulaSpec(family, theta, 3)
        s = sample_copula(spec, 100_000, Seed(0))
        for col in range(3):
            ks = stats.kstest(s.data[:, col], "uniform").statistic
            assert ks < 1.36 / np.sqrt(s.rows)

    @pytest.mark.parametrize("family,theta", TABLE_PARAMS, ids=lambda v: str(v))
    def test_empirical_copula_matches_cdf(self, family, theta):
        spec = CopulaSpec(family, theta, 3)
        s = sample_copula(spec, 100_000, Seed(0))
        grid = grid20()
        theo = copula_cdf(spec, grid)
        for point, c in zip(grid, theo):
            emp = np.mean(np.all(s.data <= point, axis=1))
            assert abs(emp - c) <= 3.0 * np.sqrt(c * (1.0 - c) / s.rows)

    def test_entries_strictly_inside_unit_interval(self):
        for family, theta in TABLE_PARAMS:
            s = sample_copula(CopulaSpec(family, theta, 3), 50_000, Seed(2))
            assert np.all((s.data > 0.0) & (s.data < 1.0))

    def test_amh_positive_theta(self):
        spec = CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, 0.6, 2)
        s = sample_copula(spec, 100_000, Seed(0))
        assert abs(empirical_kendall_tau(s) - kendall_tau(spec)) <= 0.01

    def test_amh_negative_theta_conditional_inverse(self):
        spec = CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, -0.7, 2)
        s = sample_copula(spec, 100_000, Seed(0))
        assert np.all((s.data > 0.0) & (s.data < 1.0))
        assert abs(empirical_kendall_tau(s) - kendall_tau(spec)) <= 0.01
        grid = np.array([(a, b) for a in (0.2, 0.5, 0.8) for b in (0.3, 0.7)])
        theo = copula_cdf(spec, grid)
        for point, c in zip(grid, theo):
            emp = np.mean(np.all(s.data <= point, axis=1))
            assert abs(emp - c) <= 3.0 * np.sqrt(c * (1.0 - c) / s.rows)

    def test_argument_validation(self):
        spec = CopulaSpec(FamilyId.CLAYTON, 2.0, 2)
        with pytest.raises(ParameterError):
            sample_copula(spec, 0, Seed(0))
        with pytest.raises(DomainError):
            sample_copula(CopulaSpec(FamilyId.FRANK, -2.0, 2), 10, Seed(0))


class TestFrailty:
    def test_clayton_gamma_mean(self):
        v = sample_frailty(FamilyId.CLAYTON, 2.0, Seed(11), 1_000_000)
        assert abs(v.mean() - 0.5) <= 0.005

    def test_degenerate_independence_cases(self):
        np.testing.assert_array_equal(
            sample_frailty(FamilyId.GUMBEL_HOUGAARD, 1.0, Seed(0), 100), 1.0
        )
        np.testing.assert_array_equal(
            sample_frailty(FamilyId.JOE, 1.0, Seed(0), 100), 1.0
        )

    def test_amh_geometric_and_negative_rejected(self):
        v = sample_frailty(FamilyId.ALI_MIKHAIL_HAQ, 0.4, Seed(5), 200_000)
        assert v.mean() == pytest.approx(1.0 / 0.6, rel=0.02)
        with pytest.raises(DomainError):
            sample_frailty(FamilyId.ALI_MIKHAIL_HAQ, -0.4, Seed(5), 10)

    def test_frank_log_series_positive_integers(self):
        v = sample_frailty(FamilyId.FRANK, 5.74, Seed(5), 10_000)
        assert np.all(v >= 1.0)
        assert np.all(v == np.floor(v))


class TestEmpiricalKendallTau:
    def test_comonotone_is_one(self):
        x = np.linspace(0.0, 1.0, 500)
        assert empirical_kendall_tau(np.column_stack([x, x ** 2])) == 1.0

    def test_antimonotone_is_minus_one(self):
        x = np.linspace(0.0, 1.0, 500)
        assert empirical_kendall_tau(np.column_stack([x, -x])) == -1.0

    def test_independent_columns_near_zero(self):
        rng_ = np.random.default_rng(42)
        data = rng_.uniform(size=(100_000, 2))
        assert abs(empirical_kendall_tau(data)) <= 0.01

    def test_matches_scipy_continuous(self):
        rng_ = np.random.default_rng(1)
        data = rng_.normal(size=(3000, 2))
        expect = stats.kendalltau(data[:, 0], data[:, 1]).statistic
        assert empirical_kendall_tau(data) == pytest.approx(expect, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng_ = np.random.default_rng(2)
        data = rng_.integers(0, 12, size=(2000, 2)).astype(float)
        expect = stats.kendalltau(data[:, 0], data[:, 1]).statistic
        assert empirical_kendall_tau(data) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 200])
    @pytest.mark.parametrize("levels", [3, 7, 0])
    def test_matches_brute_force_tau_b(self, n, levels):
        # O(n^2) oracle over all pairs; levels = 0 draws continuous columns
        gen = np.random.default_rng(100 * n + levels)
        if levels:
            data = gen.integers(0, levels, size=(n, 2)).astype(float)
        else:
            data = gen.uniform(size=(n, 2))
        data[:2] = [[-2.0, -1.0], [-1.0, -2.0]]     # no column is constant
        i, j = np.triu_indices(n, 1)
        sx = np.sign(data[i, 0] - data[j, 0])
        sy = np.sign(data[i, 1] - data[j, 1])
        n0 = n * (n - 1) // 2
        untied_x, untied_y = n0 - int(np.sum(sx == 0)), n0 - int(np.sum(sy == 0))
        expect = int(np.sum(sx * sy)) / np.sqrt(float(untied_x) * float(untied_y))
        assert empirical_kendall_tau(data) == expect

    def test_degenerate_column_raises(self):
        data = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(DomainError, match="degenerate"):
            empirical_kendall_tau(data)

    def test_pair_selection(self):
        rng_ = np.random.default_rng(3)
        data = rng_.uniform(size=(500, 3))
        data[:, 2] = data[:, 0]
        assert empirical_kendall_tau(data, (0, 2)) == 1.0


class TestExport:
    def test_round_trip_and_header(self, tmp_path):
        spec = CopulaSpec(FamilyId.JOE, 2.4, 3)
        s = sample_copula(spec, 64, Seed(9, 2))
        out = tmp_path / "sample.csv"
        write_sample(s, out)
        text = out.read_text().splitlines()
        assert text[0] == "# family = joe"
        assert any(line == "# seed = 9" for line in text)
        assert "u1,u2,u3" in text
        back = np.loadtxt(out, delimiter=",", comments="#", skiprows=7)
        np.testing.assert_array_equal(back, s.data)
