"""Level-set estimator and replication studies."""
import numpy as np
import pytest

from archvar import (
    CopulaSpec,
    EmptyLevelSetError,
    FamilyId,
    McConfig,
    ParameterError,
    Sample,
    Seed,
    StudyError,
    UniformMargin,
    estimate_var_once,
    phi,
    phi_inverse,
    run_study,
    sample_copula,
    stats_table_rows,
)

U3 = tuple([UniformMargin()] * 3)
U2 = tuple([UniformMargin()] * 2)
CLAYTON3 = CopulaSpec(FamilyId.CLAYTON, 2.0, 3)
CLAYTON2 = CopulaSpec(FamilyId.CLAYTON, 2.0, 2)


def exact_level_sample(alpha=0.05, n=200):
    """Bivariate Clayton rows lying exactly on the copula level curve."""
    u1 = np.linspace(alpha + 1e-6, 1.0 - 1e-6, n)
    u2 = phi_inverse(CLAYTON2, phi(CLAYTON2, alpha) - phi(CLAYTON2, u1))
    return Sample(np.column_stack([u1, u2]), Seed(0), CLAYTON2)


class TestEstimateOnce:
    def test_exact_level_set_selects_everything(self):
        s = exact_level_sample()
        est, count = estimate_var_once(s, CLAYTON2, 0.05, 1e-9, U2)
        assert count == s.rows
        np.testing.assert_allclose(est, s.data.mean(axis=0), atol=1e-14)

    def test_empty_neighborhood_raises(self):
        s = exact_level_sample(alpha=0.5)
        with pytest.raises(EmptyLevelSetError, match="larger h|increase"):
            estimate_var_once(s, CLAYTON2, 0.05, 1e-9, U2)

    def test_fixed_seed_estimate_near_reference(self):
        # one replication at n = 5e4, h = 1e-4; the component average of the
        # estimate sits within three reported-SD units of the analytical value
        s = sample_copula(CLAYTON3, 50_000, Seed(47))
        est, count = estimate_var_once(s, CLAYTON3, 0.05, 1e-4, U3)
        assert count > 0
        assert abs(est.mean() - 0.123961) <= 3.0 * 0.000638

    def test_margins_transform_selected_rows(self):
        s = exact_level_sample()
        doubled = [lambda u: 2.0 * np.asarray(u)] * 2
        est, _ = estimate_var_once(s, CLAYTON2, 0.05, 1e-9, doubled)
        np.testing.assert_allclose(est, 2.0 * s.data.mean(axis=0), atol=1e-14)

    def test_parameter_validation(self):
        s = exact_level_sample()
        with pytest.raises(ParameterError):
            estimate_var_once(s, CLAYTON2, 0.05, 0.0, U2)
        with pytest.raises(ParameterError):
            estimate_var_once(s, CLAYTON2, 1.5, 1e-4, U2)
        with pytest.raises(ParameterError):
            estimate_var_once(s, CLAYTON2, 0.05, 1e-4, U3)


class TestRunStudy:
    def test_single_replication_convention(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=20_000, replications=1,
                       h=1e-3, alpha=0.05, seed=Seed(3))
        stats = run_study(cfg)
        np.testing.assert_array_equal(stats.std_dev, 0.0)
        np.testing.assert_allclose(stats.rmse, stats.bias, atol=1e-16)

    def test_rmse_identity(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=20_000, replications=25,
                       h=1e-3, alpha=0.05, seed=Seed(3))
        stats = run_study(cfg)
        np.testing.assert_allclose(
            stats.rmse ** 2 - stats.bias ** 2, stats.std_dev ** 2, rtol=1e-12
        )

    def test_jobs_do_not_change_results(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=20_000, replications=16,
                       h=1e-3, alpha=0.05, seed=Seed(5))
        a = run_study(cfg, jobs=1)
        b = run_study(cfg, jobs=4)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std_dev, b.std_dev)
        assert a.mean_selected_count == b.mean_selected_count

    def test_component_exchangeability(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=50_000, replications=40,
                       h=1e-3, alpha=0.05, seed=Seed(8))
        stats = run_study(cfg, jobs=4)
        se = stats.std_dev / np.sqrt(cfg.replications)
        spread = stats.mean.max() - stats.mean.min()
        assert spread <= 3.0 * se.max()

    def test_rmse_improves_with_sample_size(self):
        rmse = {}
        for n in (50_000, 100_000):
            cfg = McConfig(spec=CLAYTON3, margins=U3, n=n, replications=60,
                           h=1e-4, alpha=0.05, seed=Seed(0))
            rmse[n] = run_study(cfg, jobs=4).rmse.mean()
        assert rmse[100_000] < rmse[50_000]

    def test_nonuniform_margins_converge_to_quadrature_value(self):
        # squared-level margins couple the sampler, the margin mapping and
        # the analytical integral on a genuinely non-uniform case
        from archvar import FunctionMargin, var_for_spec

        margins = tuple([FunctionMargin(lambda u: u ** 2)] * 3)
        cfg = McConfig(spec=CLAYTON3, margins=margins, n=50_000, replications=30,
                       h=1e-3, alpha=0.05, seed=Seed(12))
        stats = run_study(cfg, jobs=4)
        theo = var_for_spec(CLAYTON3, margins, 0.05).components[0]
        assert stats.theoretical[0] == pytest.approx(theo, abs=1e-10)
        se = stats.std_dev.mean() / np.sqrt(cfg.replications)
        assert abs(stats.mean.mean() - theo) <= 4.0 * se

    def test_selected_count_scales_linearly_in_n(self):
        counts = {}
        for n in (20_000, 80_000):
            cfg = McConfig(spec=CLAYTON3, margins=U3, n=n, replications=30,
                           h=1e-3, alpha=0.05, seed=Seed(1))
            counts[n] = run_study(cfg, jobs=4).mean_selected_count
        ratio = counts[80_000] / counts[20_000]
        assert 0.5 * 4.0 <= ratio <= 2.0 * 4.0

    def test_failed_replications_counted_and_excluded(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=300, replications=40,
                       h=2e-5, alpha=0.05, seed=Seed(2))
        stats = run_study(cfg)
        assert stats.failed_replications > 0
        assert stats.failed_replications < 40
        assert np.all(np.isfinite(stats.mean))

    def test_all_failed_raises_study_error(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=4, replications=5,
                       h=1e-10, alpha=0.05, seed=Seed(2))
        with pytest.raises(StudyError):
            run_study(cfg)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            McConfig(spec=CLAYTON3, margins=U2, n=100, replications=1,
                     h=1e-4, alpha=0.05, seed=Seed(0))
        with pytest.raises(ParameterError):
            McConfig(spec=CLAYTON3, margins=U3, n=0, replications=1,
                     h=1e-4, alpha=0.05, seed=Seed(0))
        with pytest.raises(ParameterError):
            McConfig(spec=CLAYTON3, margins=U3, n=10, replications=1,
                     h=0.0, alpha=0.05, seed=Seed(0))
        with pytest.raises(ParameterError, match="callable"):
            McConfig(spec=CLAYTON3, margins=(U3[0], U3[1], 0.5), n=10, replications=1,
                     h=1e-4, alpha=0.05, seed=Seed(0))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=10, replications=1,
                       h=1e-4, alpha=0.05, seed=Seed(0))
        with pytest.raises(ParameterError, match="jobs"):
            run_study(cfg, jobs=jobs)


class TestSerialization:
    def test_scalar_row_layout(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=20_000, replications=4,
                       h=1e-3, alpha=0.05, seed=Seed(3))
        stats = run_study(cfg)
        (row,) = stats_table_rows(stats, "clayton")
        assert row[0] == 20_000
        assert row[1] == "clayton"
        assert len(row) == 7

    def test_per_component_rows(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=20_000, replications=4,
                       h=1e-3, alpha=0.05, seed=Seed(3))
        stats = run_study(cfg)
        rows = stats_table_rows(stats, "clayton", per_component=True)
        assert len(rows) == 3
        assert [r[2] for r in rows] == [1, 2, 3]
