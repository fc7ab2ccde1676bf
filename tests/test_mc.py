"""Level-set estimator and replication studies."""
import tracemalloc

import numpy as np
import pytest

from archvar import (
    CopulaSpec,
    EmptyLevelSetError,
    FamilyId,
    McConfig,
    ParameterError,
    QuadratureError,
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
from archvar import mc
from archvar.rng import Workspace

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

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_jobs_do_not_change_results(self, jobs):
        # 16 replications: equal chunks at 2 and 4 workers, unequal at 3
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=20_000, replications=16,
                       h=1e-3, alpha=0.05, seed=Seed(5))
        a = run_study(cfg, jobs=1)
        b = run_study(cfg, jobs=jobs)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std_dev, b.std_dev)
        assert a.mean_selected_count == b.mean_selected_count
        assert a.estimates.tobytes() == b.estimates.tobytes()
        assert a.counts.tolist() == b.counts.tolist()

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

    @pytest.mark.parametrize("h", [np.inf, np.nan, True, -1e-4, "1e-4"])
    def test_h_must_be_finite_positive_real(self, h):
        # h = inf selected every row: at Clayton theta = 2, d = 3, alpha =
        # 0.05 a study "estimated" 0.498 against a VaR of 0.124
        with pytest.raises(ParameterError, match="h must be a finite real > 0"):
            McConfig(spec=CLAYTON3, margins=U3, n=10, replications=1,
                     h=h, alpha=0.05, seed=Seed(0))

    @pytest.mark.parametrize("counts", [dict(n=1e4), dict(replications=2.0), dict(n=True)],
                             ids=("float-n", "float-replications", "bool-n"))
    def test_counts_must_be_integers(self, counts):
        # a float or bool count was accepted, and run_study then raised TypeError
        with pytest.raises(ParameterError, match="integer"):
            McConfig(**{**dict(spec=CLAYTON3, margins=U3, n=10, replications=1,
                               h=1e-4, alpha=0.05, seed=Seed(0)), **counts})

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=10, replications=1,
                       h=1e-4, alpha=0.05, seed=Seed(0))
        with pytest.raises(ParameterError, match="jobs"):
            run_study(cfg, jobs=jobs)

    def test_quadrature_error_before_any_replication(self, monkeypatch):
        # Frank theta = 20, d = 3, alpha = 0.95: the quadrature stops by
        # roundoff, and no replication is drawn first
        def no_blocks(*args):
            raise AssertionError("a replication ran before the quadrature")
        monkeypatch.setattr(mc, "_blocks", no_blocks)
        cfg = McConfig(spec=CopulaSpec(FamilyId.FRANK, 20.0, 3), margins=U3, n=200_000,
                       replications=6, h=1e-3, alpha=0.95, seed=Seed(0))
        with pytest.raises(QuadratureError):
            run_study(cfg)

    def test_non_integer_jobs_rejected(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=10, replications=5,
                       h=1e-4, alpha=0.05, seed=Seed(0))
        with pytest.raises(ParameterError, match="jobs"):
            run_study(cfg, jobs=2.5)


# Table-1 thetas and AMH at 0.3, each at every dimension it allows, and AMH at
# -0.7, which has no frailty law and samples by conditional inversion
RADIAL_SPECS = [CopulaSpec(family, theta, d)
                for family, theta in ((FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                                      (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 2.4))
                for d in (2, 3, 10)]
RADIAL_SPECS += [CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, theta, 2) for theta in (0.3, -0.7)]
# (alpha, h): the acceptance window, an interior one, and windows that reach
# past 1 and below 0
WINDOWS = [(0.05, 1e-4), (0.5, 1e-2), (0.8, 0.25), (0.03, 0.05)]


def u_space_replications(cfg):
    """Each replication's (estimate, count) from a whole sample and copula_cdf."""
    out = []
    for r in range(cfg.replications):
        seed_r = cfg.seed.with_stream(cfg.seed.stream_id + r)
        try:
            out.append(estimate_var_once(sample_copula(cfg.spec, cfg.n, seed_r), cfg.spec,
                                         cfg.alpha, cfg.h, cfg.margins))
        except EmptyLevelSetError:
            pass
    return out


class TestRadialSelection:
    """run_study's streamed radial selection against the u-space oracle."""

    # several blocks, the last one partial
    N = 2 * mc._BLOCK_ROWS + 1234

    @pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"a{w[0]}-h{w[1]}")
    @pytest.mark.parametrize("spec", RADIAL_SPECS,
                             ids=lambda s: f"{s.family.value}{s.theta}-d{s.d}")
    def test_same_rows_as_u_space_selection(self, spec, window):
        alpha, h = window
        cfg = McConfig(spec=spec, margins=[UniformMargin()] * spec.d, n=self.N,
                       replications=2, h=h, alpha=alpha, seed=Seed(8))
        stats = run_study(cfg)
        want = u_space_replications(cfg)
        assert stats.failed_replications == cfg.replications - len(want)
        assert stats.counts.tolist() == [count for _, count in want]
        assert stats.estimates.tobytes() == np.stack([est for est, _ in want]).tobytes()

    def test_margins_map_the_same_rows(self):
        from scipy import special

        from archvar import FunctionMargin

        margins = (UniformMargin(), FunctionMargin(lambda u: np.exp(0.5 * special.ndtri(u))),
                   FunctionMargin(lambda u: u ** 2))
        cfg = McConfig(spec=CLAYTON3, margins=margins, n=self.N, replications=3,
                       h=1e-3, alpha=0.05, seed=Seed(8, 3))
        stats = run_study(cfg)
        want = u_space_replications(cfg)
        assert stats.estimates.tobytes() == np.stack([est for est, _ in want]).tobytes()

    def test_frailty_families_map_only_selected_rows(self, monkeypatch):
        mapped = []

        def no_cdf(*args):
            raise AssertionError("copula_cdf called by a frailty-family study")

        def counting_phi_inverse(spec, s):
            mapped.append(np.size(s))
            return phi_inverse(spec, s)

        monkeypatch.setattr(mc, "copula_cdf", no_cdf)
        monkeypatch.setattr(mc, "phi_inverse", counting_phi_inverse)
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=self.N, replications=2,
                       h=1e-3, alpha=0.05, seed=Seed(8))
        stats = run_study(cfg)
        assert sum(mapped) == 3 * int(stats.counts.sum())

    def test_reused_workspace_keeps_no_stale_values(self):
        # Clayton, then Gumbel in another dimension and size, then Clayton
        # again, all through one workspace: the second Clayton repeats the first
        ws = Workspace(mc._BLOCK_ROWS)
        clayton = McConfig(spec=CLAYTON3, margins=U3, n=self.N, replications=2,
                           h=1e-3, alpha=0.05, seed=Seed(8))
        gumbel = McConfig(spec=CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 5),
                          margins=[UniformMargin()] * 5, n=self.N - 5000, replications=2,
                          h=1e-2, alpha=0.5, seed=Seed(8))
        first, _, again = ([mc._one_replication(cfg, r, ws) for r in range(2)]
                           for cfg in (clayton, gumbel, clayton))
        assert [count for _, count in again] == [count for _, count in first]
        assert all(a.tobytes() == b.tobytes() for (a, _), (b, _) in zip(first, again))
        study = run_study(clayton)
        assert np.stack([est for est, _ in first]).tobytes() == study.estimates.tobytes()

    def test_memory_is_a_few_blocks(self):
        # n = 1e6, d = 3: the whole-sample path allocated about 115 MB here;
        # the streamed study peaks at 4.8 MB (Clayton, whose gamma frailty
        # has the most temporaries), about 19 columns of one block
        block_bytes = 8 * mc._BLOCK_ROWS
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=1_000_000, replications=1,
                       h=1e-4, alpha=0.05, seed=Seed(8))
        tracemalloc.start()
        try:
            run_study(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * block_bytes


class TestStudyRecords:
    def test_per_replication_records(self):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=300, replications=40,
                       h=2e-5, alpha=0.05, seed=Seed(2))
        stats = run_study(cfg)
        kept = cfg.replications - stats.failed_replications
        assert stats.estimates.shape == (kept, 3)
        assert stats.counts.shape == (kept,)
        assert stats.counts.dtype == np.int64
        assert np.all(stats.counts > 0)
        assert stats.mean.tobytes() == stats.estimates.mean(axis=0).tobytes()
        assert stats.mean_selected_count == float(stats.counts.mean())
        for name in ("estimates", "counts"):
            with pytest.raises(ValueError):
                getattr(stats, name)[0] = 0


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
