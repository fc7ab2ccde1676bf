"""Level-set estimator and replication studies."""
import functools
import tracemalloc

import numpy as np
import pytest
from scipy import special

from archvar import (
    CopulaSpec,
    EmptyLevelSetError,
    FamilyId,
    FunctionMargin,
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
from archvar import mc, rng, sampling
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
        # Clayton theta = 2, d = 10, lognormal margins, alpha = 1 - 1e-6: the
        # quadrature stops by roundoff, and no replication is drawn first
        def no_blocks(*args):
            raise AssertionError("a replication ran before the quadrature")
        monkeypatch.setattr(sampling, "_blocks", no_blocks)
        monkeypatch.setattr(sampling, "_frailty_blocks", no_blocks)
        lognormal = FunctionMargin(lambda u: np.exp(0.5 * special.ndtri(u)))
        cfg = McConfig(spec=CopulaSpec(FamilyId.CLAYTON, 2.0, 10), margins=[lognormal] * 10,
                       n=200_000, replications=6, h=1e-7, alpha=1.0 - 1e-6, seed=Seed(0))
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
# Gumbel and Joe, whose studies draw V only for the rows their bounds leave
# in the window, near independence, past the Table-1 theta and far past it,
# where the samplers' powers leave the normal range on some rows, silently
RADIAL_SPECS += [CopulaSpec(family, theta, d)
                 for family in (FamilyId.GUMBEL_HOUGAARD, FamilyId.JOE)
                 for theta in (1.0001, 6.0, 60.0) for d in (2, 10, 50)]
# (alpha, h): the acceptance window, an interior one, and windows that reach
# past 1 and below 0
WINDOWS = [(0.05, 1e-4), (0.5, 1e-2), (0.8, 0.25), (0.03, 0.05)]


@functools.lru_cache(maxsize=2)
def whole_sample(spec, n, seed):
    """``sample_copula``'s sample, kept for the next window's test."""
    return sample_copula(spec, n, seed)


def u_space_outcomes(cfg):
    """Each replication's (estimate, count) from a whole sample and copula_cdf,
    or ``None`` where no row is selected."""
    out = []
    for r in range(cfg.replications):
        seed_r = cfg.seed.with_stream(cfg.seed.stream_id + r)
        try:
            out.append(estimate_var_once(whole_sample(cfg.spec, cfg.n, seed_r), cfg.spec,
                                         cfg.alpha, cfg.h, cfg.margins))
        except EmptyLevelSetError:
            out.append(None)
    return out


def u_space_replications(cfg):
    """The (estimate, count) of each replication that selects a row."""
    return [out for out in u_space_outcomes(cfg) if out is not None]


class TestRadialSelection:
    """run_study's streamed radial selection against the u-space oracle."""

    # several blocks, the last one partial
    N = 2 * sampling._BLOCK_ROWS + 1234

    @pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"a{w[0]}-h{w[1]}")
    @pytest.mark.parametrize("spec", RADIAL_SPECS,
                             ids=lambda s: f"{s.family.value}{s.theta}-d{s.d}")
    def test_same_rows_as_u_space_selection(self, spec, window):
        alpha, h = window
        cfg = McConfig(spec=spec, margins=[UniformMargin()] * spec.d, n=self.N,
                       replications=2, h=h, alpha=alpha, seed=Seed(8))
        want = u_space_replications(cfg)
        if not want:
            with pytest.raises(StudyError):
                run_study(cfg)
            return
        stats = run_study(cfg)
        assert stats.failed_replications == cfg.replications - len(want)
        assert stats.counts.tolist() == [count for _, count in want]
        assert stats.estimates.tobytes() == np.stack([est for est, _ in want]).tobytes()

    @pytest.mark.parametrize("spec", [CLAYTON3, CopulaSpec(FamilyId.FRANK, 5.74, 10),
                                      CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 3),
                                      CopulaSpec(FamilyId.JOE, 2.4, 50)],
                             ids=lambda s: f"{s.family.value}-d{s.d}")
    def test_rows_on_the_window_ends_are_kept(self, spec):
        # a window [R, R] of each of 64 rows' R: S / V, which the screen
        # compares, rounds differently from R, which the selection compares
        n, base = 4096, Seed(8).base_key()
        ws = Workspace(n)
        _, ekeys, vkeys = next(sampling._frailty_blocks(base, n, ws))
        cols = sampling._quotients(spec.d, ekeys, sampling._latent(spec, vkeys, None, ws), ws)
        r = cols[0] + cols[1]
        for col in cols[2:]:
            r += col
        bounds = sampling._latent_bounds(spec)
        for j in range(64):
            (kept,) = sampling._screened(spec, [base], n, Workspace(n), bounds, r[j], r[j])
            assert kept.shape[0] == np.count_nonzero(r == r[j])

    def test_window_of_every_row_keeps_the_clipped_sample(self, monkeypatch):
        # row 5's first exponential comes from the uniform 1.0, which the
        # generator gives once in 2^53: its E is 0, and its U = phi_inverse(0)
        # is 1, which the clip takes below 1 as sample_copula's does
        base = Seed(8).base_key()
        key = rng.substream_keys(base, rng.LABEL_EXPONENTIAL, np.array([5], dtype=np.uint64))[0]
        words = rng._words

        def one_word(keys, counter, out=None, tmp=None):
            out = words(keys, counter, out, tmp)
            if counter == 0:
                out[keys == key] = np.uint64((2 ** 53 - 1) << 11)
            return out

        monkeypatch.setattr(rng, "_words", one_word)
        n = 1000
        (got,) = sampling._level_set(CLAYTON3, 0.5, 0.6)([base], n)
        want = sample_copula(CLAYTON3, n, Seed(8)).data
        assert got[5, 0] == np.nextafter(1.0, 0.0)
        assert got.tobytes() == want.tobytes()

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

        monkeypatch.setattr(sampling, "copula_cdf", no_cdf)
        monkeypatch.setattr(sampling, "phi_inverse", counting_phi_inverse)
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=self.N, replications=2,
                       h=1e-3, alpha=0.05, seed=Seed(8))
        stats = run_study(cfg)
        assert sum(mapped) == 3 * int(stats.counts.sum())

    def test_reused_workspace_keeps_no_stale_values(self):
        # Clayton, then Gumbel in another dimension and size, then Clayton
        # again, all screened through one workspace: the second Clayton repeats
        # the first
        ws = Workspace(sampling._BLOCK_ROWS)
        clayton = McConfig(spec=CLAYTON3, margins=U3, n=self.N, replications=2,
                           h=1e-3, alpha=0.05, seed=Seed(8))
        gumbel = McConfig(spec=CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 5),
                          margins=[UniformMargin()] * 5, n=self.N - 5000, replications=2,
                          h=1e-2, alpha=0.5, seed=Seed(8))

        def screened(cfg):
            bases = [cfg.seed.with_stream(r).base_key() for r in range(2)]
            window = phi(cfg.spec, cfg.alpha + cfg.h), phi(cfg.spec, cfg.alpha - cfg.h)
            return [(mc._margin_means(rows, cfg.margins), rows.shape[0])
                    for rows in sampling._screened(cfg.spec, bases, cfg.n, ws,
                                                   sampling._latent_bounds(cfg.spec), *window)]

        first, _, again = (screened(cfg) for cfg in (clayton, gumbel, clayton))
        assert [count for _, count in again] == [count for _, count in first]
        assert all(a.tobytes() == b.tobytes() for (a, _), (b, _) in zip(first, again))
        study = run_study(clayton)
        assert np.stack([est for est, _ in first]).tobytes() == study.estimates.tobytes()

    def test_memory_is_a_few_blocks(self):
        # n = 1e6, d = 3: the whole-sample path allocated about 115 MB here;
        # the streamed study peaks at 4.8 MB (Clayton, whose gamma frailty
        # has the most temporaries), about 19 columns of one block
        block_bytes = 8 * sampling._BLOCK_ROWS
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=1_000_000, replications=1,
                       h=1e-4, alpha=0.05, seed=Seed(8))
        tracemalloc.start()
        try:
            run_study(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * block_bytes


@pytest.mark.parametrize("spec", [CLAYTON3, CopulaSpec(FamilyId.JOE, 2.4, 3),
                                  CopulaSpec(FamilyId.GUMBEL_HOUGAARD, 2.0, 10)],
                         ids=lambda s: f"{s.family.value}-d{s.d}")
def test_batches_resolved_early_keep_the_bits(spec, monkeypatch):
    # blocks of 256 rows, and batches cut at 256 candidates: a batch gathers
    # about 50 blocks (629 to 1,414 candidates a replication here) and
    # resolves before the last block, and every bit is kept
    cfg = McConfig(spec=spec, margins=[UniformMargin()] * spec.d,
                   n=TestRadialSelection.N, replications=2, h=1e-2, alpha=0.5, seed=Seed(8))
    want = run_study(cfg)
    resolve, resolved = sampling._resolve, []

    def counting_resolve(*args):
        resolved.append(1)
        return resolve(*args)

    monkeypatch.setattr(sampling, "_BLOCK_ROWS", 256)
    monkeypatch.setattr(sampling, "_resolve", counting_resolve)
    got = run_study(cfg)
    assert len(resolved) > cfg.replications
    assert got.counts.tolist() == want.counts.tolist()
    assert got.estimates.tobytes() == want.estimates.tobytes()


# the Table-1 thetas and AMH on both sides of 0: at -0.7 it has no frailty
# law and draws by conditional inversion
FAMILY_SPECS = [CopulaSpec(family, theta, 3)
                for family, theta in ((FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                                      (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 2.4))]
FAMILY_SPECS += [CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, theta, 2) for theta in (0.3, -0.7)]


@pytest.mark.parametrize("window", [(0.05, 1e-4), (0.8, 0.25)], ids=lambda w: f"a{w[0]}-h{w[1]}")
@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family.value}{s.theta}")
def test_batches_across_replications_keep_the_bits(spec, window, monkeypatch):
    # 12 replications of 1,500 rows in blocks of 256, batches cut at 256
    # candidates: the acceptance window's batches gather several replications,
    # some of which keep no row, and the open window's, where every row is a
    # candidate, cut inside each replication
    alpha, h = window
    cfg = McConfig(spec=spec, margins=[UniformMargin()] * spec.d, n=1500, replications=12,
                   h=h, alpha=alpha, seed=Seed(8))
    want = u_space_outcomes(cfg)
    kept = [r for r, out in enumerate(want) if out is not None]
    if alpha == 0.05:
        assert None in want[kept[0]:kept[-1]]       # no row kept between two that keep rows
    resolve, spans = sampling._resolve, []

    def spanning_resolve(spec, batch, *args):
        spans.append(np.unique(np.concatenate([reps for _, _, reps in batch])).size)
        return resolve(spec, batch, *args)

    monkeypatch.setattr(sampling, "_BLOCK_ROWS", 256)
    monkeypatch.setattr(sampling, "_resolve", spanning_resolve)
    stats = run_study(cfg)
    assert stats.failed_replications == cfg.replications - len(kept)
    assert stats.counts.tolist() == [want[r][1] for r in kept]
    assert stats.estimates.tobytes() == np.stack([want[r][0] for r in kept]).tobytes()
    if spec.theta != -0.7:
        assert max(spans) > 1 if alpha == 0.05 else len(spans) > cfg.replications


@pytest.mark.parametrize("window", [(0.05, 1e-4), (0.8, 0.25)], ids=lambda w: f"a{w[0]}-h{w[1]}")
@pytest.mark.parametrize("spec", [CopulaSpec(FamilyId.JOE, 2.4, 3),
                                  CopulaSpec(FamilyId.ALI_MIKHAIL_HAQ, -0.7, 2)],
                         ids=lambda s: f"{s.family.value}{s.theta}")
def test_batched_draw_is_the_same_at_every_jobs(spec, window, monkeypatch):
    # each worker draws its chunk in one pass, so its batches are cut elsewhere
    alpha, h = window
    monkeypatch.setattr(sampling, "_BLOCK_ROWS", 256)
    cfg = McConfig(spec=spec, margins=[UniformMargin()] * spec.d, n=1500, replications=12,
                   h=h, alpha=alpha, seed=Seed(8))
    first, *others = (run_study(cfg, jobs=jobs) for jobs in (1, 2, 3))
    for got in others:
        assert got.failed_replications == first.failed_replications
        assert got.counts.tolist() == first.counts.tolist()
        assert got.estimates.tobytes() == first.estimates.tobytes()


def test_batched_draw_holds_one_replication():
    # the open window keeps 16 % of each replication's rows, about 250 KB:
    # four replications drawn in one pass peak within 10 % of one, as the
    # draw hands a replication's rows on before it holds the next one's
    def peak(replications):
        cfg = McConfig(spec=CLAYTON3, margins=U3, n=2 * sampling._BLOCK_ROWS + 1234,
                       replications=replications, h=0.25, alpha=0.8, seed=Seed(8))
        tracemalloc.start()
        try:
            run_study(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) <= 1.1 * peak(1)


def test_joe_screen_draws_few_latents(monkeypatch):
    # Joe's two inversion points leave the exact V to draw for under 0.1 % of
    # a Table-1 study's rows (0.071 % at n = 1e6; an interval of them left
    # 5.5 %)
    latent, drawn = sampling._latent, []

    def counting_latent(spec, keys, out, ws):
        drawn.append(keys.shape[0])
        return latent(spec, keys, out, ws)

    monkeypatch.setattr(sampling, "_latent", counting_latent)
    cfg = McConfig(spec=CopulaSpec(FamilyId.JOE, 2.4, 3), margins=U3, n=200_000,
                   replications=1, h=1e-4, alpha=0.05, seed=Seed(8))
    run_study(cfg)
    assert 0 < sum(drawn) <= 1e-3 * cfg.n


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
