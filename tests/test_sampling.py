"""Copula sampling, frailty laws and the rank-correlation diagnostic."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from archvar import (
    CopulaSpec,
    DomainError,
    FamilyId,
    McConfig,
    ParameterError,
    Sample,
    Seed,
    UniformMargin,
    copula_cdf,
    empirical_kendall_tau,
    kendall_tau,
    phi_inverse,
    run_study,
    sample_copula,
    sample_frailty,
    theta_from_tau,
    write_sample,
)
from archvar import rng
from archvar.families import _FRANK_FRAILTY_MAX, family_record
from archvar.sampling import _BLOCK_ROWS, _OPEN_HI, _OPEN_LO, _count_inversions

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


def whole_sample(spec, n, seed):
    """All ``n`` rows in one pass of fresh sampler calls, with no blocks."""
    rec = family_record(spec.family)
    rows = np.arange(n, dtype=np.uint64)
    if not rec.frailty_ok(spec.theta):
        data = rec.conditional_rows(spec.theta, seed.base_key(), rows)
    else:
        ekeys, vkeys = rng.substream_keys(
            seed.base_key(), (rng.LABEL_EXPONENTIAL, rng.LABEL_FRAILTY), rows)
        v = rec.frailty(vkeys, spec.theta) * rec.latent_scale(spec.theta)
        data = np.column_stack([phi_inverse(spec, rng.exponentials(ekeys, i) / v)
                                for i in range(spec.d)])
    return np.clip(data, _OPEN_LO, _OPEN_HI)


class TestBlocks:
    @pytest.mark.parametrize("family,theta,d", [
        (FamilyId.CLAYTON, 2.0, 3), (FamilyId.FRANK, 5.74, 3),
        (FamilyId.GUMBEL_HOUGAARD, 2.0, 3), (FamilyId.JOE, 2.4, 3),
        (FamilyId.ALI_MIKHAIL_HAQ, 0.5, 2), (FamilyId.ALI_MIKHAIL_HAQ, -0.7, 2),
    ])
    def test_blocks_keep_the_whole_sample_bits(self, family, theta, d):
        # three blocks, the last one partial
        spec = CopulaSpec(family, theta, d)
        n = 2 * _BLOCK_ROWS + 7
        got = sample_copula(spec, n, Seed(21, 4)).data
        assert got.tobytes() == whole_sample(spec, n, Seed(21, 4)).tobytes()


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

    @pytest.mark.parametrize("n", [2.5, True])
    def test_count_must_be_an_integer(self, n):
        # 2.5 drew 3 variates and True drew 1
        with pytest.raises(ParameterError, match="frailty count"):
            sample_frailty(FamilyId.CLAYTON, 2.0, Seed(1), n)

    def test_frank_frailty_domain_ends_where_its_parameter_rounds_to_one(self):
        assert -np.expm1(-_FRANK_FRAILTY_MAX) < 1.0
        assert -np.expm1(-np.nextafter(_FRANK_FRAILTY_MAX, np.inf)) == 1.0
        v = sample_frailty(FamilyId.FRANK, _FRANK_FRAILTY_MAX, Seed(5), 1000)
        assert np.all(v >= 1.0)
        with pytest.raises(DomainError, match="Frank"):
            sample_frailty(FamilyId.FRANK, np.nextafter(_FRANK_FRAILTY_MAX, np.inf), Seed(5), 10)

    def test_frank_strong_dependence_raises_domain_error(self):
        # tau = 0.9 calibrates to theta = 38.28, past the frailty domain:
        # a typed error, not the log-series sampler's internal one
        theta = theta_from_tau(FamilyId.FRANK, 0.9)
        assert theta == pytest.approx(38.28, abs=0.01)
        spec = CopulaSpec(FamilyId.FRANK, theta, 3)
        with pytest.raises(DomainError, match="Frank"):
            sample_copula(spec, 10, Seed(0))
        cfg = McConfig(spec=spec, margins=[UniformMargin()] * 3, n=100, replications=2,
                       h=1e-2, alpha=0.5, seed=Seed(0))
        with pytest.raises(DomainError, match="Frank"):
            run_study(cfg, jobs=2)

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

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 31, 32, 33, 64, 200, 1000])
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

    def test_matches_scipy_large_ragged(self):
        # 2^17 + 3 rows: 18 merge levels, the last block three rows long
        rng_ = np.random.default_rng(4)
        data = rng_.integers(0, 12, size=(2 ** 17 + 3, 2)).astype(float)
        expect = stats.kendalltau(data[:, 0], data[:, 1]).statistic
        assert empirical_kendall_tau(data) == pytest.approx(expect, abs=1e-12)

    def test_symmetric_and_free_of_row_order(self):
        data = sample_copula(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), 5000, Seed(6)).data
        tau = empirical_kendall_tau(data)
        assert empirical_kendall_tau(data, (1, 0)) == tau
        assert empirical_kendall_tau(data[::-1]) == tau
        perm = np.random.default_rng(6).permutation(data.shape[0])
        assert empirical_kendall_tau(data[perm]) == tau

    def test_infinities_are_ordered_values(self):
        rng_ = np.random.default_rng(7)
        data = rng_.normal(size=(300, 2))
        tau = empirical_kendall_tau(data)
        data[np.argmax(data[:, 0]), 0] = np.inf
        data[np.argmin(data[:, 1]), 1] = -np.inf
        assert empirical_kendall_tau(data) == tau

    @pytest.mark.parametrize("col", [0, 1])
    def test_nan_rejected(self, col):
        data = np.random.default_rng(8).uniform(size=(50, 2))
        data[17, col] = np.nan
        with pytest.raises(ParameterError, match="NaN"):
            empirical_kendall_tau(data)

    @pytest.mark.parametrize("pair", [(0, 2), (-1, 0), (0, 1, 2), 5, None])
    def test_pair_outside_columns_rejected(self, pair):
        data = np.random.default_rng(9).uniform(size=(50, 2))
        with pytest.raises(ParameterError, match="column indices"):
            empirical_kendall_tau(data, pair)

    def test_bool_pair_rejected(self):
        # a bool passed as column 0 and then indexed as a mask
        data = np.random.default_rng(9).uniform(size=(50, 3))
        with pytest.raises(ParameterError, match="column indices"):
            empirical_kendall_tau(data, (False, 2))

    @pytest.mark.parametrize("n", [2 ** 16 - 1, 2 ** 16 + 1, 2 ** 17 + 3])
    def test_tie_heavy_columns_match_scipy_across_key_widths(self, n):
        gen = np.random.default_rng(n)
        x = gen.integers(0, 9, size=n)
        data = np.column_stack([x, x + gen.integers(0, 9, size=n)]).astype(float)
        expect = stats.kendalltau(data[:, 0], data[:, 1]).statistic
        assert empirical_kendall_tau(data) == pytest.approx(expect, abs=1e-12)

    def test_rows_past_the_merge_keys_rejected(self):
        # a zero-stride view: 2^31 rows that take no memory, rejected before
        # any pass over them
        data = np.broadcast_to(np.zeros(2), (2 ** 31, 2))
        with pytest.raises(ParameterError, match="2\\^31 rows"):
            empirical_kendall_tau(data)

    def test_peak_allocation_of_one_tau(self):
        # six int64 columns; the count that built fresh arrays at each level
        # peaked at 8.8
        n = 100_000
        data = sample_copula(CopulaSpec(FamilyId.CLAYTON, 2.0, 2), n, Seed(3)).data
        tracemalloc.start()
        try:
            empirical_kendall_tau(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * n


def _brute_inversions(ranks):
    i, j = np.triu_indices(ranks.shape[0], 1)
    return int(np.sum(ranks[i] > ranks[j]))


@st.composite
def _tied_ranks(draw, tail):
    """int64 ranks of length at most 300 and ``tail`` mod 8 (the keys past the
    count's 8-key first pass), taking 1 to n distinct levels."""
    n = 8 * draw(st.integers(0, (300 - tail) // 8)) + tail
    levels = draw(st.integers(1, max(n, 1)))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    return np.array(values, dtype=np.int64)


class TestCountInversions:
    @pytest.mark.parametrize("tail", range(8))
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_matches_brute_force_on_any_ranks(self, tail, data):
        ranks = data.draw(_tied_ranks(tail))
        assert _count_inversions(ranks) == _brute_inversions(ranks)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 1000])
    def test_sorted_reversed_and_equal(self, n):
        up = np.arange(n)
        assert _count_inversions(up) == 0
        assert _count_inversions(up[::-1].copy()) == n * (n - 1) // 2
        assert _count_inversions(np.zeros(n, dtype=np.int64)) == 0

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 1000])
    @pytest.mark.parametrize("levels", [2, 5])
    def test_tie_heavy_matches_brute_force(self, n, levels):
        ranks = np.random.default_rng(10 * n + levels).integers(0, levels, size=n)
        assert _count_inversions(ranks) == _brute_inversions(ranks)

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 1000])
    def test_permutation_matches_brute_force(self, n):
        ranks = np.random.default_rng(n).permutation(n)
        assert _count_inversions(ranks) == _brute_inversions(ranks)

    # every n from 2 to 70: each shape of the short last row at every level
    @pytest.mark.parametrize("n", range(2, 71))
    def test_every_short_length_matches_brute_force(self, n):
        gen = np.random.default_rng(1000 + n)
        for ranks in (gen.permutation(n), np.arange(n)[::-1].copy(),
                      np.zeros(n, dtype=np.int64), gen.integers(0, 3, size=n)):
            assert _count_inversions(ranks) == _brute_inversions(ranks)

    # the first merge level's keys fit in 32 bits up to 2^16 rows, not above
    @pytest.mark.parametrize("n", [2 ** 16 - 1, 2 ** 16 + 1, 2 ** 17 + 3])
    @pytest.mark.parametrize("kind", ["sorted", "reversed", "equal", "ties"])
    def test_matches_scipy_across_key_widths(self, n, kind):
        gen = np.random.default_rng(n)
        ranks = {"sorted": np.arange(n), "reversed": np.arange(n)[::-1].copy(),
                 "equal": np.zeros(n, dtype=np.int64),
                 "ties": gen.integers(0, 7, size=n)}[kind]
        n0 = n * (n - 1) // 2
        tied = sum(c * (c - 1) // 2 for c in np.unique(ranks, return_counts=True)[1].tolist())
        found = _count_inversions(ranks)
        if kind == "equal":
            assert found == 0
            return
        # with x = row index untied, tau-b = (n0 - tied - 2 * discordant) / sqrt(n0 (n0 - tied))
        data = np.column_stack([np.arange(n), ranks]).astype(float)
        expect = stats.kendalltau(data[:, 0], data[:, 1]).statistic
        assert empirical_kendall_tau(data) == pytest.approx(expect, abs=1e-12)
        root = np.sqrt(float(n0) * float(n0 - tied))
        assert found == round((n0 - tied - expect * root) / 2)
        if kind != "ties":
            assert found == (0 if kind == "sorted" else n0)


class TestMemory:
    @pytest.mark.parametrize("d", [3, 128])
    def test_sample_too_large_for_memory_is_a_parameter_error(self, d):
        # 2^53 rows: numpy raises MemoryError at d = 3 and, past the largest
        # array size, ValueError at d = 128
        with pytest.raises(ParameterError, match=f"n = {2 ** 53}, d = {d} does not fit"):
            sample_copula(CopulaSpec(FamilyId.CLAYTON, 2.0, d), 2 ** 53, Seed(0))


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
