"""Counter-based generator and its distribution samplers."""
import numpy as np
import pytest
from scipy import stats

from archvar import ParameterError, Seed
from archvar import rng


def keys_for(n, seed=Seed(123), label=rng.LABEL_FRAILTY):
    return rng.substream_keys(seed.base_key(), label, np.arange(n, dtype=np.uint64))


def splitmix64_reference(state, count):
    """Sequential SplitMix64 written from its published definition."""
    mask = (1 << 64) - 1
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestCore:
    def test_counter_words_match_sequential_splitmix(self):
        # out(key, i) must equal the i-th output of sequential SplitMix64
        # seeded with the key
        key = 0x0123456789ABCDEF
        expect = splitmix64_reference(key, 5)
        got = rng._words(np.full(5, key, dtype=np.uint64),
                         np.arange(5, dtype=np.uint64))
        assert [int(w) for w in got] == expect
        # scalar counters, which every sampler uses, hash in place
        keys = np.full(3, key, dtype=np.uint64)
        assert [rng._words(keys, i).tolist() for i in range(5)] == [[w] * 3 for w in expect]

    def test_scalar_and_array_counters_agree(self):
        keys = keys_for(7)
        a = rng.uniforms(keys, 3)
        b = rng.uniforms(keys, np.full(7, 3, dtype=np.uint64))
        np.testing.assert_array_equal(a, b)

    def test_uniforms_open_interval_and_deterministic(self):
        keys = keys_for(100_000)
        u = rng.uniforms(keys, 0)
        assert np.all((u > 0.0) & (u < 1.0))
        np.testing.assert_array_equal(u, rng.uniforms(keys_for(100_000), 0))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.001

    def test_streams_differ(self):
        u0 = rng.uniforms(keys_for(1000, Seed(1, 0)), 0)
        u1 = rng.uniforms(keys_for(1000, Seed(1, 1)), 0)
        assert not np.array_equal(u0, u1)

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            Seed(-1)
        with pytest.raises(ParameterError):
            Seed(1 << 64)
        with pytest.raises(ParameterError):
            Seed(1.5)
        assert Seed(3).with_stream(9) == Seed(3, 9)


class TestDistributions:
    def test_exponentials_moments(self):
        e = rng.exponentials(keys_for(200_000), 0)
        assert e.mean() == pytest.approx(1.0, abs=0.01)
        assert e.var() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("shape", [0.5, 2.5])
    def test_gamma_distribution(self, shape):
        g = rng.gammas(keys_for(200_000), shape)
        assert g.mean() == pytest.approx(shape, rel=0.02)
        assert g.var() == pytest.approx(shape, rel=0.03)
        # 1% KS critical value 1.63/sqrt(n); deterministic under the seed
        ks = stats.kstest(g, "gamma", args=(shape,)).statistic
        assert ks * np.sqrt(g.size) < 1.63

    @pytest.mark.parametrize("alpha", [0.5, 1.0 / 2.4])
    def test_positive_stable_laplace_transform(self, alpha):
        v = rng.positive_stables(keys_for(300_000), alpha)
        assert np.all(v > 0.0)
        for s in (0.5, 2.0):
            got = np.mean(np.exp(-s * v))
            assert got == pytest.approx(np.exp(-s ** alpha), abs=5e-3)

    def test_stable_degenerate(self):
        np.testing.assert_array_equal(rng.positive_stables(keys_for(10), 1.0), 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0 / 2.4])
    def test_sibuya_generating_function(self, alpha):
        v = rng.sibuyas(keys_for(300_000), alpha)
        assert np.all(v >= 1.0)
        assert np.mean(v == 1.0) == pytest.approx(alpha, abs=5e-3)
        for s in (0.5, 2.0):
            got = np.mean(np.exp(-s * v))
            expect = 1.0 - (-np.expm1(-s)) ** alpha
            assert got == pytest.approx(expect, abs=5e-3)

    def test_sibuya_degenerate(self):
        np.testing.assert_array_equal(rng.sibuyas(keys_for(10), 1.0), 1.0)

    def test_log_series_distribution(self):
        theta = 5.74
        p = -np.expm1(-theta)
        v = rng.log_series(keys_for(300_000), p)
        assert np.all(v >= 1.0)
        mean_expect = -p / ((1.0 - p) * np.log1p(-p))
        assert v.mean() == pytest.approx(mean_expect, rel=0.02)
        for k in (1, 2, 3):
            pmf = -(p ** k) / (k * np.log1p(-p))
            assert np.mean(v == k) == pytest.approx(pmf, abs=5e-3)

    def test_geometric_distribution(self):
        v = rng.geometrics(keys_for(200_000), 0.3)
        assert v.mean() == pytest.approx(1.0 / 0.3, rel=0.02)
        assert np.mean(v == 1.0) == pytest.approx(0.3, abs=5e-3)
        np.testing.assert_array_equal(rng.geometrics(keys_for(10), 1.0), 1.0)

    @pytest.mark.parametrize("shape", [np.inf, np.nan])
    def test_gamma_rejects_non_finite_shape(self, shape):
        # Clayton at a denormal theta asks for shape 1/theta = inf; no draw
        # is ever accepted there (d (1 - v + log v) is inf * 0 = nan)
        with pytest.raises(ParameterError, match="positive and finite"):
            rng.gammas(keys_for(4), shape)

    def test_parameter_validation(self):
        keys = keys_for(4)
        with pytest.raises(ParameterError):
            rng.gammas(keys, 0.0)
        with pytest.raises(ParameterError):
            rng.positive_stables(keys, 1.2)
        with pytest.raises(ParameterError):
            rng.sibuyas(keys, 0.0)
        with pytest.raises(ParameterError):
            rng.log_series(keys, 1.0)
        with pytest.raises(ParameterError):
            rng.geometrics(keys, 0.0)


# Clayton's gamma shape below and at or above 1; the stable index at 1 and
# below; Sibuya at 1 and near it (Joe theta = 1.001); Frank's log-series at
# theta 0.5, 5.74 and 20; AMH's geometric, with its point mass at 1
WORKSPACE_CASES = [
    ("gammas", 0.5), ("gammas", 1.0), ("gammas", 2.5),
    ("positive_stables", 1.0), ("positive_stables", 0.5),
    ("sibuyas", 1.0), ("sibuyas", 1.0 / 1.001),
    *[("log_series", -np.expm1(-theta)) for theta in (0.5, 5.74, 20.0)],
    ("geometrics", 0.5), ("geometrics", 1.0),
]


def test_reused_workspace_gives_fresh_bits():
    """Each sampler, ``uniforms`` and ``exponentials`` give the bits of a fresh
    call when they draw into one workspace that every other call dirties,
    at sizes below, at and past the workspace's rows."""
    ws = rng.Workspace(1 << 15)
    for n in (1, 7, 1 << 15, (1 << 15) + 1):
        keys = keys_for(n)
        for counter in (0, 5):
            for draw in (rng.uniforms, rng.exponentials):
                got = draw(keys, counter, ws.take("test.out", n), ws)
                assert got.tobytes() == draw(keys, counter).tobytes()
        for name, param in WORKSPACE_CASES + WORKSPACE_CASES[::-1]:
            sampler = getattr(rng, name)
            got = sampler(keys, param, ws.take("test.out", n), ws)
            assert got.tobytes() == sampler(keys, param).tobytes(), (name, param, n)

