"""Counter-based generator and its distribution samplers."""
import warnings

import numpy as np
import pytest
from scipy import stats

from archvar import FamilyId, ParameterError, Seed
from archvar import rng
from archvar.families import FAMILIES


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

    def test_uniforms_of_chosen_words(self, monkeypatch):
        # the int64 cast plus one half against the Python-int formula, at the
        # ends of the shifted word's binades; the last is the documented 1.0
        shifted = [0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1]
        words = [s << 11 | low for s in shifted for low in (0, 0x7FF)]

        def chosen_words(keys, counter, out=None, tmp=None):
            out[:] = words
            return out

        monkeypatch.setattr(rng, "_words", chosen_words)
        got = rng.uniforms(np.zeros(len(words), dtype=np.uint64), 0)
        assert got.tolist() == [((w >> 11) + 0.5) * 2 ** -53 for w in words]
        assert got[-1] == 1.0 and got[-3] < 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0 / 60.0])
    def test_uniform_of_one_draws_no_warning(self, monkeypatch, alpha):
        # the first key's word at one counter shifts to 2^53 - 1, whose
        # uniform is 1.0; only that counter, or gammas would reject forever
        words = rng._words

        def one_word_at(counter):
            def patched(keys, c, out=None, tmp=None):
                out = words(keys, c, out, tmp)
                if c == counter:
                    out[0] = np.uint64((2 ** 53 - 1) << 11)
                return out
            monkeypatch.setattr(rng, "_words", patched)

        keys = keys_for(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_word_at(0)
            assert rng.uniforms(keys, 0)[0] == 1.0
            e = rng.exponentials(keys, 0)
            assert e[0] == 0.0 and not np.signbit(e[0])
            sib = rng.sibuyas(keys, alpha)
            one_word_at(1)                  # positive_stables' E
            stable = rng.positive_stables(keys, alpha)
        for v in (sib, stable):
            assert v[0] == np.inf and np.isfinite(v[1:]).all()

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

    # rows of Seed(0)'s frailty stream at Gumbel theta = 60 where a factor of
    # Kanter's form leaves the normal range: the direct product gave NaN (T
    # near 0), inf (T near 0, near pi and inside) or lost digits to a
    # denormal (the sixth); the last two are above the largest double
    KANTER_ROWS = (470554, 2438307, 1399705, 1072652, 2254206, 3569949, 366429, 2172204)

    def test_positive_stable_edge_rows_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        alpha = 1.0 / 60.0
        keys = rng.substream_keys(Seed(0).base_key(), rng.LABEL_FRAILTY,
                                  np.array(self.KANTER_ROWS, dtype=np.uint64))
        got = rng.positive_stables(keys, alpha)
        t = rng.uniforms(keys, 0) * np.pi
        e = -np.log(rng.uniforms(keys, 1))
        with np.errstate(all="ignore"):
            direct = (np.sin(alpha * t) / np.sin(t) ** (1.0 / alpha)
                      * (np.sin((1.0 - alpha) * t) / e) ** ((1.0 - alpha) / alpha))
        big = 0
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            for v, naive, ti, ei in zip(got, direct, t, e):
                T, E = mpmath.mpf(ti), mpmath.mpf(ei)
                want = (mpmath.sin(a * T) * mpmath.sin((1 - a) * T) ** ((1 - a) / a)
                        / (mpmath.sin(T) ** (1 / a) * E ** ((1 - a) / a)))
                if want > np.finfo(float).max:
                    assert v == np.inf
                    big += 1
                else:
                    assert abs(v - want) <= 1e-12 * want
                    assert not abs(naive - want) <= 1e-6 * want
        assert big == 2

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

    def test_sibuya_inverts_at_an_exact_tie(self, monkeypatch):
        # at alpha = 1/2 the survival P(V > n) = C(2n, n) / 4^n is dyadic, so
        # u = 1 - P(V > 2) = 0.625 is F(2) exactly, and inversion's
        # min{n : F(n) >= u} is 2; a row just past it is 3, and one at alpha 1
        u = np.array([0.625, np.nextafter(0.625, 1.0), 0.5])

        def fixed_uniforms(keys, counter, out=None, ws=None):
            out = np.empty(keys.shape[0]) if out is None else out
            out[:] = u
            return out

        monkeypatch.setattr(rng, "uniforms", fixed_uniforms)
        assert rng.sibuyas(np.zeros(3, dtype=np.uint64), 0.5).tolist() == [2.0, 3.0, 1.0]

    @pytest.mark.parametrize("alpha", [1.0 / 1.001, 0.5, 1.0 / 60.0])
    def test_sibuya_points_are_one_twice_up_to_alpha(self, alpha):
        # V = 1 wherever u <= alpha, so both points are 1 there, though the
        # inverse's ceiling is 2 on some of those rows
        u = np.linspace(0.0, alpha, 1001)[1:]
        (lo, _), (hi, _) = rng.sibuya_points(u, alpha, rng.Workspace(0))
        assert (lo == 1.0).all() and (hi == 1.0).all()

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



# theta = 1 + 2^-40 makes Kanter's K nearly flat, so that a cell's neighbours
# bound it no wider than the sampler's rounding
BOUND_THETAS = (1.0, 1.0 + 2.0 ** -40, 1.0001, 1.05, 2.0, 6.0, 60.0)
# the least uniform, (0 + 0.5) 2^-53, the largest ones below 1, and 1, which
# (2^53 - 1 + 0.5) 2^-53 rounds to
EXTREMES = (2.0 ** -54, 3.0 * 2.0 ** -54, 2.0 ** -20, 0.5, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -52,
            1.0 - 2.0 ** -53, 1.0)
EDGES = np.arange(rng._CELLS) / rng._CELLS


def held_latents(family, theta, keys):
    """Whether each key's drawn latent lies in one of its bounds pairs, and
    whether one of its pairs has an end at 0, inf or NaN."""
    rec = FAMILIES[family]
    with np.errstate(all="ignore"):             # a uniform of 1 overflows the draw
        v = rec.frailty(keys, theta) * rec.latent_scale(theta)
    bounds = rec.latent_bounds(theta)
    if bounds is None:
        return v == 1.0, np.zeros(v.shape, dtype=bool)
    held, unbounded = np.zeros(v.shape, dtype=bool), np.zeros(v.shape, dtype=bool)
    for lo, hi in bounds(keys, rng.Workspace(0)):
        held |= (lo <= v) & (v <= hi)
        unbounded |= ~((lo > 0.0) & (hi < np.inf))
    return held, unbounded


@pytest.mark.parametrize("theta", BOUND_THETAS)
@pytest.mark.parametrize("family", [FamilyId.GUMBEL_HOUGAARD, FamilyId.JOE],
                         ids=lambda f: f.value)
class TestLatentBounds:
    def test_bounds_hold_each_drawn_latent(self, family, theta):
        held, unbounded = held_latents(family, theta, keys_for(1 << 20, Seed(21)))
        assert (held | unbounded).all()
        assert unbounded.mean() < 2e-3
        if family is FamilyId.JOE:
            # V is one of the two points, which hold it even where infinite
            assert held.all()

    def test_bounds_hold_at_extreme_uniforms_and_cell_ends(self, family, theta, monkeypatch):
        # every pair of extremes, and u0 at both ends of every cell of the
        # stable table with u1 at both extremes and in between
        ends = np.concatenate([EDGES, np.nextafter(EDGES + 1.0 / rng._CELLS, 0.0)])
        u0 = np.concatenate([np.repeat(EXTREMES, len(EXTREMES)), np.tile(ends, 3)])
        u1 = np.concatenate([np.tile(EXTREMES, len(EXTREMES)),
                             np.repeat([EXTREMES[0], 0.3, EXTREMES[-2]], ends.shape[0])])

        def fixed_uniforms(keys, counter, out=None, ws=None):
            out = np.empty(keys.shape[0]) if out is None else out
            out[:] = (u0, u1)[counter]
            return out

        monkeypatch.setattr(rng, "uniforms", fixed_uniforms)
        held, unbounded = held_latents(family, theta, np.zeros(u0.shape[0], dtype=np.uint64))
        assert (held | unbounded).all()
        if family is FamilyId.JOE:
            assert held.all()

    def test_one_interval_or_two_points(self, family, theta):
        # Gumbel bounds its variate by one interval, Joe by its two points
        bounds = FAMILIES[family].latent_bounds(theta)
        if bounds is None:
            assert theta == 1.0
            return
        pairs = bounds(keys_for(64), rng.Workspace(0))
        if family is FamilyId.JOE:
            assert len(pairs) == 2 and all(lo is hi for lo, hi in pairs)
        else:
            assert len(pairs) == 1 and pairs[0][0] is not pairs[0][1]


# The parent samplers' masked forms, kept as oracles: log_series selected its
# small values, and gammas its bound and first accepted rows, by masked copies.

def masked_log_series(keys, p):
    n = keys.shape[0]
    out = np.ones(n)
    h = np.log1p(-p)
    u2 = rng.uniforms(keys, 0)
    low = u2 <= p
    if low.any():
        q = rng.uniforms(keys[low], 1)
        q *= h
        q = -np.expm1(q)
        u2l = u2[low]
        big_k = np.floor(np.log(u2l) / np.log(q) + 1.0)
        np.copyto(big_k, 2.0, where=u2l >= q * q)
        np.copyto(big_k, 1.0, where=u2l > q)
        out[low] = big_k
    return out


def masked_gammas(keys, shape):
    out = np.empty(keys.shape[0])
    counter, boost, a = 0, None, shape
    if a < 1.0:
        boost = rng.uniforms(keys, counter) ** (1.0 / a)
        counter, a = 1, a + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    todo, trial_keys = None, keys
    while trial_keys.size:
        x = np.sqrt(np.log(rng.uniforms(trial_keys, counter)) * -2.0)
        x *= np.cos(rng.uniforms(trial_keys, counter + 1) * (2.0 * np.pi))
        v = x * c
        v += 1.0
        v **= 3
        ok = v > 0.0
        bound = np.ones(v.shape)
        np.copyto(bound, v, where=ok)
        bound = np.log(bound)
        bound += 1.0 - v
        bound *= d
        bound += x * 0.5 * x
        accept = (np.log(rng.uniforms(trial_keys, counter + 2)) < bound) & ok
        counter += 3
        v *= d
        if todo is None:
            np.copyto(out, v, where=accept)
            todo = np.flatnonzero(~accept)
        else:
            out[todo[accept]] = v[accept]
            todo = todo[~accept]
        trial_keys = keys[todo]
    if boost is not None:
        out *= boost
    return out


ORACLE_THETAS = (1e-6, 0.01, 0.5, 5.74, 12.0, 30.0, 37.4)
ORACLE_SHAPES = (0.02, 0.3, 0.999, 1.0, 1.7, 6.0, 50.0)


class TestSamplerOracles:
    """``log_series`` and ``gammas`` select by arithmetic where the masked
    forms above copied under a mask, and give their bits."""

    # with no warning, also at a denormal theta, where q underflows to 0 on
    # half the rows past p, which still take 1
    @pytest.mark.parametrize("theta", ORACLE_THETAS + (5e-324,))
    def test_log_series(self, theta):
        p = -np.expm1(-theta)
        keys = keys_for(1 << 18, Seed(37))
        want = masked_log_series(keys, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rng.log_series(keys, p)
        assert got.tobytes() == want.tobytes()
        if theta == 37.4:
            # integer values past 2^53, where (x - c) keep + c would round
            assert np.count_nonzero(want > 2.0 ** 53) > 1000

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gammas(self, shape):
        keys = keys_for(1 << 17, Seed(38))
        assert rng.gammas(keys, shape).tobytes() == masked_gammas(keys, shape).tobytes()

    def test_extreme_uniforms(self, monkeypatch):
        # every ordered pair of extremes as the uniforms of counters 0 and 1,
        # again at counter 2, and half the second from counter 3 on, where
        # gammas' later trials draw
        grid = np.array(EXTREMES)
        u = (np.repeat(grid, len(grid)), np.tile(grid, len(grid)))
        n = u[0].shape[0]

        def fixed_uniforms(keys, counter, out=None, ws=None):
            out = np.empty(keys.shape[0]) if out is None else out
            out[:] = np.take(u[counter % 2] if counter < 3 else u[1] * 0.5, keys)
            return out

        monkeypatch.setattr(rng, "uniforms", fixed_uniforms)
        keys = np.arange(n, dtype=np.uint64)
        with np.errstate(all="ignore"):
            for theta in ORACLE_THETAS:
                p = -np.expm1(-theta)
                assert rng.log_series(keys, p).tobytes() == masked_log_series(keys, p).tobytes()
            for shape in ORACLE_SHAPES:
                assert rng.gammas(keys, shape).tobytes() == masked_gammas(keys, shape).tobytes()
