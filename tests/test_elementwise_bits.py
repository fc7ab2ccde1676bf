"""numpy's contiguous elementwise loops give an element the same bits whatever
the array's length and the element's offset in it.

The block draw rests on this: a row gets the bits it would get inside a larger
sample, and a kept row is mapped in a contiguous column of any length.  So
does a study's candidate resolve, whose batches gather candidates across
replications and are cut wherever a block's worth has gathered.  A study that
cut several sample sizes from one draw, or a worker pool that split a block
differently, would rest on it too.  The calls below are the ones the draw,
the resolve, the selection and the transforms make, the samplers' mask-free
selects (``np.maximum`` with a scalar, multiply and add with a bool array),
and the quadrature's ``** 1.5``.

The quadrature's first pass rests on it as well: the VaR weight is evaluated
once on the nodes of every integral that shares a mesh.  Its sums rest on two
more premises, pinned by the last two tests: in the first pass, a slice of a
stacked matmul gets the bits of the same 2-D matmul alone; in refinement,
where a round splits however many intervals missed their tolerance, a row of
an einsum over rows gets the bits of the same row alone, which a gemv's rows
do not.
"""
import numpy as np
import pytest
from scipy import special

from archvar import CopulaSpec, FamilyId, phi_inverse
from archvar.quadrature import _GAUSS_IDX, _WG, _WK

LONG = 256
LENGTHS = range(1, 71)
OFFSETS = range(8)


def positive(rng, n):
    return np.exp(rng.uniform(-700.0, 700.0, n))


def unit(rng, n):
    return rng.uniform(0.0, 1.0, n)


def signed(scale):
    return lambda rng, n: rng.uniform(-scale, scale, n)


def above_minus_one(rng, n):
    return np.expm1(rng.uniform(-30.0, 30.0, n))


def integer_valued(rng, n):
    # log-series values: integers from 1 past 2^53
    return np.floor(np.exp(rng.uniform(0.0, 40.0, n)))


def around_zero(rng, n):
    # gamma trials' v, some of them at or below 0 or denormal
    x = rng.uniform(-1.0, 2.0, n)
    x[::7] = 0.0
    x[3::11] = 5e-320
    return x


def spanning(log_range):
    return lambda rng, n: np.exp(rng.uniform(-log_range, log_range, n))


def wide_power(p):
    def power(x):
        # as the samplers, which find the rows that overflow after the power
        with np.errstate(over="ignore"):
            return x ** p
    return power


def generator_values(rng, n):
    # phi_inverse's arguments: sums of a few generator values, 0 included
    s = np.exp(rng.uniform(-40.0, 6.0, n))
    s[::17] = 0.0
    return s


CASES = {
    "log": (np.log, positive),
    "exp": (np.exp, signed(700.0)),
    "log1p": (np.log1p, above_minus_one),
    "expm1": (np.expm1, signed(700.0)),
    "cos": (np.cos, signed(1e4)),
    "sin": (np.sin, signed(1e4)),
    "cos_small": (np.cos, signed(np.pi)),
    "sin_small": (np.sin, signed(np.pi)),
}
for _p in (-1.5, -1.0 / 2.4, 0.5, 1.0 / 3.0, 1.5, 2.0, 2.4, 3.0):
    CASES[f"power_{_p:.4g}"] = (lambda x, p=_p: x ** p, unit)
# the samplers' mask-free selects: a floor by np.maximum with a scalar, and
# x keep + c (not keep) with bool arrays
CASES["maximum_scalar"] = (lambda x: np.maximum(x, 5e-324), around_zero)
CASES["multiply_bool"] = (lambda k: k * (k < 2.0 ** 40), integer_valued)
CASES["add_bool"] = (lambda k: k + (k < 2.0 ** 40), integer_valued)
CASES["select_bool"] = (lambda k: k * (k < 2.0 ** 40) + (k >= 2.0 ** 40) * 2.0, integer_valued)
# the uniforms' conversion: a word shifted below 2^53, cast from int64, plus 0.5
CASES["int64_cast_half"] = (lambda w: np.add(w.astype(np.float64), 0.5),
                            lambda rng, n: rng.integers(0, 2 ** 53, n))
# the quadrature's error model raises its ratios to 1.5 in one array per rule call
CASES["power_1.5_wide"] = (lambda x: x ** 1.5, lambda rng, n: np.exp(rng.uniform(-300, 300, n)))
# a study resolves its candidates in batches of any length and offset, and
# draws Gumbel's and Joe's V there: the stable law's powers theta and theta - 1
# and the Sibuya inversion's -theta, at the sweeps' theta, on values whose
# powers reach past both ends of the normal range, and the Sibuya survival's
# log-gamma at integers and between them
for _theta in (2.4, 6.0, 60.0):
    for _p in (_theta, _theta - 1.0, -_theta):
        CASES[f"power_{_p:.4g}_wide"] = (wide_power(_p), spanning(800.0 / abs(_p)))
CASES["gammaln"] = (special.gammaln, lambda rng, n: np.exp(rng.uniform(-5.0, 40.0, n)))
CASES["gammaln_integer"] = (special.gammaln, integer_valued)
for _family, _theta in ((FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                        (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 2.4),
                        (FamilyId.GUMBEL_HOUGAARD, 6.0), (FamilyId.JOE, 6.0),
                        (FamilyId.GUMBEL_HOUGAARD, 60.0), (FamilyId.JOE, 60.0),
                        (FamilyId.ALI_MIKHAIL_HAQ, 0.3), (FamilyId.ALI_MIKHAIL_HAQ, -0.7)):
    CASES[f"phi_inverse_{_family.value}_{_theta}"] = (
        lambda s, spec=CopulaSpec(_family, _theta, 2): phi_inverse(spec, s), generator_values)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_bits_at_every_length_and_offset(name):
    fn, draw = CASES[name]
    x = draw(np.random.default_rng(sorted(CASES).index(name)), LONG)
    whole = bits(fn(x))
    bad = [(n, off) for n in LENGTHS for off in OFFSETS
           if not np.array_equal(bits(fn(x[off:off + n])), whole[off:off + n])]
    assert bad == [], f"{name}: {len(bad)} (length, offset) pairs differ, first {bad[0]}"


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("k,d", [(37, 2), (70, 3), (129, 5)])
def test_block_matches_its_columns(name, k, d):
    # a C-order (k, d) block in one call against each column as its own array
    fn, draw = CASES[name]
    block = draw(np.random.default_rng(k * d), k * d).reshape(k, d)
    whole = fn(block)
    for j in range(d):
        assert np.array_equal(bits(fn(np.ascontiguousarray(block[:, j]))), bits(whole[:, j]))


@pytest.mark.parametrize("k", [2, 11])
def test_stacked_rule_sums_match_2d_calls(k):
    # The first pass sums a (B, k, 15) stack of integrand values at once: the
    # Kronrod sum as stacked gemv calls, the Gauss sum over a stack
    # of F-ordered (k, 7) slices.  Each slice must get the bits of the 2-D
    # calls of one integrand alone, whose Gauss slice ``fv[:, _GAUSS_IDX]``
    # is F-ordered too; a gemv's last bits depend on its rows and layout.
    rng = np.random.default_rng(k)
    for b in range(1, 9):
        for _ in range(40):
            fv = rng.standard_normal((b, k, 15)) * np.exp(rng.uniform(-5.0, 5.0, (b, k, 15)))
            kronrod = fv @ _WK
            gauss = _WG @ fv.transpose(0, 2, 1).take(_GAUSS_IDX, axis=1)
            spread = np.abs(fv - kronrod[..., None]) @ _WK
            for i in range(b):
                assert np.array_equal(bits(kronrod[i]), bits(fv[i] @ _WK))
                assert np.array_equal(bits(gauss[i]), bits(fv[i][:, _GAUSS_IDX] @ _WG))
                assert np.array_equal(bits(spread[i]),
                                      bits(np.abs(fv[i] - (fv[i] @ _WK)[:, None]) @ _WK))


@pytest.mark.parametrize("k", [1, 2, 11, 70])
def test_rule_row_sums_match_each_row_alone(k):
    # A refinement round sums the halves of all the intervals it splits in
    # one einsum per sum: the Kronrod sum over (k, 15) rows, the Gauss sum
    # over the strided (k, 7) view of its nodes.  Each row, wherever it lies,
    # must get the bits of the same sum over that row alone, so an interval's
    # estimate does not hang on which others split in the same round.
    rng = np.random.default_rng(k)
    for _ in range(40):
        fv = rng.standard_normal((k + 9, 15)) * np.exp(rng.uniform(-5.0, 5.0, (k + 9, 15)))
        kronrod = np.einsum("ij,j->i", fv, _WK)
        gauss = np.einsum("ij,j->i", fv[:, 1::2], _WG)
        spread = np.einsum("ij,j->i", np.abs(fv - kronrod[:, None]), _WK)
        for start in (0, 3, 9):
            rows = fv[start:start + k].copy()
            alone = np.einsum("ij,j->i", rows, _WK)
            assert np.array_equal(bits(kronrod[start:start + k]), bits(alone))
            assert np.array_equal(bits(gauss[start:start + k]),
                                  bits(np.einsum("ij,j->i", rows[:, 1::2], _WG)))
            assert np.array_equal(bits(spread[start:start + k]), bits(
                np.einsum("ij,j->i", np.abs(rows - alone[:, None]), _WK)))
