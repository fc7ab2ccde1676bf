"""numpy's contiguous elementwise loops give an element the same bits whatever
the array's length and the element's offset in it.

The block draw rests on this: a row gets the bits it would get inside a larger
sample, and a kept row is mapped in a contiguous column of any length.  A
study that cut several sample sizes from one draw, or a worker pool that split
a block differently, would rest on it too.  The calls below are the ones the
draw, the selection and the transforms make, and the quadrature's ``** 1.5``.

The lockstep quadrature rests on it as well: the VaR weight is evaluated once
on the nodes of every integral in a step.  Its stacked BLAS sums rest on a
second premise, pinned by the last test: a slice of a stacked matmul gets the
bits of the same 2-D matmul alone.
"""
import numpy as np
import pytest

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
# the quadrature's error model raises its ratios to 1.5 in one array per step
CASES["power_1.5_wide"] = (lambda x: x ** 1.5, lambda rng, n: np.exp(rng.uniform(-300, 300, n)))
for _family, _theta in ((FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                        (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 2.4),
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
    # The lockstep quadrature sums a (B, k, 15) stack of integrand values at
    # once: the Kronrod sum as stacked gemv calls, the Gauss sum over a stack
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
