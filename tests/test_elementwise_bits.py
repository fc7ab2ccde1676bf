"""numpy's contiguous elementwise loops give an element the same bits whatever
the array's length and the element's offset in it.

The block draw rests on this: a row gets the bits it would get inside a larger
sample, and a kept row is mapped in a contiguous column of any length.  A
study that cut several sample sizes from one draw, or a worker pool that split
a block differently, would rest on it too.  The calls below are the ones the
draw, the selection and the transforms make.
"""
import numpy as np
import pytest

from archvar import CopulaSpec, FamilyId, phi_inverse

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
for _p in (-1.5, -1.0 / 2.4, 0.5, 1.0 / 3.0, 2.0, 2.4, 3.0):
    CASES[f"power_{_p:.4g}"] = (lambda x, p=_p: x ** p, unit)
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
