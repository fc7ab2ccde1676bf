"""Bitwise guards: SHA-256 digests of outputs that a refactor must not move.

The library digests were captured from the implementation that dispatched
on the family with if/elif chains and had one VaR routine per family; the
``cli_*`` digests from the command line that parsed family names per study;
the ``kernel_mass``, ``generator``, ``copula_cdf``, ``base_key`` and
``sample_frailty`` digests from the implementation whose ``copula_cdf``
masked out rows with a zero coordinate; the ``rng_words`` digest from the
hash that allocated a new array at each step; the ``kendall_ties`` digest
from the merge count that built fresh arrays at each level.  The
``var_for_spec``, ``kernel_mass``, ``run_study``, ``cli_var`` and
``cli_table1`` digests were recaptured with the 24-interval graded mesh
(points from 1e-11 of the width, none within 1e-13 of an end), which moved
VaR values by up to 2.4e-12 relative here and error bounds more; the
Clayton form in ``expm1`` terms and the Gumbel form in ``t / la`` terms
moved them by up to 3.5e-15 and 8.5e-15 more.  ``base_key``,
``rng_words`` and ``kendall_ties`` use integer operations only, besides one
correctly rounded division and square root per tau, and hold on any CPU;
the others are pinned to one numpy build and CPU.
A change that moves any of these bits on purpose must say why and record the
new digest here.
"""
import hashlib

import numpy as np
import pytest
from scipy import special
from test_cli import BASE_CONFIG, TABLE_CONFIG

from archvar import (CopulaSpec, FamilyId, FunctionMargin, McConfig, Seed, UniformMargin,
                     beta_kernel, copula_cdf, empirical_kendall_tau, kernel_mass, phi,
                     phi_inverse, phi_prime, run_study, sample_copula, sample_frailty,
                     var_for_spec)
from archvar import rng
from archvar.cli import main
from archvar.rng import mix64_int

DIGESTS = {
    "var_for_spec": "11cda3f040c235ad13aa952a17bfdde042a5d79cbd497d71a7fbe68950bbe756",
    "sample_copula": "cfcdbeba3dfd7ed9a7f7a526c4ddd30b33a24be30e7797c7ed12ab6a8d013349",
    "run_study": "df31130a7fb73992f7f9cdd596cc7d273d03a77d6f364f2b772cb02c74143902",
    "empirical_kendall_tau": "44951c1839fd5fc51176dc4b1e862065eb053429e5744dfe55c391f448eb9f93",
    "cli_var": "1479a111fe4e5ad302b6aabc91592b161715a102aab6b2d91e030c2cd1ace701",
    "cli_mc": "36d3080f286a092e8b11d66d176b69fbe8e0e5b8122b5cf53504472513ed98e7",
    "cli_table1": "7d405a5cab173e476adf39cf83b47917184d89b42b2e5389224d8750cbe10328",
    "cli_sample": "cf7df035920ca5a84b44398f5428441b3f855e6a9342ed5c8e198351c99a9770",
    "kernel_mass": "a2f38564e5a55aba0e6715c69892aec02b31290d8021f16431c7dde17b604f4f",
    "generator": "a3b8f9f3fec6fc10de5f16cf87d613695178508db32888370fab2c90a6078a68",
    "copula_cdf": "636cf605fa60d32834a95f69cab3c0e40253abec6f9885d00e7a4f61e1d4cef9",
    "base_key": "e54731120b9fc42d03436b86f0994479af72ebc5cb253d30b0129a6c87b68900",
    "sample_frailty": "f2674f7d9ee5f00d55ca6ffa865820a75b3b9797865744b691dfe490a23fd5a6",
    "rng_words": "7e90b44c6fabf251d2e2cbe0fe4b294241e6baaa9aec6702a5542c0a4ecd61f7",
    "kendall_ties": "5053ca865ebd13217a68a8a250ae519678366b4afe26eea46180caa8d326127f",
}

GRID_THETAS = {
    FamilyId.CLAYTON: (0.5, 2.0, 8.0),
    FamilyId.FRANK: (1.0, 5.74, 12.0),
    FamilyId.GUMBEL_HOUGAARD: (1.0, 2.0, 4.0),
    FamilyId.JOE: (1.2, 2.4, 5.0),
    FamilyId.ALI_MIKHAIL_HAQ: (-0.7, 0.3, 0.9),
}
GRID_ALPHAS = (0.01, 0.05, 0.5, 0.9)


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def pin(x) -> bytes:
    """An array's dtype, shape and bytes, or a scalar's repr (its type included)."""
    if isinstance(x, np.ndarray):
        return repr((x.dtype.str, x.shape)).encode() + x.tobytes()
    return repr(x).encode()


def grid_specs():
    """The acceptance grid's specs, family by family, d, then theta."""
    for family, thetas in GRID_THETAS.items():
        for d in ((2,) if family is FamilyId.ALI_MIKHAIL_HAQ else (2, 3, 5)):
            for theta in thetas:
                yield CopulaSpec(family, theta, d)


def var_chunks():
    """The acceptance grid with uniform and lognormal margins."""
    lognormal = FunctionMargin(lambda u: np.exp(0.5 * special.ndtri(u)))
    for spec in grid_specs():
        for alpha in GRID_ALPHAS:
            for margin in (UniformMargin(), lognormal):
                res = var_for_spec(spec, [margin] * spec.d, alpha)
                yield res.components.tobytes()
                yield res.abs_error_estimate.tobytes()


def kernel_mass_chunks():
    for spec in grid_specs():
        for alpha in GRID_ALPHAS:
            yield pin(kernel_mass(spec, alpha))


def generator_chunks():
    """phi, phi_prime, phi_inverse and beta_kernel on arrays and on scalars."""
    t = np.array([1e-200, 1e-9, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-9])
    s = np.array([0.0, 1e-12, 1e-3, 0.5, np.log(2.0), 0.7, 3.0, 40.0, 800.0])
    for spec in [*grid_specs(), CopulaSpec(FamilyId.FRANK, -3.0, 2)]:
        for x in (t, 0.3, np.array(0.3), [0.3]):
            yield pin(phi(spec, x)) + pin(phi_prime(spec, x))
        yield pin(phi(spec, 1.0))
        for x in (s, 0.0, 0.5, [0.5]):
            yield pin(phi_inverse(spec, x))
        for alpha in GRID_ALPHAS:
            u = alpha + (1.0 - alpha) * np.array([0.0, 0.25, 0.5, 0.999])
            yield pin(beta_kernel(spec, u, alpha)) + pin(beta_kernel(spec, float(u[1]), alpha))


def copula_cdf_chunks():
    """Seeded points with coordinates at 0 and at 1; ``pin`` keeps the sign bit."""
    gen = np.random.default_rng(3)
    for spec in [*grid_specs(), CopulaSpec(FamilyId.FRANK, -3.0, 2)]:
        pts = gen.uniform(size=(64, spec.d))
        pts[gen.uniform(size=pts.shape) < 0.15] = 0.0
        pts[gen.uniform(size=pts.shape) < 0.15] = 1.0
        pts[0], pts[1] = 0.0, 1.0
        yield pin(copula_cdf(spec, pts)) + pin(copula_cdf(spec, pts.reshape(2, 32, spec.d)))
        for row in pts[:4]:
            yield pin(copula_cdf(spec, row)) + pin(copula_cdf(spec, list(row)))


def base_key_chunks():
    top = (1 << 64) - 1
    for value in (0, 1, top - 1, top):
        for stream in (0, 1, top):
            yield pin(Seed(value, stream).base_key())
    for x in (0, 1, top, 1 << 64, -1, 0x9E3779B97F4A7C15):
        yield pin(mix64_int(x))


def rng_words_chunks():
    """Raw uint64 words of the row keys and of the counter hash.

    Integer operations only, so that, unlike the float digests, this one
    holds on any CPU and numpy build.
    """
    top = (1 << 64) - 1
    rows = np.array([*range(40), *range(32760, 32780), 1 << 40, top - 1], dtype=np.uint64)
    for value, stream in ((0, 0), (8, 0), (8, 3), (21, 4), (top, top)):
        base = Seed(value, stream).base_key()
        for keys in rng.substream_keys(base, (rng.LABEL_EXPONENTIAL, rng.LABEL_FRAILTY), rows):
            yield pin(keys)
            for counter in range(8):
                yield pin(rng._words(keys, counter))


FRAILTIES = [
    (FamilyId.CLAYTON, 0.5), (FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
    (FamilyId.GUMBEL_HOUGAARD, 1.0), (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 1.0),
    (FamilyId.JOE, 2.4), (FamilyId.ALI_MIKHAIL_HAQ, 0.0), (FamilyId.ALI_MIKHAIL_HAQ, 0.5),
]


def frailty_chunks():
    for family, theta in FRAILTIES:
        yield pin(sample_frailty(family, theta, Seed(13, 2), 3000))


SAMPLED = [
    (FamilyId.CLAYTON, 2.0, 3),
    (FamilyId.FRANK, 5.74, 3),
    (FamilyId.GUMBEL_HOUGAARD, 2.0, 3),
    (FamilyId.JOE, 2.4, 3),
    (FamilyId.ALI_MIKHAIL_HAQ, 0.5, 2),
    (FamilyId.ALI_MIKHAIL_HAQ, -0.7, 2),
]


def sample_chunks():
    for family, theta, d in SAMPLED:
        yield sample_copula(CopulaSpec(family, theta, d), 5000, Seed(21, 4)).data.tobytes()


def study_chunks():
    """A small Table-1 study per simulated family."""
    for family, theta in ((FamilyId.CLAYTON, 2.0), (FamilyId.FRANK, 5.74),
                          (FamilyId.GUMBEL_HOUGAARD, 2.0), (FamilyId.JOE, 2.4)):
        cfg = McConfig(spec=CopulaSpec(family, theta, 3), margins=[UniformMargin()] * 3,
                       n=20_000, replications=3, h=1e-3, alpha=0.05, seed=Seed(8))
        stats = run_study(cfg)
        for arr in (stats.mean, stats.std_dev, stats.bias, stats.rmse, stats.theoretical):
            yield arr.tobytes()
        yield (stats.mean_selected_count, stats.failed_replications)


def kendall_chunks():
    """Copula samples, ties and the smallest sizes."""
    for family, theta, d in SAMPLED:
        yield empirical_kendall_tau(sample_copula(CopulaSpec(family, theta, d), 3000, Seed(5)))
    gen = np.random.default_rng(11)
    for n in (2, 3, 4, 7, 31, 257, 2000):
        ties = gen.integers(0, 5, size=(n, 2)).astype(float)
        if np.all(ties[:, 0] == ties[0, 0]) or np.all(ties[:, 1] == ties[0, 1]):
            ties[0] = (-1.0, -1.0)
        rounded = np.round(gen.normal(size=(n, 2)) @ [[1.0, 0.5], [0.0, 1.0]], 1)
        for data in (gen.uniform(size=(n, 2)), ties, rounded):
            yield empirical_kendall_tau(data)


KENDALL_SIZES = ((1 << 16) - 1, (1 << 16) + 1, (1 << 17) + 3)


def kendall_ties_chunks():
    """Tie-heavy integer and uniform columns on both sides of 2^16 rows.

    Integer-valued and ``default_rng().uniform`` columns, with no copula
    samples: only integer counting, one division and one square root touch
    them, so that, like ``base_key`` and ``rng_words``, this digest holds on
    any CPU and numpy build.
    """
    gen = np.random.default_rng(13)
    for n in KENDALL_SIZES:
        for levels in (2, 5, 1000):
            x = gen.integers(0, levels, size=n)
            y = x + gen.integers(0, levels, size=n)
            yield empirical_kendall_tau(np.column_stack([x, y]).astype(float))
        u = gen.uniform(size=(n, 2))
        yield empirical_kendall_tau(np.column_stack([u[:, 0], np.maximum(u[:, 0], u[:, 1])]))
        yield empirical_kendall_tau(np.column_stack([u[:, 0], x % 7]).astype(float))


def test_var_for_spec_bits():
    assert sha256(var_chunks()) == DIGESTS["var_for_spec"]


def test_sample_copula_bits():
    assert sha256(sample_chunks()) == DIGESTS["sample_copula"]


def test_run_study_bits():
    assert sha256(study_chunks()) == DIGESTS["run_study"]


def test_empirical_kendall_tau_bits():
    assert sha256(kendall_chunks()) == DIGESTS["empirical_kendall_tau"]


@pytest.mark.parametrize("name,chunks", [
    ("kernel_mass", kernel_mass_chunks), ("generator", generator_chunks),
    ("copula_cdf", copula_cdf_chunks), ("base_key", base_key_chunks),
    ("sample_frailty", frailty_chunks), ("rng_words", rng_words_chunks),
    ("kendall_ties", kendall_ties_chunks),
])
def test_component_bits(name, chunks):
    assert sha256(chunks()) == DIGESTS[name]


# (command, config, flags): each run's exit code, stdout, stderr and output file
CLI_RUNS = {
    "cli_var": ("var", BASE_CONFIG, ["--no-timestamp", "--full-precision"]),
    "cli_mc": ("mc", BASE_CONFIG, ["--no-timestamp", "--full-precision"]),
    "cli_table1": ("table1", TABLE_CONFIG, ["--no-timestamp", "--full-precision"]),
    "cli_sample": ("sample", BASE_CONFIG, []),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_report_bits(name, tmp_path, monkeypatch, capsys):
    command, config, flags = CLI_RUNS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(config)
    code = main([command, "--config", "run.ini", "--out", "report.csv", *flags])
    captured = capsys.readouterr()
    chunks = [code, captured.out, captured.err, (tmp_path / "report.csv").read_bytes()]
    assert sha256(chunks) == DIGESTS[name]
