"""Bitwise guards: SHA-256 digests of outputs that a refactor must not move.

The library digests were captured from the implementation that dispatched
on the family with if/elif chains and had one VaR routine per family; the
``cli_*`` digests from the command line that parsed family names per study;
the ``kernel_mass``, ``generator``, ``copula_cdf``, ``base_key`` and
``sample_frailty`` digests from the implementation whose ``copula_cdf``
masked out rows with a zero coordinate.
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
from archvar.cli import main
from archvar.rng import mix64_int

DIGESTS = {
    "var_for_spec": "f489cf1a8aaa07de75e3ece4b3a04df6e8429bd6cbb1e7888aba4433dd141651",
    "sample_copula": "cfcdbeba3dfd7ed9a7f7a526c4ddd30b33a24be30e7797c7ed12ab6a8d013349",
    "run_study": "67559c6febfd76fa34d1e72e4865423369d0db2be22e8ae50d85e2ebb33ad938",
    "empirical_kendall_tau": "44951c1839fd5fc51176dc4b1e862065eb053429e5744dfe55c391f448eb9f93",
    "cli_var": "ab77a97e17dc123ae46f6f90f944210142330073b179418c8268c2d2bb46eaf5",
    "cli_mc": "36d3080f286a092e8b11d66d176b69fbe8e0e5b8122b5cf53504472513ed98e7",
    "cli_table1": "5f57a42879dfad452e9ee6b095ab38eb3e5e18d88dd23a3da95cead17400ac44",
    "cli_sample": "cf7df035920ca5a84b44398f5428441b3f855e6a9342ed5c8e198351c99a9770",
    "kernel_mass": "885740aa787be1422f11639a8fea205cdb2d32339db2bebd2318481c3956d3f3",
    "generator": "a3b8f9f3fec6fc10de5f16cf87d613695178508db32888370fab2c90a6078a68",
    "copula_cdf": "636cf605fa60d32834a95f69cab3c0e40253abec6f9885d00e7a4f61e1d4cef9",
    "base_key": "e54731120b9fc42d03436b86f0994479af72ebc5cb253d30b0129a6c87b68900",
    "sample_frailty": "f2674f7d9ee5f00d55ca6ffa865820a75b3b9797865744b691dfe490a23fd5a6",
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
    ("sample_frailty", frailty_chunks),
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
