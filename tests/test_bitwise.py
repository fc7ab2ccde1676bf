"""Bitwise guards: SHA-256 digests of outputs that a refactor must not move.

The library digests were captured from the implementation that dispatched
on the family with if/elif chains and had one VaR routine per family; the
``cli_*`` digests from the command line that parsed family names per study.
A change that moves any of these bits on purpose must say why and record the
new digest here.
"""
import hashlib

import numpy as np
import pytest
from scipy import special
from test_cli import BASE_CONFIG, TABLE_CONFIG

from archvar import (CopulaSpec, FamilyId, FunctionMargin, McConfig, Seed, UniformMargin,
                     empirical_kendall_tau, run_study, sample_copula, var_for_spec)
from archvar.cli import main

DIGESTS = {
    "var_for_spec": "f489cf1a8aaa07de75e3ece4b3a04df6e8429bd6cbb1e7888aba4433dd141651",
    "sample_copula": "cfcdbeba3dfd7ed9a7f7a526c4ddd30b33a24be30e7797c7ed12ab6a8d013349",
    "run_study": "67559c6febfd76fa34d1e72e4865423369d0db2be22e8ae50d85e2ebb33ad938",
    "empirical_kendall_tau": "44951c1839fd5fc51176dc4b1e862065eb053429e5744dfe55c391f448eb9f93",
    "cli_var": "ab77a97e17dc123ae46f6f90f944210142330073b179418c8268c2d2bb46eaf5",
    "cli_mc": "36d3080f286a092e8b11d66d176b69fbe8e0e5b8122b5cf53504472513ed98e7",
    "cli_table1": "5f57a42879dfad452e9ee6b095ab38eb3e5e18d88dd23a3da95cead17400ac44",
    "cli_sample": "cf7df035920ca5a84b44398f5428441b3f855e6a9342ed5c8e198351c99a9770",
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


def var_chunks():
    """The acceptance grid with uniform and lognormal margins."""
    lognormal = FunctionMargin(lambda u: np.exp(0.5 * special.ndtri(u)))
    for family, thetas in GRID_THETAS.items():
        for d in ((2,) if family is FamilyId.ALI_MIKHAIL_HAQ else (2, 3, 5)):
            for theta in thetas:
                spec = CopulaSpec(family, theta, d)
                for alpha in GRID_ALPHAS:
                    for margin in (UniformMargin(), lognormal):
                        res = var_for_spec(spec, [margin] * d, alpha)
                        yield res.components.tobytes()
                        yield res.abs_error_estimate.tobytes()


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
