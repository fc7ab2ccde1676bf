"""The benchmark's four workloads: seeded inputs, the timed ops, their checks.

Inputs are built from ``--seed`` through archvar's own constructors.  Each op
calls archvar through the package namespace at call time, so the traced run
(``layers.py``) sees every call.  Checks compare outputs with ``reference``,
which imports nothing from archvar, or with a property of the method; they
run after the timed phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

# The reference, scipy.stats and mpmath are imported by the checks, after
# the timed phase, so that their import time stays out of setup_s.

# A VaR check rejects a relative error of 1e-6.  With smooth margins the
# program agrees with the reference to ~2e-10.  With empirical tables it is
# off by 1e-8 to 6.5e-7 on most of them, and by 5.7e-6 on one, because its
# quadrature does not split at the table's knots (see margin_descriptors).
VAR_RTOL = 1e-8
VAR_RTOL_TABLE = 5e-7
VAR_FLOOR = 1e-2      # relative to max(|VaR|, VAR_FLOOR): VaR can cross 0
MASS_TOL = 1e-9
# theta_from_tau bisects to |delta tau| <= 1e-10; a tau off by 1e-9 is rejected.
TAU_TOL = 5e-10
EMPIRICAL_TAU_TOL = 1e-12
Z_MAX = 5.0               # a study mean six predicted SE off is rejected
KS_MIN_PVALUE = 1e-6
H1_ROWS = 4000            # rows used to estimate the SE of the sample tau

FAMILY_THETAS = {          # Table-1 value (AMH: acceptance-grid value), strong
    "clayton": (2.0, 10.0),
    "frank": (5.74, 12.0),
    "gumbel": (2.0, 6.0),
    "joe": (2.4, 6.0),
    "amh": (0.3, 0.95),
}
GRID_DIMS = (2, 3, 10, 50)
GRID_ALPHAS = (0.01, 0.05, 0.5, 0.95)
# Calls that raise at this program version; seed-free inputs, uniform margins.
KNOWN_FAILURES = (
    ("frank", 40.0, 3, 0.5),          # QuadratureError: bracket loses its digits
    ("frank", 40.0, 3, 1.0 - 1e-6),   # ZeroDivisionError: phi(alpha) rounds to 0
    ("clayton", 0.01, 10, 1.0 - 1e-6),  # QuadratureError: reduced form cancels
)
# Grid points whose VaR with the table in data/ is off by more than the check's
# bound (5.7e-6 relative), while the program's own error estimate is 6e-10.
KNOWN_TABLE_FAILURES = (("clayton", 2.0, 2, 0.95),)
TABLE1 = (("clayton", 2.0), ("frank", 5.74), ("gumbel", 2.0), ("joe", 2.4))
TAU_TARGETS = (("clayton", 0.5), ("frank", 0.5), ("gumbel", 0.5), ("joe", 0.5),
               ("amh", -0.15))
TABLE_FILE = Path(__file__).resolve().parent / "data" / "lognormal_table.csv"


@dataclass
class Op:
    """One timed call; ``run`` returns the output that ``check`` inspects."""

    label: str
    run: Callable[[], object]
    rows: int                      # rows per op: sample rows or VaR report rows
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list                      # one round, in timed order
    warmup: Op                     # fixed op run once, untimed, in set-up
    check: Callable[[Op, object], list]    # -> list of failure messages
    fingerprint: Callable[[object], bytes]   # output bits, compared across rounds
    known: frozenset = frozenset()         # labels of ops that fail on every run


# ------------------------------------------------------------------ var_grid

def _program_margin(av, desc):
    kind = desc[0]
    if kind == "uniform":
        return av.UniformMargin()
    if kind == "normal":
        mu, sigma = desc[1], desc[2]
        return av.FunctionMargin(lambda u: mu + sigma * special.ndtri(u))
    if kind == "lognormal":
        mu, sigma = desc[1], desc[2]
        return av.FunctionMargin(lambda u: np.exp(mu + sigma * special.ndtri(u)))
    return av.TabulatedMargin(np.array(desc[1]), np.array(desc[2]))


def margin_descriptors():
    """Margins: closed-form kinds, a mixed cycle, an empirical table.

    None of them comes from the seed.  The program's VaR error on an
    empirical table depends on where the table's kinks fall: over 76 seeded
    200-knot lognormal tables it passed 5e-7 relative on 4, so a seeded
    table would make the failed share depend on the seed.  The table in
    ``data/`` is the worst of 59 more: 5.7e-6 (KNOWN_TABLE_FAILURES).
    """
    closed = (("uniform",), ("normal", 3.0, 1.0), ("lognormal", 0.0, 0.5))
    mixed = (("uniform",), ("normal", 2.0, 0.5), ("lognormal", 0.5, 0.25),
             ("normal", 5.0, 2.0))
    knots = np.loadtxt(TABLE_FILE, delimiter=",", comments="#", ndmin=2)
    table = ("table", knots[:, 0].tolist(), knots[:, 1].tolist())
    return closed, mixed, table


def _grid(smoke: bool) -> list:
    """(family, theta, d, alpha) points; smoke keeps a few, and the known faults."""
    points = [(fam, th, d, alpha)
              for fam, thetas in FAMILY_THETAS.items()
              for th in (thetas[:1] if smoke else thetas)
              for d in ((2,) if fam == "amh" else (2, 3) if smoke else GRID_DIMS)
              for alpha in ((0.05, 0.95) if smoke else GRID_ALPHAS)]
    return points + [p for p in KNOWN_TABLE_FAILURES if p not in points]


def build_var_grid(av, seed: int, smoke: bool) -> Workload:
    closed, mixed, table = margin_descriptors()
    programs = {}

    def program(desc):
        if id(desc) not in programs:
            programs[id(desc)] = _program_margin(av, desc)
        return programs[id(desc)]

    def var_op(label, fam, th, d, alpha, descs, precise=False, mass=True):
        spec = av.CopulaSpec(av.FamilyId.from_string(fam), th, d)
        margins = tuple(program(m) for m in descs)
        return Op(label, lambda: av.var_for_spec(spec, margins, alpha), d,
                  dict(fam=fam, th=th, d=d, alpha=alpha, descs=descs,
                       precise=precise, mass=mass, spec=spec))

    ops = []
    known = set()
    for k, (fam, th, d, alpha) in enumerate(_grid(smoke)):
        tag = f"{fam} th={th} d={d} a={alpha}"
        if (fam, th, d, alpha) in KNOWN_TABLE_FAILURES:
            known.add(f"{tag} table")
        ops.append(var_op(f"{tag} closed", fam, th, d, alpha, (closed[k % 3],) * d))
        ops.append(var_op(f"{tag} mixed", fam, th, d, alpha,
                          tuple(mixed[i % len(mixed)] for i in range(d)), mass=False))
        ops.append(var_op(f"{tag} table", fam, th, d, alpha, (table,) * d, mass=False))
    for fam, th, d, alpha in KNOWN_FAILURES:
        known.add(f"{fam} th={th} d={d} a={alpha} known-failure")
        ops.append(var_op(f"{fam} th={th} d={d} a={alpha} known-failure", fam, th, d,
                          alpha, (closed[0],) * d, precise=True, mass=False))
    warmup = ops[0]
    order = np.random.default_rng([seed, 2]).permutation(len(ops))
    refs = {}

    def reference(info, desc):
        import reference as ref

        key = (info["fam"], info["th"], info["d"], info["alpha"], id(desc))
        if key not in refs:
            refs[key] = ref.var(info["fam"], info["th"], info["d"], info["alpha"], desc,
                                precise=info["precise"])
        return refs[key]

    def check(op, out):
        info = op.info
        comps = np.asarray(out.components)
        errors = []
        for i, desc in enumerate(info["descs"]):
            want = reference(info, desc)
            rtol = VAR_RTOL_TABLE if desc[0] == "table" else VAR_RTOL
            if not abs(comps[i] - want) <= rtol * max(abs(want), VAR_FLOOR):
                errors.append(f"component {i}: {float(comps[i])!r} vs reference {want!r}")
            first = next(j for j, m in enumerate(info["descs"]) if m is desc)
            if comps[i].tobytes() != comps[first].tobytes():
                errors.append(f"components {first} and {i} share a margin but differ")
        if info["mass"]:
            mass = av.kernel_mass(info["spec"], info["alpha"])
            if not abs(mass - 1.0) <= MASS_TOL:
                errors.append(f"kernel_mass {mass!r}")
        return errors

    return Workload([ops[i] for i in order], warmup, check,
                    lambda out: np.asarray(out.components).tobytes(), frozenset(known))


# ------------------------------------------------------- mc_small_n, mc_large_n

def build_mc(av, seed: int, n: int, replications: int) -> Workload:
    alpha, h, d = 0.05, 1e-4, 3
    uniform = ("uniform",)
    ops = []
    for fam, th in TABLE1:
        spec = av.CopulaSpec(av.FamilyId.from_string(fam), th, d)
        cfg = av.McConfig(spec=spec, margins=[av.UniformMargin()] * d, n=n,
                          replications=replications, h=h, alpha=alpha,
                          seed=av.Seed(seed))
        ops.append(Op(f"{fam} th={th} n={n} M={replications}",
                      lambda cfg=cfg: av.run_study(cfg, jobs=1), n * replications,
                      dict(fam=fam, th=th)))
    refs = {}

    def check(op, out):
        import reference as ref
        fam, th = op.info["fam"], op.info["th"]
        if fam not in refs:
            refs[fam] = (ref.var(fam, th, d, alpha, uniform),
                         ref.conditional_sd(fam, th, d, alpha, uniform))
        want, sd = refs[fam]
        errors = []
        if out.failed_replications:
            errors.append(f"{out.failed_replications} replications failed")
        kept = replications - out.failed_replications
        se = sd / math.sqrt(out.mean_selected_count * max(kept, 1))
        for i in range(d):
            if not abs(out.theoretical[i] - want) <= VAR_RTOL * max(abs(want), VAR_FLOOR):
                errors.append(f"theoretical {float(out.theoretical[i])!r} vs reference {want!r}")
            if not abs(out.mean[i] - want) <= Z_MAX * se:
                errors.append(f"mean {float(out.mean[i])!r} is {abs(out.mean[i] - want) / se:.1f}"
                              f" predicted SE from the reference {want!r}")
        return errors

    return Workload(ops, ops[0], check,
                    lambda out: np.concatenate([out.mean, out.std_dev,
                                                [out.mean_selected_count]]).tobytes())


# ---------------------------------------------------------------- sample_tau

def build_sample_tau(av, seed: int, n: int) -> Workload:
    ops = []
    for fam, tau in TAU_TARGETS:
        family = av.FamilyId.from_string(fam)

        def run(family=family, tau=tau):
            theta = av.theta_from_tau(family, tau)
            spec = av.CopulaSpec(family, theta, 2)
            tau_program = av.kendall_tau(spec)
            sample = av.sample_copula(spec, n, av.Seed(seed))
            return theta, tau_program, av.empirical_kendall_tau(sample), sample.data

        ops.append(Op(f"{fam} tau={tau} n={n}", run, n, dict(fam=fam, tau=tau)))

    def check(op, out):
        return check_sample_tau(op.info["fam"], op.info["tau"], *out)

    return Workload(ops, ops[0], check,
                    lambda out: np.array(out[:3]).tobytes())


def check_sample_tau(fam, tau, theta, tau_program, tau_hat, data) -> list:
    """Checks of one calibrate-sample-estimate op against the reference."""
    from scipy import stats

    import reference as ref
    errors = []
    x, y = data[:, 0], data[:, 1]
    scipy_tau = stats.kendalltau(x, y).statistic
    if not abs(tau_hat - scipy_tau) <= EMPIRICAL_TAU_TOL:
        errors.append(f"empirical tau {tau_hat!r} vs scipy {scipy_tau!r}")
    tau_ref = ref.kendall_tau(fam, theta)
    if not abs(tau_ref - tau) <= TAU_TOL:
        errors.append(f"theta {theta!r} has reference tau {tau_ref!r}, target {tau}")
    if not abs(tau_program - tau) <= TAU_TOL:
        errors.append(f"kendall_tau {tau_program!r}, target {tau}")
    se = 2.0 * ref.kendall_h1_sd(fam, theta, data[:H1_ROWS].tolist()) / math.sqrt(len(x))
    if not abs(tau_hat - tau) <= Z_MAX * se:
        errors.append(f"empirical tau {tau_hat!r} is {abs(tau_hat - tau) / se:.1f} SE "
                      f"from the target {tau}")
    for j, col in enumerate((x, y)):
        p = stats.kstest(col, "uniform").pvalue
        if not p >= KS_MIN_PVALUE:
            errors.append(f"column {j} fails the KS uniformity test (p = {p:.2e})")
    return errors


# -------------------------------------------------------------------- registry

def build(av, name: str, seed: int, smoke: bool = False) -> Workload:
    if name == "var_grid":
        return build_var_grid(av, seed, smoke)
    if name == "mc_small_n":
        return build_mc(av, seed, 50_000, 4 if smoke else 25)
    if name == "mc_large_n":
        return build_mc(av, seed, 100_000 if smoke else 1_000_000, 2)
    if name == "sample_tau":
        return build_sample_tau(av, seed, 20_000 if smoke else 100_000)
    raise ValueError(f"unknown workload {name!r}")
