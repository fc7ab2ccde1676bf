"""Differential check of the bitwise digests in ``tests/test_bitwise.py``.

    python3 tests/digest_diff.py compute TREE > digests.json
    python3 tests/digest_diff.py compare BASE.json HEAD.json

``compute`` imports ``TREE``'s own ``src/archvar`` and ``tests/test_bitwise.py``
and prints, for each entry of that tree's ``DIGESTS``, the digest this machine
computes and the one the entry declares.  It also prints the outcome (a value
or error bound, or an error record: its type, message and, for a
``QuadratureError``, estimate, error bound and splits) of each case of a VaR
domain sweep (``SWEEP_THETAS``), which uses only the public API, and the
splits and evaluations (``n_splits``, ``n_evals``) of each case that returns
a value; the sampled
outputs, each replication's selection count and estimate, of a sweep of
``run_study`` calls (``STUDY_SPECS``) and of a sweep of many-replication
studies at the same specs (``REPLICATION_M``); and the sha256 of each sample
of a sweep of ``sample_copula`` calls at the same specs: multi-block studies
and samples that the one-block ``run_study`` and ``sample_copula`` digests do
not reach; and each ``copula_cdf`` value of a CDF sweep (``SWEEP_THETAS`` in
``CDF_DIMS``, at seeded points with coordinates near 0 and near 1).
Run it once per tree, each in its own process, on the same machine.

``compare`` exits 1 when a digest moved between the two trees while its
``DIGESTS`` entry stayed the same, or when an entry changed while its digest
did not move: a change that moves bits must declare the move, and a recapture
must come with a move.  This holds on any CPU, although most digests match
their ``DIGESTS`` entries on one numpy build and CPU only.  It also exits 1
when a sweep case that returns a value in the base tree raises in the head
tree, when a sweep value or error bound moved or a recorded error changed
while the ``var_for_spec`` and ``kernel_mass`` entries both stayed the same,
when a study's outputs, in either study sweep, moved while the ``run_study``
entry stayed the same, when a sample moved while the ``sample_copula``
entry stayed the same, and when a CDF sweep value moved while the
``copula_cdf`` entry stayed the same.  It prints how many sweep values moved,
the ten largest relative moves with both values, the first ten changed
errors, and every case that went from an error to a value or back; the
share of the sweep's values that converged in the first pass (no split) and
their summed evaluations in each tree, which show whether a change did the
same work; and how many CDF sweep values moved, per family, with the largest
relative move.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import warnings

# each library digest's chunk function in test_bitwise.py; the cli_* digests
# come from its CLI_RUNS
CHUNKS = {
    "var_for_spec": "var_chunks", "sample_copula": "sample_chunks",
    "run_study": "study_chunks", "empirical_kendall_tau": "kendall_chunks",
    "kernel_mass": "kernel_mass_chunks", "generator": "generator_chunks",
    "copula_cdf": "copula_cdf_chunks", "base_key": "base_key_chunks",
    "sample_frailty": "frailty_chunks", "rng_words": "rng_words_chunks",
    "kendall_ties": "kendall_ties_chunks",
}


# The domain sweep: 3 theta per family, d in SWEEP_DIMS (AMH: d = 2 only),
# alpha in SWEEP_ALPHAS: 306 points.  At each, the first component's value
# and error bound under uniform, normal and lognormal margins and under a
# tabulated margin, whose knots join the mesh; those of the first four
# components under a cycle of four distinct margins, which share the first
# pass; and kernel_mass: 4,698 cases.
SWEEP_THETAS = {
    "clayton": (0.5, 2.0, 8.0), "frank": (1.0, 5.74, 12.0), "gumbel": (1.0, 2.0, 4.0),
    "joe": (1.2, 2.4, 5.0), "amh": (-0.7, 0.3, 0.9),
}
SWEEP_DIMS = (2, 3, 10, 50)
SWEEP_ALPHAS = (1e-6, 0.01, 0.5, 0.95, 1.0 - 1e-4, 1.0 - 1e-6)


def sweep_margins(archvar) -> tuple:
    """``({name: margin}, mixed)``: the margins each sweep point takes for all
    components, the table's knots at levels from 1e-7 to 1 - 1e-7, and the
    four distinct margins that ``mixed`` cycles, as the bench's ``var_grid``."""
    import numpy as np
    from scipy import special

    def normal(mu, sigma):
        return archvar.FunctionMargin(lambda u: mu + sigma * special.ndtri(u))

    def lognormal(mu, sigma):
        return archvar.FunctionMargin(lambda u: np.exp(mu + sigma * special.ndtri(u)))

    tail = np.geomspace(1e-7, 0.5, 30)
    levels = np.unique(np.concatenate([tail, 1.0 - tail]))
    margins = {"uniform": archvar.UniformMargin(), "normal": normal(3.0, 1.0),
               "lognormal": lognormal(0.0, 0.5),
               "table": archvar.TabulatedMargin(levels, np.exp(0.5 * special.ndtri(levels)))}
    return margins, (margins["uniform"], normal(2.0, 0.5), lognormal(0.5, 0.25), normal(5.0, 2.0))


def error_record(archvar, exc) -> str:
    """``"error: <type>: <message>"``, and a ``QuadratureError``'s estimate,
    error bound and splits: what tells two failures apart."""
    record = f"error: {type(exc).__name__}: {exc}"
    if isinstance(exc, archvar.QuadratureError):
        record += (f" [estimate {exc.estimate!r}, error_bound {exc.error_bound!r}, "
                   f"splits {exc.splits}]")
    return record


def sweep(archvar) -> tuple:
    """``({case: value or error record}, {case: splits}, {case: evaluations})``
    over the domain sweep; each ``var_for_spec`` case that returns a value
    has its splits and evaluations."""
    margins, mixed = sweep_margins(archvar)
    out, splits, evals = {}, {}, {}

    def record(case, names, call):
        # the value and error bound of component j, named names[j], or the error
        try:
            res = call()
            values = [(float(res.components[j]), float(res.abs_error_estimate[j]))
                      for j in range(len(names))]
            splits.update((f"{case} {name}", int(res.n_splits[j]))
                          for j, name in enumerate(names))
            evals.update((f"{case} {name}", int(res.n_evals[j]))
                         for j, name in enumerate(names))
        except Exception as exc:
            values = [(error_record(archvar, exc),) * 2] * len(names)
        for name, (value, bound) in zip(names, values):
            out[f"{case} {name}"], out[f"{case} {name} bound"] = value, bound

    with warnings.catch_warnings(record=True):
        for family, thetas in SWEEP_THETAS.items():
            for theta in thetas:
                for d in (2,) if family == "amh" else SWEEP_DIMS:
                    spec = archvar.CopulaSpec(archvar.FamilyId.from_string(family), theta, d)
                    cycle = [mixed[i % len(mixed)] for i in range(d)]
                    for alpha in SWEEP_ALPHAS:
                        case = f"{family} theta={theta!r} d={d} alpha={alpha!r}"
                        for name, m in margins.items():
                            record(case, [name], lambda: archvar.var_for_spec(spec, [m] * d, alpha))
                        record(case, [f"mixed{j}" for j in range(min(d, len(mixed)))],
                               lambda: archvar.var_for_spec(spec, cycle, alpha))
                        try:
                            value = float(archvar.kernel_mass(spec, alpha))
                        except Exception as exc:
                            value = error_record(archvar, exc)
                        out[f"{case} kernel_mass"] = value
    return out, splits, evals


# The study sweep: the Table-1 theta, Gumbel and Joe at 6 and 60 and AMH at
# 0.3 and -0.7 (d = 2 only), in d = STUDY_DIMS, at each (alpha, h) of
# STUDY_WINDOWS, with n rows over several blocks, the last one partial: 78
# studies.  The open window (0.8, 0.25) makes every row a candidate, so its
# candidates fill a batch and resolve early.
STUDY_SPECS = (("clayton", 2.0), ("frank", 5.74), ("gumbel", 2.0), ("joe", 2.4),
               ("gumbel", 6.0), ("gumbel", 60.0), ("joe", 6.0), ("joe", 60.0),
               ("amh", 0.3), ("amh", -0.7))
STUDY_DIMS = (2, 3, 10)
STUDY_WINDOWS = ((0.05, 1e-4), (0.5, 1e-2), (0.8, 0.25))
STUDY_N, STUDY_M = 2 * 2 ** 15 + 1234, 2
# The many-replication sweep: STUDY_SPECS at d = 3 (AMH: d = 2) in each of
# STUDY_WINDOWS, 12 replications of one full block and a partial one: 30
# studies, whose candidates gather across replications before they resolve.
REPLICATION_N, REPLICATION_M, REPLICATION_DIMS = 40_000, 12, (3,)


def study_sweep(archvar, n=STUDY_N, replications=STUDY_M, dims=STUDY_DIMS) -> dict:
    """``{case: {"counts", "estimates"} or error record}`` over the study
    sweep, or over the many-replication sweep at its ``n``, ``replications``
    and ``dims``."""
    out = {}
    with warnings.catch_warnings(record=True):
        for family, theta in STUDY_SPECS:
            for d in (2,) if family == "amh" else dims:
                spec = archvar.CopulaSpec(archvar.FamilyId.from_string(family), theta, d)
                for alpha, h in STUDY_WINDOWS:
                    cfg = archvar.McConfig(spec=spec, margins=[archvar.UniformMargin()] * d,
                                           n=n, replications=replications, h=h, alpha=alpha,
                                           seed=archvar.Seed(8))
                    try:
                        stats = archvar.run_study(cfg)
                        value = {"counts": stats.counts.tolist(),
                                 "estimates": stats.estimates.tolist()}
                    except Exception as exc:
                        value = error_record(archvar, exc)
                    out[f"{family} theta={theta!r} d={d} alpha={alpha!r} h={h!r}"] = value
    return out


def sample_sweep(archvar) -> dict:
    """``{case: sha256 of the rows or error record}``: ``sample_copula`` at
    each spec and dimension of the study sweep, ``STUDY_N`` rows from
    ``Seed(8)``: 26 samples over several blocks, the last one partial."""
    import hashlib

    out = {}
    with warnings.catch_warnings(record=True):
        for family, theta in STUDY_SPECS:
            for d in (2,) if family == "amh" else STUDY_DIMS:
                spec = archvar.CopulaSpec(archvar.FamilyId.from_string(family), theta, d)
                try:
                    sample = archvar.sample_copula(spec, STUDY_N, archvar.Seed(8))
                    value = hashlib.sha256(sample.data.tobytes()).hexdigest()
                except Exception as exc:
                    value = error_record(archvar, exc)
                out[f"{family} theta={theta!r} d={d}"] = value
    return out


# The CDF sweep: SWEEP_THETAS in d = CDF_DIMS (AMH: d = 2 only), each at the
# same CDF_POINTS seeded points per d, whose coordinates are near 0 (10^-x,
# x uniform in [1, 12]), near 1 (1 - 10^-x) or uniform: 1,248 values.
CDF_DIMS, CDF_POINTS = (2, 3, 10), 32


def cdf_points(d: int):
    """The CDF sweep's ``(CDF_POINTS, d)`` points in ``d`` dimensions."""
    import numpy as np

    gen = np.random.default_rng(d)
    tail = 10.0 ** -gen.uniform(1.0, 12.0, size=(CDF_POINTS, d))
    kind = gen.integers(0, 3, size=(CDF_POINTS, d))
    return np.choose(kind, [tail, 1.0 - tail, gen.uniform(size=(CDF_POINTS, d))])


def cdf_sweep(archvar) -> dict:
    """``{case: value or error record}``: ``copula_cdf`` at each point of the
    CDF sweep, one case per point."""
    out = {}
    with warnings.catch_warnings(record=True):
        for family, thetas in SWEEP_THETAS.items():
            for theta in thetas:
                for d in (2,) if family == "amh" else CDF_DIMS:
                    spec = archvar.CopulaSpec(archvar.FamilyId.from_string(family), theta, d)
                    try:
                        values = archvar.copula_cdf(spec, cdf_points(d)).tolist()
                    except Exception as exc:
                        values = [error_record(archvar, exc)] * CDF_POINTS
                    out.update((f"{family} theta={theta!r} d={d} point={i}", value)
                               for i, value in enumerate(values))
    return out


def compare_cdf(base: dict, head: dict, declared: bool) -> tuple:
    """Summary lines for the CDF sweep, and whether no value moved unless the
    ``copula_cdf`` entry changed (``declared``).  A value moves when its repr
    does, so that a zero's sign counts."""
    cases = set(base) | set(head)
    moved = sorted(case for case in cases if repr(base.get(case)) != repr(head.get(case)))
    per_family = dict.fromkeys(sorted({case.split()[0] for case in cases}), 0)
    for case in moved:
        per_family[case.split()[0]] += 1
    # a zero that flips its sign moves by 0
    moves = sorted(((abs(head[case] - base[case]) / abs(base[case]) if base[case]
                     else float("inf") if head[case] else 0.0, case) for case in moved
                    if isinstance(base.get(case), float) and isinstance(head.get(case), float)),
                   reverse=True)
    ok = declared or not moved
    lines = [f"cdf: {len(head)} values, {len(moved)} moved ("
             + ", ".join(f"{family} {count}" for family, count in per_family.items())
             + f"), largest relative move {moves[0][0] if moves else 0.0:.3g}; copula_cdf "
             f"entry {'changed' if declared else 'unchanged'}: {'ok' if ok else 'FAIL'}"]
    lines += [f"  moved {move:.3g}: {case}: {base[case]!r} -> {head[case]!r}"
              for move, case in moves[:10]]
    return lines, ok


def compare_outputs(kind: str, entry: str, base: dict, head: dict, declared: bool) -> tuple:
    """Summary lines for the ``kind`` outputs, and whether none moved or the
    ``entry`` digest's ``DIGESTS`` entry changed (``declared``)."""
    moved = sorted(case for case in set(base) | set(head) if base.get(case) != head.get(case))
    ok = declared or not moved
    lines = [f"{kind}: {len(head)} cases, {len(moved)} moved, {entry} entry "
             f"{'changed' if declared else 'unchanged'}: {'ok' if ok else 'FAIL'}"]
    lines += [f"  moved: {case}" for case in moved[:10]]
    return lines, ok


def first_pass_share(splits: dict) -> str:
    """How many of the sweep's values took no split: converged in the first pass."""
    first = sum(n == 0 for n in splits.values())
    return f"{first} of {len(splits)} ({100.0 * first / max(len(splits), 1):.1f} %)"


def compare_sweep(base: dict, head: dict, declared: bool = False) -> tuple:
    """Summary lines, and whether no case went from a value to an error and
    no value moved and no recorded error changed unless the ``var_for_spec``
    or ``kernel_mass`` entry changed (``declared``).  An error counts once per
    case: its ``bound`` twin repeats it."""
    lost = [case for case in base
            if isinstance(base[case], float) and not isinstance(head.get(case), float)]
    gained = [case for case in base
              if not isinstance(base[case], float) and isinstance(head.get(case), float)]
    moves = sorted(((abs(head[case] - base[case]) / abs(base[case]) if base[case]
                     else float("inf"), case)
                    for case in base
                    if isinstance(base[case], float) and isinstance(head.get(case), float)
                    and head[case] != base[case]), reverse=True)
    changed = sorted(case for case in base
                     if isinstance(base[case], str) and isinstance(head.get(case), str)
                     and head[case] != base[case] and not case.endswith(" bound"))
    ok = not lost and (declared or not (moves or changed))
    lines = [f"sweep: {len(base)} cases, {len(moves)} values moved, largest relative "
             f"move {moves[0][0] if moves else 0.0:.3g}; {len(changed)} recorded errors "
             f"changed; {len(gained)} went from an error to a value, {len(lost)} from a "
             f"value to an error; var_for_spec and kernel_mass entries "
             f"{'changed' if declared else 'unchanged'}: {'ok' if ok else 'FAIL'}"]
    lines += [f"  moved {move:.3g}: {case}: {base[case]!r} -> {head[case]!r}"
              for move, case in moves[:10]]
    lines += [f"  changed: {case}: {base[case]} -> {head[case]}" for case in changed[:10]]
    lines += [f"  {base[case]} -> value {head[case]!r}: {case}" for case in gained]
    lines += [f"  value -> {head.get(case, 'missing')}: {case}" for case in lost]
    return lines, ok


def cli_digest(bitwise, name: str) -> str:
    """``test_cli_report_bits``'s digest: exit code, stdout, stderr and report."""
    command, config, flags = bitwise.CLI_RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("run.ini", "w") as fh:
                fh.write(config)
            # as under pytest, which records warnings rather than print them
            with warnings.catch_warnings(record=True), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bitwise.main([command, "--config", "run.ini", "--out", "report.csv",
                                     *flags])
            with open("report.csv", "rb") as fh:
                report = fh.read()
        finally:
            os.chdir(cwd)
    return bitwise.sha256([code, out.getvalue(), err.getvalue(), report])


def compute(tree: str) -> dict:
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "tests")]
    import archvar
    import test_bitwise as bitwise
    for module in (archvar, bitwise):
        if not os.path.abspath(module.__file__).startswith(tree + os.sep):
            raise SystemExit(f"{module.__name__} was imported from {module.__file__}, "
                             f"not from {tree}")
    unknown = sorted(set(bitwise.DIGESTS) - set(CHUNKS) - set(bitwise.CLI_RUNS))
    if unknown:
        raise SystemExit(f"no chunk function known for digests {unknown}; add them to CHUNKS")
    digests = {}
    for name, declared in sorted(bitwise.DIGESTS.items()):
        if name in CHUNKS:
            computed = bitwise.sha256(getattr(bitwise, CHUNKS[name])())
        else:
            computed = cli_digest(bitwise, name)
        digests[name] = {"computed": computed, "declared": declared}
    values, splits, evals = sweep(archvar)
    return {"digests": digests, "sweep": values, "splits": splits, "evals": evals,
            "studies": study_sweep(archvar),
            "replications": study_sweep(archvar, REPLICATION_N, REPLICATION_M,
                                        REPLICATION_DIMS),
            "samples": sample_sweep(archvar), "cdf": cdf_sweep(archvar)}


def compare(base: dict, head: dict) -> tuple:
    """One line per digest and the sweep's summary, and whether all agree."""
    lines, ok = [], True
    old, new = base["digests"], head["digests"]
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            lines.append(f"{name}: only in the {'head' if name in new else 'base'} tree")
            continue
        moved = old[name]["computed"] != new[name]["computed"]
        declared = old[name]["declared"] != new[name]["declared"]
        verdict = "ok" if moved == declared else "FAIL"
        ok &= moved == declared
        lines.append(f"{name}: {'moved' if moved else 'held'}, entry "
                     f"{'changed' if declared else 'unchanged'}: {verdict}")
    entries = [(old.get(name, {}).get("declared"), new.get(name, {}).get("declared"))
               for name in ("var_for_spec", "kernel_mass")]
    lines_ok = [compare_sweep(base["sweep"], head["sweep"], any(a != b for a, b in entries)),
                ([f"first pass: base {first_pass_share(base['splits'])}, head "
                  f"{first_pass_share(head['splits'])} of the sweep's var_for_spec values",
                  f"evaluations: base {sum(base['evals'].values()):,}, head "
                  f"{sum(head['evals'].values()):,} over the sweep's var_for_spec values"],
                 True)]
    for kind, entry in (("studies", "run_study"), ("replications", "run_study"),
                        ("samples", "sample_copula")):
        lines_ok.append(compare_outputs(kind, entry, base[kind], head[kind],
                                        old[entry]["declared"] != new[entry]["declared"]))
    lines_ok.append(compare_cdf(base["cdf"], head["cdf"],
                                old["copula_cdf"]["declared"] != new["copula_cdf"]["declared"]))
    for more, more_ok in lines_ok:
        lines += more
        ok &= more_ok
    return lines, ok


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "compute":
        json.dump(compute(argv[1]), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with open(argv[1]) as fb, open(argv[2]) as fh:
            lines, ok = compare(json.load(fb), json.load(fh))
        print("\n".join(lines))
        return 0 if ok else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
