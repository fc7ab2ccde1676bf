"""Differential check of the bitwise digests in ``tests/test_bitwise.py``.

    python3 tests/digest_diff.py compute TREE > digests.json
    python3 tests/digest_diff.py compare BASE.json HEAD.json

``compute`` imports ``TREE``'s own ``src/archvar`` and ``tests/test_bitwise.py``
and prints, for each entry of that tree's ``DIGESTS``, the digest this machine
computes and the one the entry declares.  It also prints the outcome, a value
or an error type, of each case of a VaR domain sweep (``SWEEP_THETAS``), which
uses only the public API.  Run it once per tree, each in its own process, on
the same machine.  ``compare`` exits 1 when a digest moved between the two
trees while its ``DIGESTS`` entry stayed the same, or when an entry changed
while its digest did not move: a change that moves bits must declare the
move, and a recapture must come with a move.  This holds on any CPU, although
most digests match their ``DIGESTS`` entries on one numpy build and CPU only.
It also exits 1 when a sweep case that returns a value in the base tree raises
in the head tree.  It prints how many sweep values moved, the ten largest
relative moves with both values, and every case that went from an error to
a value or back.
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
# alpha in SWEEP_ALPHAS, and uniform, normal and lognormal margins plus
# kernel_mass: 1,224 cases.
SWEEP_THETAS = {
    "clayton": (0.5, 2.0, 8.0), "frank": (1.0, 5.74, 12.0), "gumbel": (1.0, 2.0, 4.0),
    "joe": (1.2, 2.4, 5.0), "amh": (-0.7, 0.3, 0.9),
}
SWEEP_DIMS = (2, 3, 10, 50)
SWEEP_ALPHAS = (1e-6, 0.01, 0.5, 0.95, 1.0 - 1e-4, 1.0 - 1e-6)


def sweep(archvar) -> dict:
    """``{case: value or "error: <type>"}`` over the domain sweep."""
    import numpy as np
    from scipy import special

    margins = {
        "uniform": archvar.UniformMargin(),
        "normal": archvar.FunctionMargin(lambda u: 3.0 + special.ndtri(u)),
        "lognormal": archvar.FunctionMargin(lambda u: np.exp(0.5 * special.ndtri(u))),
    }
    out = {}
    with warnings.catch_warnings(record=True):
        for family, thetas in SWEEP_THETAS.items():
            for theta in thetas:
                for d in (2,) if family == "amh" else SWEEP_DIMS:
                    spec = archvar.CopulaSpec(archvar.FamilyId.from_string(family), theta, d)
                    for alpha in SWEEP_ALPHAS:
                        calls = {name: (lambda m=m: archvar.var_for_spec(
                                     spec, [m] * d, alpha).components[0])
                                 for name, m in margins.items()}
                        calls["kernel_mass"] = lambda: archvar.kernel_mass(spec, alpha)
                        for name, call in calls.items():
                            try:
                                value = float(call())
                            except Exception as exc:
                                value = f"error: {type(exc).__name__}"
                            out[f"{family} theta={theta!r} d={d} alpha={alpha!r} {name}"] = value
    return out


def compare_sweep(base: dict, head: dict) -> tuple:
    """Summary lines, and whether no case went from a value to an error."""
    lost = [case for case in base
            if isinstance(base[case], float) and not isinstance(head.get(case), float)]
    gained = [case for case in base
              if not isinstance(base[case], float) and isinstance(head.get(case), float)]
    moves = sorted(((abs(head[case] - base[case]) / abs(base[case]) if base[case]
                     else float("inf"), case)
                    for case in base
                    if isinstance(base[case], float) and isinstance(head.get(case), float)
                    and head[case] != base[case]), reverse=True)
    lines = [f"sweep: {len(base)} cases, {len(moves)} values moved, largest relative "
             f"move {moves[0][0] if moves else 0.0:.3g}; {len(gained)} went from an error "
             f"to a value, {len(lost)} from a value to an error"]
    lines += [f"  moved {move:.3g}: {case}: {base[case]!r} -> {head[case]!r}"
              for move, case in moves[:10]]
    lines += [f"  {base[case]} -> value {head[case]!r}: {case}" for case in gained]
    lines += [f"  value -> {head.get(case, 'missing')}: {case}" for case in lost]
    return lines, not lost


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
    return {"digests": digests, "sweep": sweep(archvar)}


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
    sweep_lines, sweep_ok = compare_sweep(base["sweep"], head["sweep"])
    return lines + sweep_lines, ok and sweep_ok


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
