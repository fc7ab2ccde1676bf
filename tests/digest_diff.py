"""Differential check of the bitwise digests in ``tests/test_bitwise.py``.

    python3 tests/digest_diff.py compute TREE > digests.json
    python3 tests/digest_diff.py compare BASE.json HEAD.json

``compute`` imports ``TREE``'s own ``src/archvar`` and ``tests/test_bitwise.py``
and prints, for each entry of that tree's ``DIGESTS``, the digest this machine
computes and the one the entry declares.  Run it once per tree, each in its
own process, on the same machine.  ``compare`` exits 1 when a digest moved
between the two trees while its ``DIGESTS`` entry stayed the same, or when an
entry changed while its digest did not move: a change that moves bits must
declare the move, and a recapture must come with a move.  This holds on any
CPU, although most digests match their ``DIGESTS`` entries on one numpy build
and CPU only.
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
    return digests


def compare(base: dict, head: dict) -> list:
    """One line per digest, and whether its move and its entry agree."""
    lines, ok = [], True
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            lines.append(f"{name}: only in the {'head' if name in head else 'base'} tree")
            continue
        moved = base[name]["computed"] != head[name]["computed"]
        declared = base[name]["declared"] != head[name]["declared"]
        verdict = "ok" if moved == declared else "FAIL"
        ok &= moved == declared
        lines.append(f"{name}: {'moved' if moved else 'held'}, entry "
                     f"{'changed' if declared else 'unchanged'}: {verdict}")
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
