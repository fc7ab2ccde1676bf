"""``tests/digest_diff.py``'s comparison of two trees' sweeps."""
from digest_diff import (CDF_POINTS, REPLICATION_DIMS, REPLICATION_M, REPLICATION_N,
                         cdf_sweep, compare, compare_cdf, compare_outputs, compare_sweep,
                         error_record, sample_sweep, study_sweep, sweep)

ERROR = "error: QuadratureError"


def test_compare_sweep_names_what_moved():
    base = {f"case{i}": 1.0 for i in range(12)}
    head = {f"case{i}": 1.0 + i * 1e-9 for i in range(12)}
    base.update(gained=ERROR, lost=2.0, kept=ERROR)
    head.update(gained=3.0, lost=ERROR, kept=ERROR)
    lines, ok = compare_sweep(base, head)
    assert not ok
    assert lines[0] == ("sweep: 15 cases, 11 values moved, largest relative move 1.1e-08; "
                        "0 recorded errors changed; 1 went from an error to a value, 1 from "
                        "a value to an error; var_for_spec and kernel_mass entries "
                        "unchanged: FAIL")
    moved = [line for line in lines if line.startswith("  moved ")]
    assert len(moved) == 10
    assert moved[0] == f"  moved 1.1e-08: case11: 1.0 -> {head['case11']!r}"
    assert moved[-1].startswith("  moved 2e-09: case2: ")
    assert lines[11:] == [f"  {ERROR} -> value 3.0: gained", "  value -> error: QuadratureError: lost"]


def test_compare_sweep_passes_without_a_lost_value():
    base = {"a": 1.0, "b": ERROR}
    lines, ok = compare_sweep(base, {"a": 1.0, "b": 2.0})
    assert ok and lines == ["sweep: 2 cases, 0 values moved, largest relative move 0; "
                            "0 recorded errors changed; 1 went from an error to a value, "
                            "0 from a value to an error; var_for_spec and kernel_mass "
                            "entries unchanged: ok",
                            f"  {ERROR} -> value 2.0: b"]


def test_compare_sweep_fails_on_an_undeclared_move():
    # a value that moves needs a changed var_for_spec or kernel_mass entry;
    # a value that turns into an error fails either way
    base, head = {"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0 + 4e-16}
    lines, ok = compare_sweep(base, head)
    assert not ok and lines[0].endswith("1 values moved, largest relative move 2.22e-16; 0 "
                                        "recorded errors changed; 0 went from an error to a "
                                        "value, 0 from a value to an error; var_for_spec and "
                                        "kernel_mass entries unchanged: FAIL")
    lines, ok = compare_sweep(base, head, declared=True)
    assert ok and lines[0].endswith("entries changed: ok")
    _, ok = compare_sweep(base, {"a": ERROR, "b": 2.0}, declared=True)
    assert not ok


def test_compare_sweep_fails_on_an_undeclared_error_change():
    # an error whose message, estimate, bound or splits changed needs a changed
    # var_for_spec or kernel_mass entry, as a moved value does; its bound twin
    # repeats it and is not counted again
    import archvar

    record = lambda *args: error_record(archvar, archvar.QuadratureError(*args))  # noqa: E731
    base = {"a": record("stopped", 1.0, 2.0, 3), "a bound": record("stopped", 1.0, 2.0, 3),
            "b": 1.0, "c": ERROR}
    assert base["a"] == "error: QuadratureError: stopped [estimate 1.0, error_bound 2.0, splits 3]"
    for args in (("halted", 1.0, 2.0, 3), ("stopped", 1.5, 2.0, 3), ("stopped", 1.0, 2.5, 3),
                 ("stopped", 1.0, 2.0, 4)):
        head = {**base, "a": record(*args), "a bound": record(*args)}
        lines, ok = compare_sweep(base, head)
        assert not ok and "; 1 recorded errors changed; " in lines[0], args
        assert lines[1] == f"  changed: a: {base['a']} -> {head['a']}"
        lines, ok = compare_sweep(base, head, declared=True)
        assert ok and lines[0].endswith("entries changed: ok")
    _, ok = compare_sweep(base, {**base, "c": "error: ParameterError: bad"})
    assert not ok
    lines, ok = compare_sweep(base, dict(base))
    assert ok and "; 0 recorded errors changed; " in lines[0] and len(lines) == 1
    assert error_record(archvar, ValueError("bad")) == "error: ValueError: bad"


def test_compare_fails_on_a_changed_error():
    # through compare: the var_for_spec and kernel_mass entries decide
    entries = {name: {"computed": "c", "declared": "x"} for name in ("var_for_spec", "kernel_mass")}
    base = {**trees({}, {}), "sweep": {"a": ERROR}}
    base["digests"] = {**base["digests"], **entries}
    head = {**base, "sweep": {"a": "error: QuadratureError: other"}}
    lines, ok = compare(base, head)
    assert not ok
    assert "  changed: a: error: QuadratureError -> error: QuadratureError: other" in lines
    head["digests"] = {**base["digests"], "kernel_mass": {"computed": "d", "declared": "y"}}
    _, ok = compare(base, head)
    assert ok


def test_compare_prints_the_first_pass_share():
    # the share of sweep values with no split, in each tree; it fails nothing
    base = {**trees({}, {}), "splits": {"a": 0, "b": 3, "c": 0, "d": 1}}
    head = {**base, "splits": {"a": 0, "b": 0, "c": 0}}
    lines, ok = compare(base, head)
    assert ok and "first pass: base 2 of 4 (50.0 %), head 3 of 3 (100.0 %) of the sweep's " \
        "var_for_spec values" in lines


def test_compare_prints_the_summed_evaluations():
    # the evaluations of the sweep's values, summed in each tree; they fail nothing
    base = {**trees({}, {}), "evals": {"a": 465, "b": 1455, "c": 465}}
    head = {**base, "evals": {"a": 465, "b": 525}}
    lines, ok = compare(base, head)
    assert ok and "evaluations: base 2,385, head 990 over the sweep's var_for_spec " \
        "values" in lines
    lines, ok = compare(base, base)
    assert ok and "evaluations: base 2,385, head 2,385 over the sweep's var_for_spec " \
        "values" in lines


def test_compare_reads_the_var_entries():
    # a moved sweep value fails compare unless the var_for_spec or the
    # kernel_mass entry changed with its digest
    entries = {name: {"computed": "c", "declared": "x"} for name in ("var_for_spec", "kernel_mass")}
    base = {**trees({}, {}), "sweep": {"a": 1.0}}
    base["digests"] = {**base["digests"], **entries}
    head = {**base, "sweep": {"a": 1.5}, "digests": {**base["digests"]}}
    summary = lambda lines: next(line for line in lines if line.startswith("sweep:"))  # noqa: E731
    lines, ok = compare(base, head)
    assert not ok and summary(lines).endswith("entries unchanged: FAIL")
    for name in entries:
        head["digests"] = {**base["digests"], name: {"computed": "d", "declared": "y"}}
        lines, ok = compare(base, head)
        assert ok and summary(lines).endswith("entries changed: ok"), name
    _, ok = compare(base, {**base, "sweep": {"a": 1.0}})
    assert ok


def test_sweep_cases():
    # each point's value and error bound under four margins, one of them
    # tabulated, and under the cycle of four distinct margins
    import archvar

    calls = []

    class Result:
        def __init__(self, d):
            self.components = self.abs_error_estimate = [0.5] * d
            self.n_splits = list(range(d))
            self.n_evals = [465 + 30 * j for j in range(d)]

    def fake_var_for_spec(spec, margins, alpha):
        calls.append(margins)
        if spec.family is archvar.FamilyId.JOE:
            raise archvar.QuadratureError("no", 0.0, 1.0)
        return Result(spec.d)

    class Fake:
        def __getattr__(self, name):
            return {"var_for_spec": fake_var_for_spec,
                    "kernel_mass": lambda spec, alpha: 1.0}.get(name, getattr(archvar, name))

    out, splits, evals = sweep(Fake())
    assert len(calls) == 5 * 306 and len(out) == 4698
    point = "clayton theta=2.0 d=10 alpha=0.5"
    assert [out[f"{point} mixed{j}{bound}"]
            for j in range(4) for bound in ("", " bound")] == [0.5] * 8
    assert f"{point} mixed4" not in out and f"amh theta=0.3 d=2 alpha=0.5 mixed2" not in out
    assert out["joe theta=2.4 d=3 alpha=0.5 table bound"] == (
        "error: QuadratureError: no [estimate 0.0, error_bound 1.0, splits 0]")
    # each component's splits where a value came back, and none for an error
    # or for kernel_mass
    assert [splits[f"{point} mixed{j}"] for j in range(4)] == [0, 1, 2, 3]
    assert splits[f"{point} table"] == 0 and f"joe theta=2.4 d=3 alpha=0.5 table" not in splits
    assert set(splits) == set(evals) == {case for case, value in out.items()
                                         if isinstance(value, float)
                                         and not case.endswith((" bound", " kernel_mass"))}
    # and their evaluations, next to the splits
    assert [evals[f"{point} mixed{j}"] for j in range(4)] == [465, 495, 525, 555]
    tables = [m[0] for m in calls if isinstance(m[0], archvar.TabulatedMargin)]
    assert len(tables) == 306 and tables[0].knots.min() <= 1e-6 and tables[0].knots.max() > 1 - 1e-6
    mixed = [m for m in calls if len(set(map(id, m))) > 1]
    assert len(mixed) == 306 and all(len(set(map(id, m[:4]))) == min(len(m), 4) for m in mixed)


STUDY = {"counts": [3, 4], "estimates": [[0.1, 0.2], [0.3, 0.4]]}


def digests(run_study_entry, sample_copula_entry="s", copula_cdf_entry="f"):
    return {"run_study": {"computed": "c", "declared": run_study_entry},
            "sample_copula": {"computed": "c", "declared": sample_copula_entry},
            "copula_cdf": {"computed": "c", "declared": copula_cdf_entry}}


def trees(studies, samples, replications=None, cdf=None):
    """A compute output with no digest or sweep case, and the given outputs."""
    return {"digests": digests("x"), "sweep": {}, "splits": {}, "evals": {}, "studies": studies,
            "replications": replications or {}, "samples": samples, "cdf": cdf or {}}


def test_compare_studies_fails_on_an_undeclared_move():
    base = {"a": STUDY, "b": STUDY, "c": "error: StudyError"}
    head = {"a": STUDY, "b": {**STUDY, "counts": [3, 5]}, "c": STUDY}
    lines, ok = compare_outputs("studies", "run_study", base, head, declared=False)
    assert not ok
    assert lines == ["studies: 3 cases, 2 moved, run_study entry unchanged: FAIL",
                     "  moved: b", "  moved: c"]
    lines, ok = compare_outputs("studies", "run_study", base, head, declared=True)
    assert ok and lines[0] == "studies: 3 cases, 2 moved, run_study entry changed: ok"


def test_compare_studies_passes_when_nothing_moved():
    lines, ok = compare_outputs("studies", "run_study", {"a": STUDY}, {"a": dict(STUDY)},
                                declared=False)
    assert ok and lines == ["studies: 1 cases, 0 moved, run_study entry unchanged: ok"]


def test_compare_reads_the_run_study_entry():
    # a moved study fails compare unless the run_study entry changed with it
    base, head = trees({"a": STUDY}, {}), trees({"a": "error: StudyError"}, {})
    lines, ok = compare(base, head)
    assert not ok and "studies: 1 cases, 1 moved, run_study entry unchanged: FAIL" in lines
    _, ok = compare(base, {**head, "digests": digests("y")})
    assert not ok                   # the digest held while its entry changed
    head["digests"]["run_study"]["computed"] = "d"
    head["digests"]["run_study"]["declared"] = "y"
    _, ok = compare(base, head)
    assert ok


def test_study_sweep_cases():
    # every window and dimension of STUDY_SPECS, AMH at d = 2 only
    import archvar

    calls = []

    def fake_run_study(cfg):
        calls.append(cfg)
        raise archvar.StudyError("empty")

    class Fake:
        def __getattr__(self, name):
            return fake_run_study if name == "run_study" else getattr(archvar, name)

    out = study_sweep(Fake())
    assert len(out) == len(calls) == 78
    assert set(out.values()) == {"error: StudyError: empty"}
    assert {(c.n, c.replications) for c in calls} == {(2 * 2 ** 15 + 1234, 2)}
    assert "joe theta=60.0 d=10 alpha=0.5 h=0.01" in out
    assert "amh theta=-0.7 d=2 alpha=0.05 h=0.0001" in out
    # the open window, whose every row is a candidate
    assert "clayton theta=2.0 d=3 alpha=0.8 h=0.25" in out


def test_compare_reads_the_run_study_entry_for_replications():
    # a moved many-replication study fails compare as a moved study does
    base = trees({}, {}, {"a": STUDY})
    head = trees({}, {}, {"a": {**STUDY, "estimates": [[0.1, 0.2], [0.3, 0.5]]}})
    lines, ok = compare(base, head)
    assert not ok and "replications: 1 cases, 1 moved, run_study entry unchanged: FAIL" in lines
    head["digests"]["run_study"]["computed"] = "d"
    head["digests"]["run_study"]["declared"] = "y"
    lines, ok = compare(base, head)
    assert ok and "replications: 1 cases, 1 moved, run_study entry changed: ok" in lines


def test_replication_sweep_cases():
    # every window of STUDY_SPECS at d = 3, AMH at d = 2, 12 replications of
    # one full block and a partial one
    import archvar
    from archvar.sampling import _BLOCK_ROWS

    calls = []

    def fake_run_study(cfg):
        calls.append(cfg)
        raise archvar.StudyError("empty")

    class Fake:
        def __getattr__(self, name):
            return fake_run_study if name == "run_study" else getattr(archvar, name)

    out = study_sweep(Fake(), REPLICATION_N, REPLICATION_M, REPLICATION_DIMS)
    assert len(out) == len(calls) == 30
    assert {(c.n, c.replications) for c in calls} == {(40_000, 12)}
    assert _BLOCK_ROWS < REPLICATION_N < 2 * _BLOCK_ROWS
    assert "joe theta=60.0 d=3 alpha=0.5 h=0.01" in out
    assert "amh theta=-0.7 d=2 alpha=0.8 h=0.25" in out
    assert "clayton theta=2.0 d=10 alpha=0.8 h=0.25" not in out


def test_compare_reads_the_sample_copula_entry():
    # a moved sample fails compare unless the sample_copula entry changed with it
    base, head = trees({}, {"a": "0" * 64}), trees({}, {"a": "1" * 64})
    lines, ok = compare(base, head)
    assert not ok and "samples: 1 cases, 1 moved, sample_copula entry unchanged: FAIL" in lines
    assert "  moved: a" in lines
    head["digests"] = digests("x", "t")
    head["digests"]["sample_copula"]["computed"] = "d"
    lines, ok = compare(base, head)
    assert ok and "samples: 1 cases, 1 moved, sample_copula entry changed: ok" in lines
    _, ok = compare(base, trees({}, {"a": "0" * 64}))
    assert ok


def test_sample_sweep_cases():
    # every dimension of STUDY_SPECS, AMH at d = 2 only, at STUDY_N rows
    import archvar

    calls = []

    def fake_sample_copula(spec, n, seed):
        calls.append((spec, n, seed))
        raise archvar.DomainError("no sampler")

    class Fake:
        def __getattr__(self, name):
            return fake_sample_copula if name == "sample_copula" else getattr(archvar, name)

    out = sample_sweep(Fake())
    assert len(out) == len(calls) == 26
    assert set(out.values()) == {"error: DomainError: no sampler"}
    assert {(n, seed) for _, n, seed in calls} == {(2 * 2 ** 15 + 1234, archvar.Seed(8))}
    assert "joe theta=60.0 d=10" in out and "amh theta=-0.7 d=2" in out
    assert "amh theta=0.3 d=3" not in out


def test_compare_cdf_counts_moves_per_family():
    # every family of the sweep is named, with its count of moved values; a
    # zero whose sign flipped has moved, and a value turned error has too
    base = {"clayton theta=2.0 d=2 point=0": 0.5, "frank theta=1.0 d=2 point=0": 0.25,
            "frank theta=1.0 d=2 point=1": 0.0, "joe theta=2.4 d=3 point=0": 0.125,
            "joe theta=2.4 d=3 point=1": 0.5}
    head = {**base, "frank theta=1.0 d=2 point=0": 0.25 * (1.0 + 2e-15),
            "frank theta=1.0 d=2 point=1": -0.0, "joe theta=2.4 d=3 point=0": 0.125 * (1.0 - 4e-13),
            "joe theta=2.4 d=3 point=1": "error: DomainError: bad"}
    lines, ok = compare_cdf(base, head, declared=False)
    assert not ok
    assert lines[0] == ("cdf: 5 values, 4 moved (clayton 0, frank 2, joe 2), largest relative "
                        "move 4e-13; copula_cdf entry unchanged: FAIL")
    assert lines[1].startswith("  moved 4e-13: joe theta=2.4 d=3 point=0: 0.125 -> ")
    assert lines[2].startswith("  moved 2e-15: frank theta=1.0 d=2 point=0: 0.25 -> ")
    assert lines[3] == "  moved 0: frank theta=1.0 d=2 point=1: 0.0 -> -0.0" and len(lines) == 4
    lines, ok = compare_cdf(base, head, declared=True)
    assert ok and lines[0].endswith("copula_cdf entry changed: ok")
    lines, ok = compare_cdf(base, dict(base), declared=False)
    assert ok and lines == ["cdf: 5 values, 0 moved (clayton 0, frank 0, joe 0), largest "
                            "relative move 0; copula_cdf entry unchanged: ok"]


def test_compare_reads_the_copula_cdf_entry():
    # a moved CDF value fails compare unless the copula_cdf entry changed with it
    base, head = trees({}, {}, cdf={"a": 0.5}), trees({}, {}, cdf={"a": 0.75})
    lines, ok = compare(base, head)
    assert not ok and lines[-2:] == ["cdf: 1 values, 1 moved (a 1), largest relative move 0.5; "
                                     "copula_cdf entry unchanged: FAIL", "  moved 0.5: a: 0.5 -> 0.75"]
    head["digests"] = digests("x", "s", "g")
    head["digests"]["copula_cdf"]["computed"] = "d"
    lines, ok = compare(base, head)
    assert ok and lines[-2].endswith("copula_cdf entry changed: ok")
    _, ok = compare(base, {**head, "cdf": {"a": 0.5}})
    assert ok                       # a recapture need not move a sweep value


def test_cdf_sweep_cases():
    # SWEEP_THETAS in d = 2, 3 and 10 (AMH: d = 2), the same points per d,
    # with coordinates near 0 and near 1; a raising case records its error
    # for each point
    import archvar
    import numpy as np

    calls = []

    def fake_copula_cdf(spec, u):
        calls.append((spec, u))
        if spec.family is archvar.FamilyId.JOE:
            raise archvar.DomainError("no")
        return u[:, 0]

    class Fake:
        def __getattr__(self, name):
            return fake_copula_cdf if name == "copula_cdf" else getattr(archvar, name)

    out = cdf_sweep(Fake())
    assert len(calls) == 39 and len(out) == 39 * CDF_POINTS == 1248
    assert {u.shape for _, u in calls} == {(CDF_POINTS, d) for d in (2, 3, 10)}
    pts = [u for spec, u in calls if spec.d == 10]
    assert all(np.array_equal(u, pts[0]) for u in pts)
    assert pts[0].min() < 1e-9 and pts[0].max() > 1.0 - 1e-9
    assert np.mean((pts[0] > 0.1) & (pts[0] < 0.9)) < 0.5
    assert out["clayton theta=2.0 d=10 point=5"] == pts[0][5, 0]
    assert out["joe theta=5.0 d=10 point=31"] == "error: DomainError: no"
    assert "amh theta=0.3 d=2 point=0" in out and "amh theta=0.3 d=3 point=0" not in out
