"""``tests/digest_diff.py``'s comparison of two trees' domain sweeps."""
from digest_diff import compare_sweep

ERROR = "error: QuadratureError"


def test_compare_sweep_names_what_moved():
    base = {f"case{i}": 1.0 for i in range(12)}
    head = {f"case{i}": 1.0 + i * 1e-9 for i in range(12)}
    base.update(gained=ERROR, lost=2.0, kept=ERROR)
    head.update(gained=3.0, lost=ERROR, kept=ERROR)
    lines, ok = compare_sweep(base, head)
    assert not ok
    assert lines[0] == ("sweep: 15 cases, 11 values moved, largest relative move 1.1e-08; "
                        "1 went from an error to a value, 1 from a value to an error")
    moved = [line for line in lines if line.startswith("  moved ")]
    assert len(moved) == 10
    assert moved[0] == f"  moved 1.1e-08: case11: 1.0 -> {head['case11']!r}"
    assert moved[-1].startswith("  moved 2e-09: case2: ")
    assert lines[11:] == [f"  {ERROR} -> value 3.0: gained", "  value -> error: QuadratureError: lost"]


def test_compare_sweep_passes_without_a_lost_value():
    base = {"a": 1.0, "b": ERROR}
    lines, ok = compare_sweep(base, {"a": 1.0, "b": 2.0})
    assert ok and lines == ["sweep: 2 cases, 0 values moved, largest relative move 0; "
                            "1 went from an error to a value, 0 from a value to an error",
                            f"  {ERROR} -> value 2.0: b"]
