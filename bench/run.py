"""Benchmark of archvar: four seeded workloads, checked against a reference.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload var_grid --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload, each in its own process, and prints a table.
``--smoke`` runs at a small size with every check (seconds of work).
See README.md in this directory.
"""
import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# Hold numpy's BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("var_grid", "mc_small_n", "mc_large_n", "sample_tau")
SETUP_PROBES = 5          # set-ups per run; setup_s is their median
PROBE_PACE_SAMPLES = 8    # kernel samples a probe times after its set-up
PROBE_TIMEOUT_S = 120
DEFAULT_SEED = 1


class Raised:
    """An exception from an op, kept without its traceback."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __eq__(self, other):
        return isinstance(other, Raised) and (self.kind, self.message) == (other.kind,
                                                                            other.message)

    def __repr__(self):
        return f"{self.kind}: {self.message[:100]}"


def import_program():
    """Import archvar from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import archvar
    if not Path(archvar.__file__).resolve().is_relative_to(src):
        raise ImportError(f"archvar was imported from {archvar.__file__}, not {src}")
    return archvar


def set_up(name: str, seed: int, smoke: bool):
    """Import the program, build the inputs, run the untimed warm-up op."""
    av = import_program()
    import workloads
    workload = workloads.build(av, name, seed, smoke)
    workload.warmup.run()
    return av, workload


def measure_setups(args) -> list:
    """Paced seconds from process spawn to the end of set-up, once per probe process.

    Each probe times the pace kernel right after its set-up, on the core it
    ran on, and reports the pace scale with its ``ready`` line.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        word, _, scale = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed * float(scale))
    return times


class Record:
    """Outputs of the timed rounds: first output per op, durations, failures.

    ``pace`` holds the kernel samples timed between the ops.
    """

    def __init__(self, workload):
        import pace
        self.workload = workload
        self.first = {}
        self.prints = {}
        self.raised = [0] * len(workload.ops)
        self.runs = [0] * len(workload.ops)
        self.mismatch = set()
        self.starts = []
        self.durations = []
        self.rows = 0
        self.pace = pace.Pace()

    def rounds(self, count=None, seconds=None) -> tuple:
        """Run whole rounds until ``count`` rounds or ``seconds`` have passed."""
        done = 0
        self.pace.burst(force=True)
        start = time.perf_counter()
        while True:
            for i, op in enumerate(self.workload.ops):
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # an op's failure is data, not a crash
                    out = Raised(exc)
                self.starts.append(t0)
                self.durations.append(time.perf_counter() - t0)
                self._keep(i, op, out)
                self.pace.burst()
            done += 1
            elapsed = time.perf_counter() - start
            if (count is not None and done >= count) or (count is None and elapsed >= seconds):
                self.pace.burst(force=True)
                return done, elapsed

    def paced_durations(self):
        """Each op's wall time, scaled to the kernel's reference pace."""
        return [d * self.pace.scale(t, t + d) for t, d in zip(self.starts, self.durations)]

    def _keep(self, i, op, out):
        self.runs[i] += 1
        if isinstance(out, Raised):
            self.raised[i] += 1
            mark = out
        else:
            self.rows += op.rows
            mark = self.workload.fingerprint(out)
        if i not in self.first:
            self.first[i] = out
            self.prints[i] = mark
        elif mark != self.prints[i]:
            self.mismatch.add(i)

    def verdict(self, log) -> tuple:
        """(correct, attempted, failed) after checking every op's output.

        An op fails when it raises or when its output fails a check.
        ``correct`` is false when an op fails a check and is not one of the
        workload's known failures.
        """
        correct, failed = True, 0
        for i, op in enumerate(self.workload.ops):
            out = self.first[i]
            errors = [] if isinstance(out, Raised) else self.workload.check(op, out)
            if i in self.mismatch:
                errors.append("output differs between rounds of the same inputs")
            if errors:
                failed += self.runs[i]
                known = op.label in self.workload.known
                correct = correct and known
                log(f"{'known fault' if known else 'CHECK FAILED'} {op.label}: "
                    + "; ".join(errors))
            else:
                failed += self.raised[i]
                if self.raised[i]:
                    log(f"raised {op.label}: {out!r}")
        return correct, sum(self.runs), failed


def main_run(args) -> int:
    log = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    setups = [] if args.trace else measure_setups(args)
    av, workload = set_up(args.workload, args.seed, args.smoke)
    record = Record(workload)
    if args.trace:
        import layers
        rounds, untraced_s = record.rounds(seconds=args.seconds / 2)
        with layers.Tracer(av) as tracer:
            _, traced_s = record.rounds(count=rounds)
        peak = layers.PeakAlloc(av)
        if tracer.calls["sampling.sample_copula"]:  # nothing to measure otherwise
            with peak:
                record.rounds(count=1)
        metrics = layers.layer_metrics(tracer, peak)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "rounds": rounds, "spans": tracer.table()},
                                         indent=1))
        log(f"{rounds} traced rounds; span table in {trace_file}")
    else:
        import numpy as np
        rounds, wall_s = record.rounds(seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        paced_ms = np.array(record.paced_durations()) * 1e3
        # one time per op of the round: its median over the rounds
        op_ms = np.median(paced_ms.reshape(rounds, len(workload.ops)), axis=0)
        round_s = op_ms.sum() / 1e3
        metrics = {
            "setup_s": (float(np.median(setups)), "s"),
            "ops_per_s": (len(op_ms) / round_s, "1/s"),
            "op_p50_ms": (float(np.percentile(op_ms, 50)), "ms"),
            "op_p90_ms": (float(np.percentile(op_ms, 90)), "ms"),
            "rows_per_s": (record.rows / rounds / round_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        log(f"{rounds} rounds of {len(workload.ops)} ops in {wall_s:.2f} s "
            f"({sum(record.durations):.2f} s in ops, {paced_ms.sum() / 1e3:.2f} s paced, "
            f"pace kernel median {np.median(record.pace.took) * 1e3:.4f} ms); "
            f"paced set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    correct, attempted, failed = record.verdict(log)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)
    return 0


def main_all(args) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, every check; for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, args.smoke)
            import pace
            probe = pace.Pace()
            probe.burst(force=True, samples=PROBE_PACE_SAMPLES)
            now = time.perf_counter()
            print(f"ready {probe.scale(now, now)!r}", flush=True)
            return 0
        if args.workload == "all":
            return main_all(args)
        return main_run(args)
    except (ImportError, RuntimeError, OSError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
