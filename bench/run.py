"""gmconv benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload train-static --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` next to this directory, so nothing needs installing. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the
environment and sample counts. Files go to `.bench_out/` in the checkout.

Each run starts with one untimed warm-up op. With `--trace 0` the rest of
the seconds measure the end-to-end metrics of BENCHMARK.json, untraced.
With `--trace 1` untraced and traced rounds of ops alternate; the run
reports the per-layer metrics of the traced ops and the tracing overhead
between the two, and writes the spans to its output file.
`--smoke` runs the same code on tiny shapes with reference values of their
own.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
MIN_COVERAGE = 0.9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for tests")
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(dgemm_n: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    a = np.random.default_rng(0).normal(size=(dgemm_n, dgemm_n))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "dgemm_n": dgemm_n,
        "dgemm_gflops": 2 * dgemm_n**3 / statistics.median(times) / 1e9,
    }


class Phase:
    """The ops of one kind in a run: their timings, attempts and failures.

    With a tracer, each op runs with the tracer installed, inside a
    `bench.op` span, and adds up how much of its timed call the spans of
    the next layer down cover.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.timings = []
        self.attempted = 0
        self.failed = 0
        self.covered_s = 0.0
        self.entry_s = 0.0

    def run_op(self, wl, i):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
            tracer.op = i
            first_span = len(tracer.spans)
            op_span = tracer.open("bench.op")
        try:
            self.timings.extend(wl.op(i))
        except Exception:  # an op that raises counts as failed; keep going
            self.failed += 1
            print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        finally:
            if tracer is not None:
                tracer.close(op_span)
                tracer.uninstall()
        if tracer is not None:
            covered, total = tracer.coverage(first_span, wl.entry)
            self.covered_s += covered
            self.entry_s += total

    def seconds(self, kind):
        return [t.seconds for t in self.timings if t.kind == kind]

    def rate(self, kind):
        """Median per-op throughput of one kind of op, in samples/s."""
        rates = [t.samples / t.seconds for t in self.timings if t.kind == kind]
        return statistics.median(rates) if rates else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gmconv")):
        print(f"error: no gmconv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - PROCESS_T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    shapes = workloads.SMOKE if args.smoke else workloads.FULL
    mode = "smoke" if args.smoke else "full"
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[mode].get(args.workload, {})
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, shapes, args.seed, OUT, reference)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    # the first op pays first-touch and lazy-initialisation costs once per
    # process; it is checked and counted but not timed
    end = time.perf_counter() + args.seconds
    warm = Phase()
    warm.run_op(wl, 0)
    i = 1
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        plain, traced = Phase(), Phase(tracer)
        # untraced and traced rounds alternate, so a drift in machine speed
        # reaches both; a round runs one op of each kind the workload cycles
        # through
        while i == 1 or time.perf_counter() < end:
            for phase in (plain, traced):
                for _ in range(wl.cycle):
                    phase.run_op(wl, i)
                    i += 1
        phases = (warm, plain, traced)
        measured = traced
    else:
        measured = Phase()
        while i == 1 or time.perf_counter() < end:
            measured.run_op(wl, i)
            i += 1
        phases = (warm, measured)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)

    env = environment(shapes.dgemm_n)
    if args.trace:
        untraced, traced_rate = plain.rate("main"), traced.rate("main")
        values = tracer.metrics(traced.attempted)
        values.update(
            {
                "trace.ops": traced.attempted,
                "trace.samples_per_s": traced_rate,
                "trace.untraced_samples_per_s": untraced,
                "trace.overhead": untraced / traced_rate - 1.0,
                "trace.coverage": traced.covered_s / traced.entry_s if traced.entry_s else 0.0,
                "env.dgemm_gflops": env["dgemm_gflops"],
            }
        )
    else:
        main_s = measured.seconds("main")
        values = {
            "samples_per_s": measured.rate("main"),
            "folded_samples_per_s": measured.rate("folded"),
            "op_ms_p50": 1e3 * statistics.median(main_s) if main_s else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
    # a kind of op that never completed leaves a NaN, which JSON cannot hold
    correct = failed == 0 and not any(math.isnan(v) for v in values.values())
    if args.trace and values["trace.coverage"] < MIN_COVERAGE:
        # the traced ops' spans must account for nearly all of their timed calls
        correct = False
        print(f"spans cover only {values['trace.coverage']:.3f} of {wl.entry}", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": 0.0 if math.isnan(values[m["name"]]) else values[m["name"]], "unit": m["unit"]}
        for m in declared
    }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": wl.seed,
        "mode": mode,
        "trace": args.trace,
        "env": env,
        "samples": {kind: len(measured.seconds(kind)) for kind in ("main", "folded")},
        "import_s": import_s,
        "setup_runs_s": setup_times,
    }
    stem = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(detail, result=result, ops=[[t.kind, t.seconds] for t in measured.timings])
    if tracer is not None:
        record["by_layer"] = tracer.by_layer(traced.attempted)
        record["spans"] = tracer.dump(PROCESS_T0)
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
