"""Benchmark of dofde: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 20 --trace 0

Runs passes of the workload back to back until --seconds have gone by
(at least one), checks every pass's outputs, and prints as its last
stdout line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 each untraced pass is followed by a traced one and the metrics
are the per-layer ones.  --tiny runs the workload at n <= 64 against the
tiny references, for the self-tests.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

DEFAULT_SEED = 0
SETUP_RUNS = 5
# No pass starts that would likely end after this many seconds of the run.
DEADLINE_S = 140
_SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import dofde, dofde.cli; "
    "print(time.perf_counter() - t); print(dofde.__file__)"
)


def measure_setup():
    """Median seconds of `import dofde, dofde.cli` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], cwd=bootstrap.ROOT,
                              env=bootstrap.program_env(), capture_output=True, text=True,
                              check=True, timeout=60)
        seconds, where = done.stdout.splitlines()[:2]
        if Path(where).resolve().parent != bootstrap.SRC / "dofde":
            raise bootstrap.MissingProgram(f"set-up imported dofde from {where}")
        samples.append(float(seconds))
    return statistics.median(samples), samples


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": bootstrap.THREADS,
    }


def _median_metrics(per_pass):
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def main(argv=None):
    bootstrap.pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n <= 64, for the self-tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    try:
        bootstrap.import_program()
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    print("# machine:", json.dumps(machine_record()))

    setup_s = None
    if not args.trace:
        setup_s, samples = measure_setup()
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
    workload = workloads.make(args.workload, args.seed, args.tiny, bootstrap.OUT_DIR)
    # Warm-up at tiny size: loads lazy imports and fills caches, untimed.
    workloads.make(args.workload, args.seed, True, bootstrap.OUT_DIR).run_pass()

    untraced, traced, tracers = [], [], []
    identical = True
    measure0 = time.perf_counter()
    while True:
        cycle0 = time.perf_counter()
        untraced.append(workload.run_pass())
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(workload.run_pass(tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            identical = identical and traced[-1].outputs == untraced[-1].outputs
        now = time.perf_counter()
        if now - measure0 >= args.seconds or (now - started) + (now - cycle0) > DEADLINE_S:
            break

    passes = untraced + traced
    for label, result in [("pass", r) for r in untraced] + [("traced pass", r) for r in traced]:
        print(f"# {label}: wall {result.wall_s:.4f} s, cpu {result.cpu_s:.4f} s, "
              f"ops {result.attempted} attempted, {result.failed} failed; steps "
              + json.dumps({k: round(v, 4) for k, v in result.steps.wall.items()}))
    if isinstance(workload, workloads.SolveWorkload):
        print("# pcg iterations:", json.dumps(workload.iterations(untraced[0])))
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"# ops: {attempted} attempted, {failed} failed, ops_failed_frac {failed / attempted:g}")

    if args.trace:
        cli_spans = [f"cli.{c}" for cmds in workloads.STUDY_COMMANDS.values() for c in cmds]
        per_pass = [t.layer_metrics(cli_spans) for t in tracers]
        computed = _median_metrics(per_pass)
        computed["trace.spans"] = statistics.median(len(t.spans) for t in tracers)
        computed["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                           / statistics.median(r.wall_s for r in untraced) - 1.0)
        computed["ops_failed_frac"] = failed / attempted
        stem = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
        with open(bootstrap.OUT_DIR / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for index, tracer in enumerate(tracers):
                for record in tracer.records():
                    fh.write(json.dumps({"pass": index, **record}) + "\n")
        (bootstrap.OUT_DIR / f"layers-{stem}.json").write_text(
            json.dumps(computed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        names = [m["name"] for m in spec["per_layer"]]
        print(f"# traced passes {len(traced)}, tracing overhead "
              f"{computed['trace.overhead_frac']:+.4f} of untraced wall time")
    else:
        computed = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "cpu_s": statistics.median(r.cpu_s for r in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]

    result = {
        "correct": identical and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": computed[name], "unit": unit_of(name)} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
