"""Benchmark of entchar: one workload per run, checked outputs, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``characterize-bd``: the CLI's ``characterize`` on a 10^6-sample
  Bell-diagonal prior, in-process; one op is one whole command.
* ``sweep-grid``: records through update, summary, histogram, mean state
  and ``criteria.compare``, against one 600x600 grid prior built in
  set-up; rho1 records take the Bell-diagonal fit's numerical fallback.

Each run is a closed loop with one caller: the next op starts when the
previous one returns. With ``--trace 0`` the run prints the end-to-end
metrics. With ``--trace 1`` it runs the ops for half the time untraced,
then again from the first op for the other half with every public
function of the program's modules wrapped in a span, and prints per-layer
calls, total and self time, plus the tracing overhead as the drop in ops
per second. Set-up is measured several times
and its median reported; the import of ``entchar`` is timed in fresh
interpreters. Every op's output is checked; at the reference seed also
against ``reference.json``. The last line of standard output is the
result object. Details (environment, per-op latencies, failures, spans)
go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

REFERENCE_SEED = 0
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
MIN_TAIL_SAMPLES = 100  # p90 has at least ten samples beyond it from here on

#: Spans reported as `<name>.calls`, `.total_ms` and `.self_ms`.
LAYERS = (
    "cli.cmd_characterize",
    "measurement.load_record",
    "measurement.frequencies",
    "families.simplex_prior_bell_diagonal",
    "families.grid_prior_two_param",
    "families.coherence_factor",
    "families.TestSet.outcome_probs",
    "families.TestSet.matrices",
    "posterior.log_likelihood_vector",
    "posterior.update_posterior",
    "posterior.summarize",
    "posterior.histogram_negativity",
    "posterior.mean_state",
    "criteria.compare",
    "criteria.fit_bell_diagonal.closed",
    "criteria.fit_bell_diagonal.fallback",
    "criteria.fit_two_param",
    "criteria.log_l_full_bound",
    "criteria.log_l_bell_diagonal",
    "criteria.log_l_two_param",
    "linalg.negativity",
    "linalg.purity",
    "linalg.validate_state",
)

_IMPORT_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import entchar
elapsed = time.perf_counter() - t
if not entchar.__file__.startswith(sys.argv[1]):
    sys.exit("entchar imported from outside " + sys.argv[1])
print(elapsed)
"""


def import_seconds() -> list:
    """`import entchar` timed in fresh interpreters, as each CLI call pays it."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_CHILD, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing entchar failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "seed": seed,
    }


def timed_phase(wl, first_op: int, seconds: float, tracer=None):
    """Run ops back to back until `seconds` have passed (at least one op).

    Returns (latencies_s, outputs, elapsed_s); an op that raised has its
    formatted traceback as output.
    """
    latencies, outputs = [], []
    i = first_op
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # counted as a failed op, run goes on
            out = RuntimeError("".join(traceback.format_exception(exc)))
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append(out)
        i += 1
        if t1 >= deadline:
            return latencies, outputs, t1 - start


def check_outputs(wl, first_op: int, outputs, reference) -> list:
    """(op, message) for every op that raised or failed a check."""
    failures = []
    for i, out in enumerate(outputs, start=first_op):
        if isinstance(out, RuntimeError):
            failures.append((i, str(out)))
            continue
        ref = reference[i % len(reference)] if reference is not None else None
        try:
            failures += [(i, msg) for msg in wl.check(i, out, ref)]
        except Exception as exc:  # an output the checks cannot read fails its op
            failures.append((i, "".join(traceback.format_exception(exc))))
    return failures


def layer_metrics(spans_list, ops_per_s: float, untraced_ops_per_s: float) -> dict:
    from perfbench import spans

    totals = spans.layer_totals(spans_list)
    m = {}
    for name in LAYERS:
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.total_ms"] = total * 1e3
        m[f"{name}.self_ms"] = own * 1e3
    sizes = [s.size for s in spans_list if s.name == "posterior.log_likelihood_vector"]
    m["posterior.states_evaluated"] = sum(sizes)
    # Computed, not measured: n_states x 20 outcomes x 8 B of float64.
    m["families.outcome_table_mb"] = max(sizes, default=0) * 20 * 8 / 1e6

    def enclosing_compare(i):
        while i is not None and spans_list[i].name != "criteria.compare":
            i = spans_list[i].parent
        return i

    n_compares = sum(s.name == "criteria.compare" for s in spans_list)
    fits = [i for i, s in enumerate(spans_list) if s.name.startswith("criteria.fit_bell_diagonal.")]
    fallback = {enclosing_compare(i) for i in fits if spans_list[i].name.endswith(".fallback")}
    fallback.discard(None)
    m["criteria.fallback_ratio"] = len(fallback) / n_compares if n_compares else 0.0
    m["criteria.fit_bell_diagonal.calls_per_compare"] = len(fits) / n_compares if n_compares else 0.0
    m["trace.ops_per_s"] = ops_per_s
    m["trace.overhead_pct"] = 100.0 * (1.0 - ops_per_s / untraced_ops_per_s)
    return m


def end_to_end_metrics(setup_s, latencies, elapsed, attempted, n_raised, n_failed) -> dict:
    import numpy as np

    ms = np.asarray(latencies) * 1e3
    return {
        "setup_s": setup_s,
        "ops_per_s": (attempted - n_raised) / elapsed,
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - n_failed) / attempted,
    }


def run(args, bench: dict, workdir: Path) -> dict:
    from perfbench import spans, workloads

    wl_class = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    modules = [sys.modules[f"entchar.{m}"] for m in
               ("cli", "measurement", "families", "posterior", "criteria", "linalg")]

    def traced(on: bool):
        if on:
            tracer.install(modules,
                           suffix={"criteria.fit_bell_diagonal":
                                   lambda res: ".closed" if res[1] else ".fallback"},
                           sized={"posterior.log_likelihood_vector"})
        else:
            tracer.uninstall()
        tracer.enabled = on

    env = environment(args.seed)
    imports = import_seconds()
    setups = []
    for rep in range(SETUP_REPEATS):
        wl = None  # release the previous repetition's inputs and prior first
        last_traced = tracer is not None and rep == SETUP_REPEATS - 1
        if last_traced:
            traced(True)
        t0 = time.perf_counter()
        wl = wl_class(args.seed, workdir)
        wl.prepare()
        setups.append(time.perf_counter() - t0)
        if last_traced:
            traced(False)
    setup_s = statistics.median(imports) + statistics.median(setups)

    if tracer is None:
        latencies, outputs, elapsed = timed_phase(wl, 0, args.seconds)
        phases = [(0, outputs)]
    else:
        lat_u, out_u, el_u = timed_phase(wl, 0, args.seconds / 2)
        traced(True)
        # Same inputs in the same order as the untraced half, so the drop in
        # ops per second is the tracing overhead alone.
        latencies, out_t, elapsed = timed_phase(wl, 0, args.seconds / 2, tracer)
        traced(False)
        phases = [(0, out_u), (0, out_t)]
        untraced_ops_per_s = sum(not isinstance(o, RuntimeError) for o in out_u) / el_u

    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())[args.workload]
    failures, attempted, n_raised = [], 0, 0
    for first, outs in phases:
        attempted += len(outs)
        n_raised += sum(isinstance(o, RuntimeError) for o in outs)
        failures += check_outputs(wl, first, outs, reference)
    n_failed = len({i for i, _ in failures})

    if tracer is None:
        metrics = end_to_end_metrics(setup_s, latencies, elapsed, attempted, n_raised, n_failed)
        kind = "end_to_end"
    else:
        ops_per_s = (len(out_t) - sum(isinstance(o, RuntimeError) for o in out_t)) / elapsed
        metrics = layer_metrics(tracer.spans, ops_per_s, untraced_ops_per_s)
        kind = "per_layer"

    units = {m["name"]: m["unit"] for m in bench[kind]}
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {sorted(missing)}")
    details = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "import_s": imports, "setup_repeats_s": setups,
        "op_latencies_ms": [x * 1e3 for x in latencies],
        "checked_against_reference": reference is not None,
        "failures": [{"op": i, "message": msg} for i, msg in failures[:50]],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    print(f"set-up: import {statistics.median(imports):.4f} s (median of {len(imports)}), "
          f"inputs and prior {statistics.median(setups):.4f} s (median of {len(setups)})")
    notes = {f"op_p{q}_ms": f"n={len(latencies)}" for q in (50, 90)}
    if len(latencies) < MIN_TAIL_SAMPLES:
        notes["op_p90_ms"] += f"; fewer than {MIN_TAIL_SAMPLES} ops, close to the slowest op"
    notes["ok_ratio"] = f"{n_failed} of {attempted} ops failed"
    notes["families.outcome_table_mb"] = "computed as n_states x 20 x 8 B"
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {metrics[name]:>14.6g} {unit}{note}")
    for i, msg in failures[:5]:
        print(f"FAILED op {i}: {msg.splitlines()[-1]}", file=sys.stderr)
    return {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["characterize-bd", "sweep-grid"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entchar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no entchar sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import entchar

    if Path(entchar.__file__).resolve().parent != SRC / "entchar":
        raise SystemExit(f"perfbench: entchar imported from {entchar.__file__}, not {SRC}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
