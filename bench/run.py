"""Run one fraclap benchmark workload and print its metrics.

Usage, from the root of a fraclap checkout:

    python3 bench/run.py --workload ball-dirichlet --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
pass_frac, min_digits); wall_s and setup_s are scaled to the reference host
speed (see ``fraclap_bench/hostspeed.py``), and peak_rss_mb is the process
peak less the benchmark's own arrays (inputs, calibration buffers).
``--trace 1`` additionally runs one traced pass and prints the per-layer
metrics instead; the spans are written to ``.bench_out/`` in the checkout.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

The workload is one closed-loop caller in this process with BLAS pinned
to one thread.  Passes repeat until ``--seconds`` would be exceeded (at
least one); wall_s is the median of their scaled times.  The program is
imported from the checkout's ``src/``; without it the script exits with
status 2.
"""
from __future__ import annotations

import os

# pin BLAS before NumPy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from fraclap_bench import hostspeed, tracing, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SUBMODULES = ("core", "kernels", "quadrature", "solver", "verify")
#: fresh interpreters timed for setup_s; one more runs first, untimed, to warm caches
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import fraclap, " + ", ".join(f"fraclap.{m}" for m in SUBMODULES) + "; print('imported', flush=True)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0.0:
        ap.error("--seconds must be positive")
    return args


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(repeats=SETUP_REPEATS):
    """Median time from spawning an interpreter until fraclap and its submodules are imported.

    Each timed spawn is scaled to the reference host speed by the probes
    taken just before and just after it.
    """
    times, probes = [], []
    for i in range(repeats + 1):
        if i:
            probes.append(hostspeed.probe())
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != "imported":
            raise RuntimeError(f"importing fraclap in a fresh interpreter failed ({proc.returncode})")
        if i:
            times.append(elapsed)
    probes.append(hostspeed.probe())
    return statistics.median(hostspeed.scaled(t, a, b) for t, a, b in zip(times, probes, probes[1:]))


def import_library():
    sys.path.insert(0, str(SRC))
    import importlib

    lib = importlib.import_module("fraclap")
    for m in SUBMODULES:
        importlib.import_module(f"fraclap.{m}")
    if Path(lib.__file__).resolve().parent != SRC / "fraclap":
        raise RuntimeError(f"fraclap was imported from {lib.__file__}, not from this checkout")
    return lib


def timed_passes(workload, lib, inputs, seconds):
    """Repeat the timed pass, probes included, until the next one would overrun ``seconds``.

    Returns one ``Stopwatch`` per pass and the last pass's outputs.
    """
    watches = []
    begin = time.perf_counter()
    while True:
        outputs = None
        gc.collect()
        watch = hostspeed.Stopwatch()
        with watch.lapping_after(hostspeed.lap_sites(lib)):
            watch.start()
            outputs = workload.run(lib, inputs, watch.lap)
            watch.stop()
        watches.append(watch)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(watches) > seconds:
            return watches, outputs


def traced_pass(workload, lib, inputs, seed):
    """One pass with span tracing on.

    It probes host speed only at the workload's own laps, which fall between
    top-level library calls and so outside every span.
    """
    tracer = tracing.Tracer()
    watch = hostspeed.Stopwatch()
    gc.collect()
    with tracer.installed(tracing.boundaries(lib)):
        watch.start()
        outputs = workload.run(lib, inputs, watch.lap)
        watch.stop()
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}",
                 {"workload": workload.name, "seed": seed, "raw_s": watch.raw_s, "scaled_s": watch.scaled_s})
    return tracer, watch, outputs


def max_rss_mb():
    """High-water resident set size of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def array_bytes(obj):
    """Bytes held by the NumPy arrays in a nest of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


def environment(lib):
    import scipy

    return (f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
            f"fraclap {lib.__version__}, nproc {os.cpu_count()}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]
    setup_s = measure_setup()
    lib = import_library()
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# {environment(lib)}")
    inputs = workload.make_inputs(lib, args.seed)
    own_mb = (array_bytes(inputs) + hostspeed.BUFFER_BYTES) / 1e6
    inputs_peak_mb = max_rss_mb()
    watches, outputs = timed_passes(workload, lib, inputs, args.seconds)
    # the process peak less the benchmark's own arrays (the inputs and the
    # calibration loop's), which the process holds throughout; make_inputs
    # keeps its temporaries small, so its own peak stays below that of the
    # timed region
    peak_rss_mb = max_rss_mb() - own_mb
    wall_s = statistics.median(w.scaled_s for w in watches)
    print(f"# untraced passes: {len(watches)}; scaled " + ", ".join(f"{w.scaled_s:.3f}" for w in watches)
          + " s; raw " + ", ".join(f"{w.raw_s:.3f}" for w in watches) + " s; median probe "
          + ", ".join(f"{statistics.median(w.probes) * 1e3:.2f}" for w in watches)
          + f" ms (reference {hostspeed.REFERENCE_LOOP_S * 1e3:.2f} ms)")
    print(f"# max rss: {inputs_peak_mb:.1f} MB after make_inputs, {peak_rss_mb + own_mb:.1f} MB after "
          f"the timed passes; benchmark arrays {own_mb:.1f} MB")
    if args.trace:
        outputs = None
        tracer, traced_watch, outputs = traced_pass(workload, lib, inputs, args.seed)
    facts = workload.measure(lib, inputs, outputs)
    score = workload.score(inputs, facts)

    if args.trace:
        metrics = tracing.layer_summary(tracer, nodes=facts.get("nodes", 0))
        metrics.update(dict.fromkeys(workloads.LAYER_FACTS, 0))
        metrics.update(workload.layer_facts(facts))
        metrics["trace.overhead_s"] = traced_watch.scaled_s - wall_s
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (score.attempted - score.failed) / score.attempted,
            "min_digits": score.min_digits,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"fail_frac {score.failed / score.attempted:.6g} (failed {score.failed} of {score.attempted}); "
          f"unreported reference misses {score.unreported}; correct {score.correct}")
    for label in score.failures:
        print(f"  failed: {label}")
    result = {
        "correct": score.correct,
        "attempted": score.attempted,
        "failed": score.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def declared_units(kind):
    """{metric name: unit} for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_all(args):
    """Run every workload in its own process; print their results and one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with status {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fraclap" / "__init__.py").is_file():
        print(f"error: no fraclap source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
    elif args.workload in workloads.WORKLOADS:
        run_one(args)
    else:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
