"""Benchmark of sobolev-lab: four workloads, end-to-end and per-layer metrics.

Run from the repository root; it imports the package from ./src:

    python3 benches/run.py --workload reproduce --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py): reproduce, spectra, degenerate_fine and
coarse_batch.  One run, in one process with one BLAS thread:

1. with ``--trace 0``, times three fresh interpreters that import
   sobolev_lab and make a first call into each layer the workload uses
   (probe.py), and reports their median as ``setup_s``;
2. runs one discarded warm-up pass at the smallest resolution of each of
   the workload's grids, so every code path has run once (a full
   degenerate_fine pass takes about 25 s);
3. with ``--trace 0``, runs timed passes until ``--seconds`` have passed
   (at least one) and reports the median pass as ``wall_s``;
   both ``setup_s`` and ``wall_s`` are scaled to a reference host speed
   (see REFERENCE_S);
4. with ``--trace 1``, runs one untraced and one traced pass (tracer.py)
   and reports the per-layer metrics of the traced pass, and the tracing
   overhead as the difference of the two, instead of the end-to-end ones.

Run every workload with
``for w in reproduce spectra degenerate_fine coarse_batch; do python3 benches/run.py --workload $w; done``;
``python3 benches/selftest.py`` checks the harness itself in seconds.

Every operation's output is checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it record the run environment, failed operations and a readable
metric table.  ``correct`` is false when an operation fails that is not one
of the known seed defects in ``workloads.KNOWN_DEFECTS``.
"""

import os

# One BLAS thread, pinned before anything in this process imports numpy.
os.environ["SOBOLEV_LAB_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce", "spectra", "degenerate_fine", "coarse_batch")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120

# Host speed on a shared machine drifts: on a shared 2-core Xeon VM a fixed
# pure-Python loop took from 57 ms to 220 ms within half an hour.  A run therefore times a fixed reference computation (an
# interpreter loop and a LAPACK call) between segments of at least
# SEGMENT_S of its probes and pass steps, and scales each segment by
# REFERENCE_S / (mean of the reference times on either side).  Reported
# seconds are those of a host on which the reference takes REFERENCE_S; the
# raw times are printed on the lines before the result.
REFERENCE_S = 0.02
REFERENCE_SAMPLES = 3
SEGMENT_S = 0.5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def import_package():
    """Import sobolev_lab from ROOT/src and nowhere else."""
    package = ROOT / "src" / "sobolev_lab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sobolev_lab sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import sobolev_lab

    if Path(sobolev_lab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sobolev_lab from {sobolev_lab.__file__}")
    return sobolev_lab


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "cores": os.cpu_count(),
    }


def reference_seconds() -> float:
    """Median time of a fixed computation using the interpreter and LAPACK."""
    import numpy as np

    matrix = np.add.outer(np.arange(160.0), np.arange(160.0)) % 7.0
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        total = 0
        for k in range(150_000):
            total += k * k
        for _ in range(4):
            np.linalg.eigh(matrix)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_steps(steps: list):
    """Run the steps; return (raw seconds, host-scaled seconds, their results)."""
    raw = scaled = segment = 0.0
    results = []
    before = reference_seconds()
    for i, step in enumerate(steps):
        start = time.perf_counter()
        results.append(step())
        segment += time.perf_counter() - start
        if segment >= SEGMENT_S or i == len(steps) - 1:
            after = reference_seconds()
            raw += segment
            scaled += segment * 2.0 * REFERENCE_S / (before + after)
            before, segment = after, 0.0
    return raw, scaled, results


def probe(command: list) -> None:
    """Run one set-up probe.  A watchdog kills it after PROBE_TIMEOUT_S; a
    blocking wait (unlike a polled one) adds no delay to the measured time."""
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        code = process.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise RuntimeError(f"set-up probe {command} exited with {code}")


def setup_seconds(workload: str) -> list:
    """(raw, scaled) wall times of fresh interpreters running probe.py for the workload."""
    command = [sys.executable, str(HERE / "probe.py"), workload]
    return [timed_steps([lambda: probe(command)])[:2] for _ in range(SETUP_REPEATS)]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (result dict, human-readable report lines)."""
    import tracer
    import workloads

    lines = [f"env {json.dumps(environment())}"]
    setup = [] if trace else setup_seconds(workload)
    with tempfile.TemporaryDirectory(prefix=".benches-", dir=ROOT) as tmpdir:
        for step in workloads.make(workload, seed, tmpdir, "tiny" if tiny else "warmup"):
            step()
        steps = workloads.make(workload, seed, tmpdir, "tiny" if tiny else "full")
        times, outcomes = [], []
        start = time.perf_counter()
        while not times or (not trace and time.perf_counter() - start < seconds):
            raw, scaled, results = timed_steps(steps)
            times.append((raw, scaled))
            outcomes += [outcome for result in results for outcome in result]
        if trace:
            with tracer.Tracer() as spans:
                traced, _, results = timed_steps(steps)
            outcomes += [outcome for result in results for outcome in result]
    attempted = len(outcomes)
    failed = [(name, checks) for name, checks in outcomes if checks]
    known = workloads.KNOWN_DEFECTS.get(workload, frozenset())
    correct = not any(name not in known for name, _ in failed)
    for name, checks in dict(failed).items():
        tag = "known defect" if name in known else "FAILED"
        lines.append(f"{tag} {workload}/{name}: {'; '.join(checks)}")
    for label, pairs in (("setup", setup), ("passes", times)):
        lines.append(f"{label} raw/scaled s: "
                     + " ".join(f"{raw:.3f}/{scaled:.3f}" for raw, scaled in pairs))
    lines.append(f"failed_ratio {len(failed) / attempted:.6g} ({len(failed)}/{attempted})")
    if trace:
        values = spans.metrics()
        units = tracer.metric_units()
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - times[0][0]
        units.update(TRACE_UNITS)
        for layer, share in spans.top_layers(traced):
            lines.append(f"top layer {layer}: {share:.1%} of the traced pass")
    else:
        values = {
            "wall_s": statistics.median(scaled for _, scaled in times),
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - len(failed)) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    lines += [f"{name:<48} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
