"""Fast self-test of the benchmark harness at tiny sizes.

    python3 benches/selftest.py

Runs every workload at tiny sizes, with tracing off and on, and checks
that each end-to-end and per-layer metric named in BENCHMARK.json is
reported with its unit and no other is; that the tiny passes have no
failed operation; and that a deliberately wrong reference counts as a
failed operation.  Exits 0 when every check holds.
"""

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    run.SETUP_REPEATS = 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for workload in run.WORKLOADS:
            result, _ = run.measure(workload, seed=0, seconds=0, trace=trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} --trace {int(trace)}"
            if got != want:
                missing = sorted(set(want.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want.items()))
                problems.append(f"{where}: missing {missing}, unexpected {extra}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} failed operations")

    exact = workloads.exact_eigenvalues
    workloads.exact_eigenvalues = lambda *args: exact(*args) + 1.0
    try:
        result, _ = run.measure("spectra", seed=0, seconds=0, trace=False, tiny=True)
    finally:
        workloads.exact_eigenvalues = exact
    if result["failed"] != result["attempted"] or result["correct"]:
        problems.append(f"wrong reference not caught: {result}")

    print("\n".join(problems) or "selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
