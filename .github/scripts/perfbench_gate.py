#!/usr/bin/env python3
"""Hard gate on perfbench's pinned figures.

    perfbench_gate.py BASELINE WORKLOAD RESULT

RESULT holds perfbench's output for WORKLOAD, run at full size with
`--trace 0`; its last line is the JSON result line. The gate fails unless
the run is correct, no operation failed and `ok_frac` is 1; `rounds` and
`messages` equal the baseline's exactly; and, where the baseline pins
`alloc_mib`, the run allocates at most `alloc_tolerance` above it.
"""

import json
import sys


def main(baseline_path, workload, result_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    pinned = baseline["workloads"][workload]
    with open(result_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        return [f"{result_path}: no result line"]
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}

    problems = []
    if result["correct"] is not True:
        problems.append(f"correct is {result['correct']}")
    if result["failed"] != 0:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    if metrics["ok_frac"] != 1:
        problems.append(f"ok_frac is {metrics['ok_frac']}, not 1")
    for name in ("rounds", "messages"):
        if metrics[name] != pinned[name]:
            problems.append(f"{name} is {metrics[name]}, pinned {pinned[name]}")
    if "alloc_mib" in pinned:
        ceiling = pinned["alloc_mib"] * (1 + baseline["alloc_tolerance"])
        if metrics["alloc_mib"] > ceiling:
            problems.append(
                f"alloc_mib is {metrics['alloc_mib']}, over {ceiling:.1f} "
                f"({pinned['alloc_mib']} pinned + {baseline['alloc_tolerance']:.0%})"
            )
    return problems


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    problems = main(*sys.argv[1:])
    for p in problems:
        print(f"perfbench gate, {sys.argv[2]}: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"perfbench gate, {sys.argv[2]}: ok")
