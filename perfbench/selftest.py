"""Self-tests of the benchmark's traced run, at seed 0.

    python3 perfbench/selftest.py [workload ...]

For each workload, one traced pass checks that

* every layer the workload should exercise records calls, and every layer
  it should bypass records none (the wrappers see import-time bindings);
* the exact counts below repeat;
* the span with the largest self time is the one the workload is built
  around: the Thomas solve on ``temporal`` and ``spatial``, the
  Mittag-Leffler evaluator on ``oracle``;
* every study passes the correctness gate.

Exits 1 when a check fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Workload

EXERCISED = {
    "temporal": {"cli", "studies", "solver", "fem1d", "cq"},
    "spatial": {"cli", "studies", "solver", "fem1d", "cq"},
    "oracle": {"studies", "solver", "fem1d", "cq", "mittag_leffler"},
}

# Seed-0 counts.  temporal: 24 solves, 12,600 steps plus 24 initial
# projections; spatial: 12 solves of 2,000 steps on 32..1024 cells.
EXACT = {
    "temporal": {"fem1d.solve_tridiag.calls": 12624, "fem1d.solve_tridiag.rows": 1603248,
                 "solver.solve.calls": 24, "solver.steps": 12600, "cq.weights": 12624,
                 "solver.history_flops": 1731949800, "mittag_leffler.calls": 0},
    "spatial": {"fem1d.solve_tridiag.calls": 24012, "solver.solve.calls": 12,
                "solver.steps": 24000, "solver.history_flops": 16071960000,
                "solver.trajectory_bytes_max": 2001 * 1023 * 8, "mittag_leffler.calls": 0},
    "oracle": {"solver.solve.calls": 52, "solver.steps": 5200,
               "fem1d.solve_tridiag.calls": 5252, "mittag_leffler.calls": 208,
               "studies.mode_error.calls": 208},
}

DOMINANT = {"temporal": "fem1d.solve_tridiag", "spatial": "fem1d.solve_tridiag",
            "oracle": "mittag_leffler.mittag_leffler"}


def check(name: str, expandiff, workdir) -> list[str]:
    tracer = Tracer(expandiff)
    metrics, outcomes = run.traced_pass(Workload(name, 0, workdir), expandiff, tracer)
    problems = [f"study failed: {label}: {why}" for label, ok, _, why in outcomes if not ok]
    for layer in LAYERS:
        calls = sum(s.calls for n, s in tracer.spans.items() if n.split(".", 1)[0] == layer)
        if (calls > 0) != (layer in EXERCISED[name]):
            problems.append(f"layer {layer}: {calls} calls")
    for key, want in EXACT[name].items():
        if metrics[key] != want:
            problems.append(f"{key} = {metrics[key]}, expected {want}")
    top = max(tracer.spans, key=lambda n: tracer.spans[n].self_time)
    if top != DOMINANT[name]:
        problems.append(f"largest self time is {top}, expected {DOMINANT[name]}")
    return problems


def main(argv: list[str]) -> int:
    expandiff = run.import_package()
    failed = False
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in argv or WORKLOADS:
            problems = check(name, expandiff, workdir)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name}")
            for p in problems:
                print(f"     {p}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
