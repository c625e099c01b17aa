"""expandiff benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload temporal|spatial|oracle --seed N \
        --seconds S --trace 0|1

Run from a checkout whose ``src/`` holds the package; nothing is installed.
One client runs the workload in a closed loop: each pass over the
workload's studies starts when the previous one has returned, until
``--seconds`` have gone by (at least one pass).  Every output is checked.

``--trace 0`` reports the end-to-end metrics: median wall and CPU time of a
pass, set-up time (median of fresh processes that import the package and make
one tiny solve), peak RSS of this process, the share of studies that pass the
gate, and -log10 of the largest finest-resolution error.  Pass times are
scaled to a reference machine speed, sampled with a fixed calibration loop
every 0.1 s (see ``SpeedClock``); the unscaled times are printed too.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, the tracing overhead and the share of wall time that layer
self times cover.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
list every metric with unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_RUNS = 5
CALIBRATION_SWEEPS = 50
# calibrate() on a 2-vCPU Xeon host with Python 3.11 at its fastest; scaled
# times read as seconds at that speed.
CALIBRATION_REF_S = 0.0083
SAMPLE_INTERVAL_S = 0.1
SETUP_CODE = """\
import math, sys
import expandiff as ex
spec = ex.ProblemSpec(alpha=0.5, final_time=1.0,
                      coefficient=ex.CoefficientLaw.constant(1.0),
                      initial=ex.PiecewiseFn.sine(1), source=ex.SourceTerm.zero())
run = ex.solve(spec, 8, 8)
sys.exit(0 if all(math.isfinite(v) for v in run.final) else 1)
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio", "max_err_digits": "digits"}
PER_LAYER_UNITS = {
    "calls": "count", "rows": "count", "steps": "count", "dof_steps": "count",
    "weights": "count", "history_flops": "flop", "trajectory_bytes_max": "B",
    "bytes": "B", "rows_used_ratio": "ratio", "self_share": "ratio",
    "call_ms_p50": "ms", "call_ms_p90": "ms",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Wall times of fresh processes that import the package and solve once.

    One unrecorded process first writes the bytecode caches, which a user
    pays once, not on every run.  These times are not scaled by
    ``calibrate``: process start-up (exec, loading shared libraries,
    unmarshalling bytecode) does not follow its speed.
    """
    times = []
    env = subprocess_env()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: "
                               + proc.stderr.decode(errors="replace").strip())
        if i:
            times.append(elapsed)
    return times


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Seconds a fixed loop takes now: Thomas sweeps in pure Python over
    numpy arrays, the operation mix that dominates the workloads.

    The loop lives here, apart from the program, so a change to the program
    never changes it.  Shared machines drift in speed by tens of per cent
    within seconds; dividing by this time, sampled often, takes most of that
    drift out of the reported times.
    """
    n = 127
    sub, sup, diag = np.full(n - 1, -1.0), np.full(n - 1, -1.0), np.full(n, 4.0)
    rhs, cp, dp, x = np.ones(n), np.empty(n), np.empty(n), np.empty(n)
    start = time.perf_counter()
    for _ in range(CALIBRATION_SWEEPS):
        cp[0], dp[0] = sup[0] / diag[0], rhs[0] / diag[0]
        for i in range(1, n):
            piv = diag[i] - sub[i - 1] * cp[i - 1]
            if i < n - 1:
                cp[i] = sup[i] / piv
            dp[i] = (rhs[i] - sub[i - 1] * dp[i - 1]) / piv
        x[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            x[i] = dp[i] - cp[i] * x[i + 1]
    return time.perf_counter() - start


class SpeedClock:
    """Wall and CPU time of a pass, also scaled to the calibration loop's
    reference speed.

    Inside ``with``, a SIGALRM timer calls ``sample`` every
    ``SAMPLE_INTERVAL_S`` of real time, whatever code is running.  Each
    sample runs ``calibrate`` and closes the stretch of work since the
    previous one; that stretch is scaled by the reference time over the mean
    of the calibration times at its two ends.  Time spent calibrating is not
    counted.
    """

    def __init__(self):
        self.wall = self.cpu = self.scaled_wall = self.scaled_cpu = 0.0
        self._mark: tuple[float, float, float] | None = None
        self._handler = None
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def sample(self) -> None:
        if self._busy:  # an alarm during a sample on a very slow machine
            return
        self._busy = True
        wall, cpu = time.perf_counter(), cpu_seconds()
        cal = calibrate()
        if self._mark is not None:
            wall0, cpu0, cal0 = self._mark
            factor = 2 * CALIBRATION_REF_S / (cal0 + cal)
            self.wall += wall - wall0
            self.cpu += cpu - cpu0
            self.scaled_wall += (wall - wall0) * factor
            self.scaled_cpu += (cpu - cpu0) * factor
        self._mark = (time.perf_counter(), cpu_seconds(), cal)
        self._busy = False


def timed_pass(workload: Workload, expandiff) -> tuple[float, list]:
    """(wall s, per-study outcomes) of one pass over the workload."""
    start = time.perf_counter()
    studies = workload.run_once(expandiff)
    return time.perf_counter() - start, outcomes_of(studies)


def scaled_pass(workload: Workload, expandiff) -> tuple[SpeedClock, list]:
    """One pass timed by a ``SpeedClock``."""
    with SpeedClock() as clock:
        studies = workload.run_once(expandiff)
    return clock, outcomes_of(studies)


def traced_pass(workload: Workload, expandiff, tracer: Tracer) -> tuple[dict, list]:
    """(per-layer metrics, per-study outcomes) of one traced pass."""
    tracer.reset()
    tracer.install()
    try:
        wall, out = timed_pass(workload, expandiff)
    finally:
        tracer.uninstall()
    return tracer.metrics(wall) | {"trace.wall_s": wall}, out


def outcomes_of(studies) -> list:
    return [(s.label, s.ok, s.finest_err, s.problem) for s in studies]


def blas_info() -> dict:
    """BLAS library numpy uses, and its thread count where it can be asked."""
    info = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def cache_sizes() -> dict:
    """Size of each CPU cache level, from the kernel's description of cpu0."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = f"{size} (cpus {shared})"
    return out


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "blas": blas_info(), "caches": cache_sizes(),
            "machine": platform.machine()}


def import_package():
    if not (SRC / "expandiff" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package sources at {SRC / 'expandiff'}")
    sys.path.insert(0, str(SRC))
    import expandiff
    import expandiff.cli  # noqa: F401  (cli is not imported by the package)

    if Path(expandiff.__file__).resolve().parent != (SRC / "expandiff").resolve():
        raise ImportError(f"expandiff imported from {expandiff.__file__}, not {SRC}")
    return expandiff


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def max_err_digits(outcomes: list) -> float:
    errs = [e for _, ok, e, _ in outcomes if math.isfinite(e) and e > 0]
    return -math.log10(max(errs)) if errs else 0.0


def run(args) -> int:
    expandiff = import_package()
    tracer = Tracer(expandiff) if args.trace else None
    setup, walls, cpus, scaled_walls, scaled_cpus, traced = [], [], [], [], [], []
    outcomes: list = []
    if tracer is None:
        setup = measure_setup()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = Workload(args.workload, args.seed, workdir)
        start = time.perf_counter()
        while True:
            if tracer is None:
                clock, out = scaled_pass(workload, expandiff)
                walls.append(clock.wall)
                cpus.append(clock.cpu)
                scaled_walls.append(clock.scaled_wall)
                scaled_cpus.append(clock.scaled_cpu)
            elif len(walls) <= len(traced):
                wall, out = timed_pass(workload, expandiff)
                walls.append(wall)
            else:
                metrics, out = traced_pass(workload, expandiff, tracer)
                traced.append(metrics)
            outcomes += out
            enough = tracer is None or traced
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for _, ok, _, _ in outcomes if not ok)
    rows = []  # (name, value, samples)
    if tracer is None:
        print(f"# unscaled: wall_s {median(walls):.4f} s, cpu_s {median(cpus):.4f} s; "
              f"speed factor {median(walls) / median(scaled_walls):.4f} (now / reference)")
        rows += [("wall_s", median(scaled_walls), len(walls)),
                 ("cpu_s", median(scaled_cpus), len(cpus)),
                 ("setup_s", median(setup), len(setup)),
                 ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
                 ("pass_ratio", (attempted - failed) / attempted, attempted),
                 ("max_err_digits", max_err_digits(outcomes), attempted)]
        rows = [(name, value, END_TO_END_UNITS[name], n) for name, value, n in rows]
    else:
        for name in traced[0]:
            rows.append((name, median([m[name] for m in traced]), per_layer_unit(name),
                         len(traced)))
        # the first pass in a process also fills mpmath's and numpy's caches
        untraced = walls[1:] or walls
        rows.append(("trace.overhead_s", median([m["trace.wall_s"] for m in traced])
                     - median(untraced), "s", len(traced) + len(untraced)))

    for label, ok, err, problem in outcomes[:attempted // max(len(walls) + len(traced), 1)]:
        print(f"# {'PASS' if ok else 'FAIL'} {label}: finest error {err:.4e}"
              + (f" ({problem})" if problem else ""))
    print(f"# fail_ratio {failed / attempted:.4f} ({failed} of {attempted} studies)")
    for name, value, unit, n in rows:
        print(f"# {name:<32} {value:>16.6g} {unit:<6} n={n}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, value, unit, _ in rows}}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
