"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the six package modules
(the layers) and ``TriDiagMatrix.matvec``.  Modules bind names such as
``solve_tridiag``, ``solve`` and ``mittag_leffler`` at import time, so each
wrapper replaces the original in every module namespace that holds it, the
package's own included.  ``uninstall`` puts the originals back.

Each call is a span: the wrapper adds its duration to the function's total
and to the enclosing span's child time, so a span's self time is its
duration minus the time its traced children cover.  Counts of the work done
(rows solved, steps taken, weights made, bytes written, trajectory rows
read) are taken at the same boundaries.  Everything stays in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "studies", "solver", "fem1d", "cq", "mittag_leffler")


def namespaces(package) -> list:
    """The package and its layer modules: every namespace that binds names."""
    return [package, *(importlib.import_module(f"{package.__name__}.{layer}")
                       for layer in LAYERS)]


def rebind(spaces, original, replacement, undo: list) -> None:
    """Bind ``replacement`` wherever a namespace binds ``original``; record
    (namespace, name, original) in ``undo``."""
    for ns in spaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                undo.append((ns, attr, original))
                setattr(ns, attr, replacement)


def restore(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


@dataclass
class Span:
    """Aggregate of every call of one traced function."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.spans:
            self.spans[name] = Span()
        self.counts.clear()
        self._stack.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        spaces = namespaces(self.package)
        modules = dict(zip(LAYERS, spaces[1:]))
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                rebind(spaces, fn, self._wrap(f"{layer}.{name}", fn), self._undo)
        fem1d, solver = modules["fem1d"], modules["solver"]
        self._replace(fem1d.TriDiagMatrix, "matvec",
                      self._wrap("fem1d.matvec", fem1d.TriDiagMatrix.matvec))
        # rows of a stored trajectory that callers read back
        final = solver.DiscreteRun.final.fget
        state = solver.DiscreteRun.state

        def read_final(run):
            self.count("solver.rows_read")
            return final(run)

        def read_state(run, n):
            self.count("solver.rows_read")
            return state(run, n)

        self._replace(solver.DiscreteRun, "final", property(read_final))
        self._replace(solver.DiscreteRun, "state", read_state)

    def uninstall(self) -> None:
        restore(self._undo)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans = self.spans
        spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = spans[name]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - child
                span.durations.append(elapsed)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- work counts taken at the span boundaries --------------------------

    def _after_fem1d_solve_tridiag(self, args, result) -> None:
        self.count("fem1d.solve_tridiag.rows", result.size)

    def _after_solver_solve(self, args, run) -> None:
        n, m = run.n_steps, run.mesh.n_interior
        self.count("solver.steps", n)
        self.count("solver.dof_steps", n * m)
        self.count("solver.history_flops", n * (n - 1) * m)
        self.count("solver.rows_stored", n + 1)
        self.counts["solver.trajectory_bytes_max"] = max(
            self.counts.get("solver.trajectory_bytes_max", 0), run.trajectory.nbytes)

    def _after_cq_generate(self, args, weights) -> None:
        self.count("cq.weights", weights.count)

    def _after_studies_write_csv(self, args, result) -> None:
        self.count("studies.write_csv.bytes", os.path.getsize(args[1]))

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last ``reset``."""
        sp, ct = self.spans, self.counts

        def calls(*names):
            return float(sum(sp[n].calls for n in names))

        def secs(*names):
            return sum(sp[n].total for n in names)

        ml_ms = [1e3 * d for d in sp["mittag_leffler.mittag_leffler"].durations]
        layer_self = {layer: sum(s.self_time for n, s in sp.items()
                                 if n.split(".", 1)[0] == layer) for layer in LAYERS}
        stored = ct.get("solver.rows_stored", 0)
        out = {
            "fem1d.solve_tridiag.calls": calls("fem1d.solve_tridiag"),
            "fem1d.solve_tridiag.rows": ct.get("fem1d.solve_tridiag.rows", 0.0),
            "fem1d.solve_tridiag.s": secs("fem1d.solve_tridiag"),
            "solver.solve.calls": calls("solver.solve"),
            "solver.solve.s": secs("solver.solve"),
            "solver.steps": ct.get("solver.steps", 0.0),
            "solver.dof_steps": ct.get("solver.dof_steps", 0.0),
            "solver.self_s": layer_self["solver"],
            "solver.history_flops": ct.get("solver.history_flops", 0.0),
            "solver.trajectory_bytes_max": ct.get("solver.trajectory_bytes_max", 0.0),
            "solver.rows_used_ratio": ct.get("solver.rows_read", 0) / stored if stored else 0.0,
            "fem1d.basis_integrals.calls": calls("fem1d.basis_integrals"),
            "fem1d.basis_integrals.s": secs("fem1d.basis_integrals"),
            "fem1d.project.s": secs("fem1d.l2_project", "fem1d.ritz_project"),
            "fem1d.assemble.s": secs("fem1d.assemble_mass", "fem1d.assemble_stiffness"),
            "fem1d.matvec.calls": calls("fem1d.matvec"),
            "fem1d.matvec.s": secs("fem1d.matvec"),
            "fem1d.post.s": secs("fem1d.l2_norm", "fem1d.prolong"),
            "fem1d.self_s": layer_self["fem1d"],
            "cq.generate.calls": calls("cq.generate"),
            "cq.generate.s": secs("cq.generate"),
            "cq.weights": ct.get("cq.weights", 0.0),
            "mittag_leffler.calls": float(len(ml_ms)),
            "mittag_leffler.s": secs("mittag_leffler.mittag_leffler"),
            "mittag_leffler.call_ms_p50": _decile(ml_ms, 5),
            "mittag_leffler.call_ms_p90": _decile(ml_ms, 9),
            "mittag_leffler.self_s": layer_self["mittag_leffler"],
            "studies.mode_error.calls": calls("studies.mode_error"),
            "studies.mode_error.s": secs("studies.mode_error"),
            "studies.self_s": layer_self["studies"],
            "studies.write_csv.s": secs("studies.write_csv"),
            "studies.write_csv.bytes": ct.get("studies.write_csv.bytes", 0.0),
            "cli.parse_config.s": secs("cli.parse_config"),
            "cli.self_s": layer_self["cli"],
            "cq.self_s": layer_self["cq"],
            "trace.self_share": sum(layer_self.values()) / wall if wall > 0 else 0.0,
        }
        return out


def _decile(values: list[float], k: int) -> float:
    """k-th decile of ``values`` (interpolated); 0.0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]
