"""
Span tracing of pnpf from outside the package, and the per-layer metrics
derived from the spans.

`Tracer.install` replaces the public functions of each traced module with
timing wrappers, in every module namespace that holds them, so a name
imported elsewhere (constitutive_fluxes in thermo_audit and varcheck,
grid.integrate as `quad`) is traced where it is looked up.  The two
private RHS kernels that the steppers call are traced under the public
names rhs_primitive and rhs_perturbation.  GridSpec.fft/ifft count real
fields transformed (batch elements), which gives each span an exact
inclusive transform count.

A span is [name, start, end, parent index, transforms, child seconds];
spans stay in memory and are written out when the run ends.  Self time is
a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from math import prod

MODULES = ("grid", "poisson", "fields", "dynamics", "thermo_audit", "decay", "varcheck",
           "snapshot")
KERNEL_ALIASES = {
    "_rhs_primitive_arrays": "rhs_primitive",
    "_rhs_perturbation_arrays": "rhs_perturbation",
}
# public wrappers of the kernels above; the kernel span carries their name
SKIP = {"rhs_primitive", "rhs_perturbation"}
TRANSFORMS = ("grid.fft", "grid.ifft")

NAME, START, END, PARENT, FIELDS, CHILD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._fields = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, transform: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self._fields, 0.0]
            if transform:
                grid, arr = args[0], args[1]
                self._fields += prod(arr.shape[: arr.ndim - grid.dim])
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[END] = end
                rec[FIELDS] = self._fields - rec[FIELDS]
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"pnpf.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj) or attr in SKIP:
                    continue
                if attr.startswith("_") and attr not in KERNEL_ALIASES:
                    continue
                label = f"{short}.{KERNEL_ALIASES.get(attr, attr)}"
                wrappers[obj] = self._wrap(label, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        grid_cls = mods["grid"].GridSpec
        self._set(grid_cls, "fft", self._wrap("grid.fft", grid_cls.fft, True))
        self._set(grid_cls, "ifft", self._wrap("grid.ifft", grid_cls.ifft, True))
        writer = mods["thermo_audit"].AuditWriter
        self._set(writer, "observe", self._wrap("thermo_audit.observe", writer.observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)


# -- per-layer metrics ----------------------------------------------------------


def _by_name(spans: list[list]) -> dict[str, list[list]]:
    out: dict[str, list[list]] = {}
    for s in spans:
        out.setdefault(s[NAME], []).append(s)
    return out


def _count_under(solves: list[list[list]], child: str, ancestor: str) -> int:
    """Spans named child with an ancestor named ancestor (parent indices
    are per solve)."""
    count = 0
    for spans in solves:
        for s in spans:
            if s[NAME] != child:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != ancestor:
                p = spans[p][PARENT]
            count += p >= 0
    return count


def _median_ms(group: list[list]) -> float:
    return 1e3 * statistics.median(s[END] - s[START] for s in group) if group else 0.0


def _percentile_ms(group: list[list], q: float) -> float:
    if not group:
        return 0.0
    d = sorted(s[END] - s[START] for s in group)
    return 1e3 * d[min(len(d) - 1, int(q * len(d)))]


def _per_call(group: list[list], field: int) -> float:
    return sum(s[field] for s in group) / len(group) if group else 0.0


def layer_metrics(solves: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics from the span lists of the traced solves."""
    n_solves = len(solves)
    spans = [s for solve in solves for s in solve]
    by = _by_name(spans)
    g = lambda name: by.get(name, [])  # noqa: E731
    transforms = g("grid.fft") + g("grid.ifft")
    fields_total = sum(s[FIELDS] for s in transforms)
    self_per_solve = [
        sum(s[END] - s[START] - s[CHILD] for s in solve if s[NAME] in TRANSFORMS)
        for solve in solves
    ]
    steps = len(g("dynamics.step"))
    observes = len(g("thermo_audit.observe"))
    reports = len(g("varcheck.varcheck_report"))
    rhs_ms = _median_ms(g("dynamics.rhs_primitive"))
    obs_ms = _percentile_ms(g("thermo_audit.observe"), 0.5)
    m = {
        "grid.transform.fields": fields_total / n_solves,
        "grid.transform.calls": len(transforms) / n_solves,
        "grid.transform.self_s": statistics.median(self_per_solve),
        "grid.transform.us_per_field":
            1e6 * sum(s[END] - s[START] for s in transforms) / max(fields_total, 1),
    }
    for rhs in ("dynamics.rhs_primitive", "dynamics.rhs_perturbation"):
        m[f"{rhs}.transforms"] = _per_call(g(rhs), FIELDS)
        m[f"{rhs}.ms"] = _median_ms(g(rhs))
    m.update({
        "dynamics.step.ms_p50": _percentile_ms(g("dynamics.step"), 0.5),
        "dynamics.step.ms_p90": _percentile_ms(g("dynamics.step"), 0.9),
        "dynamics.step.transforms": _per_call(g("dynamics.step"), FIELDS),
        "poisson.solve.calls_per_step":
            _count_under(solves, "poisson.solve", "dynamics.step") / steps if steps else 0.0,
        "poisson.solve.transforms": _per_call(g("poisson.solve"), FIELDS),
        "poisson.solve.ms": _median_ms(g("poisson.solve")),
        "fields.constitutive_fluxes.calls_per_sample":
            _count_under(solves, "fields.constitutive_fluxes", "thermo_audit.observe") / observes
            if observes else 0.0,
        "fields.constitutive_fluxes.ms": _median_ms(g("fields.constitutive_fluxes")),
        "fields.onsager_block.ms": _median_ms(g("fields.onsager_block")),
        "fields.reconstruct_fluxes.ms": _median_ms(g("fields.reconstruct_fluxes")),
        "thermo_audit.observe.ms_p50": obs_ms,
        "thermo_audit.observe.ms_p90": _percentile_ms(g("thermo_audit.observe"), 0.9),
        "thermo_audit.observe.transforms": _per_call(g("thermo_audit.observe"), FIELDS),
        "thermo_audit.totals.ms": _median_ms(g("thermo_audit.totals")),
        "thermo_audit.onsager_residual.ms": _median_ms(g("thermo_audit.onsager_residual")),
        # base: the median primitive RHS evaluation of the same traced solves
        "thermo_audit.observe_per_rhs": obs_ms / rhs_ms if rhs_ms and observes else 0.0,
        "decay.run.s": _median_ms(g("decay.run")) / 1e3,
        "decay.lyapunov.ms": _median_ms(g("decay.lyapunov")),
        "decay.lyapunov.transforms": _per_call(g("decay.lyapunov"), FIELDS),
        "varcheck.entropy_functional.calls":
            len(g("varcheck.entropy_functional")) / reports if reports else 0.0,
        "varcheck.entropy_functional.ms": _median_ms(g("varcheck.entropy_functional")),
        "varcheck.random_probe.ms": _median_ms(g("varcheck.random_probe")),
        "varcheck.varcheck_report.transforms": _per_call(g("varcheck.varcheck_report"), FIELDS),
        "snapshot.write_checkpoint.ms": _median_ms(g("snapshot.write_checkpoint")),
    })
    for name in ("varcheck_report", "check_conservative", "check_dissipative",
                 "force_balance_residual"):
        m[f"varcheck.{name}.s"] = _median_ms(g(f"varcheck.{name}")) / 1e3
    return m


def peak_grids(fn, grid_points: int) -> float:
    """tracemalloc peak of one call of fn, in full-grid float64 arrays."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round((peak - base) / (8 * grid_points), 1)


def write_spans(path, solves: list[list[list]]) -> None:
    """One JSON line per span: solve index, name, start, end, parent."""
    with open(path, "w") as fh:
        for i, solve in enumerate(solves):
            for s in solve:
                fh.write(json.dumps([i, s[NAME], s[START], s[END], s[PARENT]]) + "\n")
