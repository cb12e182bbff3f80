"""
One fresh process of the pnpf benchmark.

    child.py --workload W --seed N --mode setup   --out FILE [--identity]
    child.py --workload W --seed N --mode measure --out FILE --seconds S --trace 0|1
             [--first-index K]

`setup` imports pnpf and builds the workload's inputs, timing each phase
(wall and main-thread CPU), then times a fixed import-like reference that
does not use pnpf; with --identity it then checks the two-formulation
identity once, outside the timed region.  `measure` does the same set-up,
then repeats the workload's solve until its solves have taken S seconds
and checks each solve's outputs outside the timed region; K numbers the
first solve.  Before the first solve and after each one it times a fixed
reference computation that does not use pnpf.  With --trace 1 the first
half of the time is untraced and the second half traced, so the tracing
overhead is measured in the same process.  The result is written as JSON
to FILE; output files of the solves go next to it.

numpy, pnpf and the benchmark modules that import them are imported inside
functions, after the set-up timer has started.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _setup(args):
    c0, t0 = time.thread_time(), time.perf_counter()
    import workloads

    wl = workloads.resolve(args.workload, args.seed, tiny=args.tiny)
    su = workloads.setup(wl)
    t1, c1 = time.perf_counter(), time.thread_time()
    return su, {"setup_s": t1 - t0, "setup_thread_s": c1 - c0,
                "grid_ms": su.grid_ms, "state_ms": su.state_ms}


SETUP_REF_ROUNDS = 6


def _setup_reference() -> float:
    """Main-thread CPU seconds of a fixed reference that resembles an
    import: compiling, marshalling and unmarshalling a stdlib module's
    source.  It does not use pnpf, numpy or scipy."""
    import argparse
    import marshal

    src = Path(argparse.__file__).read_text()
    c0 = time.thread_time()
    for _ in range(SETUP_REF_ROUNDS):
        marshal.loads(marshal.dumps(compile(src, "ref", "exec")))
    return time.thread_time() - c0


def _ops_per_solve(wl: dict) -> int:
    if wl["kind"] == "audit":
        return wl["steps"] // wl["audit_every"] + 1
    return 2 if wl["kind"] == "decay" else 1


def _aborted(out) -> bool:
    """Whether the stepper aborted inside a solve that returned."""
    if hasattr(out, "reason"):
        return out.reason is not None
    if hasattr(out, "series"):
        return not (out.series.completed and out.half.completed)
    return False


def _solve_once(su, outdir: Path, index: int, tracer):
    """One timed solve, checked afterwards; returns (record, outputs)."""
    import checks
    import workloads
    from pnpf.dynamics import StepAbort

    if tracer is not None:
        tracer.install()
    error, aborted = None, False
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = workloads.solve(su, outdir, index)
    except Exception as exc:  # StepAbort or any exception fails the solve
        out, error = None, f"{type(exc).__name__}: {exc}"
        aborted = isinstance(exc, StepAbort)
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.uninstall()
    if error is None:
        aborted = _aborted(out)
        try:
            ops = checks.check(su, out)
        except Exception as exc:  # a check that cannot run fails its operations
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        ops = [[error]] * _ops_per_solve(su.wl)
    rec = {
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "ops": len(ops),
        "failed": sum(1 for p in ops if p),
        "problems": [p for op in ops for p in op][:5],
        "aborted": aborted,
    }
    return rec, out


def _checkpoint_mb(out) -> float:
    prefix = getattr(out, "prefix", None)
    if prefix is None:
        return 0.0
    return sum(f.stat().st_size for f in prefix.parent.glob(prefix.name + ".*")) / 1e6


def _diagnostics(su, outdir: Path, names: set) -> dict:
    """Untimed per-layer diagnostics: tracemalloc peaks of the kernels the
    workload exercised, and single-worker transform cost."""
    import numpy as np
    from pnpf import dynamics, grid as grid_mod, thermo_audit

    import tracing
    import workloads

    g = su.grid
    pts = g.n ** g.dim
    prim = workloads.primitive_state(su)
    out = {
        "dynamics.rhs_primitive.peak_grids": 0.0,
        "dynamics.rhs_perturbation.peak_grids": 0.0,
        "thermo_audit.observe.peak_grids": 0.0,
    }
    if "dynamics.rhs_primitive" in names:
        out["dynamics.rhs_primitive.peak_grids"] = tracing.peak_grids(
            lambda: dynamics.rhs_primitive(prim, su.params), pts)
    if "dynamics.rhs_perturbation" in names:
        pert = dynamics.convert(prim)
        out["dynamics.rhs_perturbation.peak_grids"] = tracing.peak_grids(
            lambda: dynamics.rhs_perturbation(pert, su.params), pts)
    if "thermo_audit.observe" in names:
        writer = thermo_audit.AuditWriter(outdir / "peak-audit.csv", su.params)
        try:
            out["thermo_audit.observe.peak_grids"] = tracing.peak_grids(
                lambda: writer.observe(0.0, prim), pts)
        finally:
            writer.close()

    x = np.random.default_rng(0).standard_normal((3,) + g.shape)
    saved = getattr(grid_mod, "_WORKERS", None)
    grid_mod._WORKERS = 1
    try:
        times = []
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end or len(times) < 5:
            t = time.perf_counter()
            g.ifft(g.fft(x))
            times.append(time.perf_counter() - t)
    finally:
        if saved is None:
            del grid_mod._WORKERS
        else:
            grid_mod._WORKERS = saved
    out["grid.transform.us_per_field_1w"] = 1e6 * statistics.median(times) / (2 * x.shape[0])
    return out


REF_POINTS = 2**23  # grid points processed by one reference measurement


def _reference(shape: tuple) -> tuple[float, float]:
    """(CPU seconds, wall seconds) of a fixed machine-speed reference: real
    FFT round trips with 2 workers and pointwise products on three fields of
    the workload's grid, with scipy.fft called directly, so no change to
    pnpf can move it."""
    import numpy as np
    import scipy.fft

    x = np.random.default_rng(0).standard_normal((3,) + shape)
    axes = tuple(range(1, x.ndim))
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(max(1, REF_POINTS // x.size)):
        y = scipy.fft.irfftn(0.5 * scipy.fft.rfftn(x, axes=axes, workers=2), s=shape,
                             axes=axes, workers=2)
        y = x * y + (1.0 - y)
    return time.process_time() - c0, time.perf_counter() - t0


def _identity(su) -> list[str]:
    """The two-formulation identity check on the workload's initial state."""
    import checks
    import workloads

    try:
        return checks.check_identity(workloads.primitive_state(su), su.params)
    except Exception as exc:  # counted as the identity operation failing
        return [f"identity check raised {type(exc).__name__}: {exc}"]


def _measure(args, su) -> dict:
    import tracing
    import workloads

    outdir = Path(args.out).parent
    phases = [("plain", args.seconds)]
    if args.trace:
        phases = [("plain", args.seconds / 2), ("traced", args.seconds / 2)]
    solves, span_lists = [], []
    last_out = None
    ref = _reference(su.grid.shape)
    for phase, budget in phases:
        spent = 0.0
        while spent < budget:
            tracer = tracing.Tracer() if phase == "traced" else None
            last_out = None  # so the previous solve's outputs do not raise peak memory
            rec, last_out = _solve_once(su, outdir, args.first_index + len(solves), tracer)
            rec["phase"] = phase
            # host speed drifts by tens of percent on a shared machine; the
            # references before and after a solve track it for the ratios
            after = _reference(su.grid.shape)
            rec["ref_cpu_s"] = 0.5 * (ref[0] + after[0])
            rec["ref_wall_s"] = 0.5 * (ref[1] + after[1])
            ref = after
            solves.append(rec)
            if tracer is not None:
                span_lists.append(tracer.spans)
            spent += rec["wall_s"]
    result = {
        "solves": solves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workload": workloads.describe(su),
        "versions": _versions(),
    }
    if args.trace:
        names = {s[0] for spans in span_lists for s in spans}
        layers = tracing.layer_metrics(span_lists)
        layers.update(_diagnostics(su, outdir, names))
        layers["snapshot.write_checkpoint.mb"] = _checkpoint_mb(last_out)
        layers["dynamics.step.aborts"] = sum(s["aborted"] for s in solves)
        plain = [s["wall_s"] for s in solves if s["phase"] == "plain"]
        traced = [s["wall_s"] for s in solves if s["phase"] == "traced"]
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        result["layers"] = layers
        tracing.write_spans(outdir / "spans.jsonl", span_lists)
    return result


def _versions() -> dict:
    import numpy
    import scipy
    from pnpf import grid

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "grid_workers": getattr(grid, "_WORKERS", None),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-index", type=int, default=0,
                    help="index of the first solve (it picks varcheck's probe seed)")
    ap.add_argument("--identity", action="store_true",
                    help="also check the two-formulation identity after set-up")
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    su, setup = _setup(args)
    result = {"setup": setup}
    setup["ref_thread_s"] = _setup_reference()
    if args.identity:
        result["identity_problems"] = _identity(su)
    if args.mode == "measure":
        result.update(_measure(args, su))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
