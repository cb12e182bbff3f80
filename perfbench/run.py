"""
The pnpf benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload step_3d --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

One run starts fresh child processes (perfbench/child.py) with src/ on
PYTHONPATH: one warm-up set-up whose time is discarded and which checks the
two-formulation identity, then up to MEASURE_RUNS processes (one with
--trace 1) that together measure the workload's solve for --seconds and
check every output, with SETUP_RUNS timed set-ups among them.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer metrics
from a traced run.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Failed operations out of attempted ones are the fail fraction.  The full
result, with provenance and solve-level records, goes to
.bench_build/perfbench/<workload>-trace<0|1>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 4  # set-up-only processes; each measuring process is one more set-up
MEASURE_RUNS = 4  # measuring processes of a run with --trace 0
# setup_s is set-up time on a machine where the set-up reference of child.py
# takes this long; the ratio to the reference cancels the host's speed
SETUP_REF_NOMINAL_S = 0.15
DEADLINE_S = 170.0  # the whole run, children included
# printed next to the gated metrics without a bound (they are per-layer entries)
UNGATED = ("wall_ref", "wall_s", "cpu_s", "ref.wall_s", "ref.cpu_s", "setup.wall_s")


class BenchError(RuntimeError):
    pass


def _child(root: Path, out: Path, args: list[str], deadline: float) -> dict:
    """Run child.py with args and --out out; returns the JSON it wrote."""
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args, "--out", str(out)],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"child {args} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                           capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    if r.returncode != 0:
        return None
    return r.stdout.strip() or None


def _source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _total(solves: list, key: str) -> float:
    return math.fsum(s[key] for s in solves)


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float,
                 trace: int) -> None:
    """One run of one workload; prints its metrics, provenance and result line."""
    deadline = time.monotonic() + DEADLINE_S
    outdir = root / ".bench_build" / "perfbench" / f"{name}-trace{trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed)]
    setup = (root, outdir / "setup.json", base + ["--mode", "setup"], deadline)
    # warm-up (bytecode and file cache) that also checks the identity
    ident = _child(root, outdir / "setup.json", base + ["--mode", "setup", "--identity"],
                   deadline)["identity_problems"]
    # the solves are split over up to MEASURE_RUNS measuring processes,
    # because a process's speed relative to the reference differs from one
    # process to the next; timed set-ups go between them.  Each process gets
    # an equal share of the time left, and no process starts once the solves
    # have taken --seconds, so a slow host runs fewer of them.  A traced run
    # measures in one process, so that its traced and untraced solves share it.
    parts = 1 if trace else MEASURE_RUNS
    setups, solves, measures = [], [], []
    spent = 0.0
    for i in range(max(SETUP_RUNS, parts)):
        if i < SETUP_RUNS:
            setups.append(_child(*setup)["setup"])
        if i < parts and spent < seconds:
            share = (seconds - spent) / (parts - i)
            meas = _child(root, outdir / "measure.json", base + [
                "--mode", "measure", "--seconds", str(share), "--trace", str(trace),
                "--first-index", str(len(solves))], deadline)
            measures.append(meas)
            setups.append(meas["setup"])
            solves += meas["solves"]
            spent += _total(meas["solves"], "wall_s")

    plain = [s for s in solves if s["phase"] == "plain"]
    attempted = 1 + sum(s["ops"] for s in solves)
    failed = bool(ident) + sum(s["failed"] for s in solves)
    problems = ident + [p for s in solves for p in s["problems"]]
    values = {
        # totals over the run's solves: with a handful of solves the ratio of
        # sums varies less from run to run than the median of the ratios
        "cpu_ref": _total(plain, "cpu_s") / _total(plain, "ref_cpu_s"),
        "wall_ref": _total(plain, "wall_s") / _total(plain, "ref_wall_s"),
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "cpu_s": statistics.median(s["cpu_s"] for s in plain),
        "ref.wall_s": statistics.median(s["ref_wall_s"] for s in plain),
        "ref.cpu_s": statistics.median(s["ref_cpu_s"] for s in plain),
        "setup_s": SETUP_REF_NOMINAL_S * statistics.median(
            s["setup_thread_s"] / s["ref_thread_s"] for s in setups),
        "setup.wall_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": max(m["peak_rss_mb"] for m in measures),
    }
    wanted = spec["end_to_end"]
    if trace:
        values.update(measures[0]["layers"])
        values["setup.grid_ms"] = statistics.median(s["grid_ms"] for s in setups)
        values["setup.initial_state_ms"] = statistics.median(s["state_ms"] for s in setups)
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    expected = json.loads((HERE / "expected_counts.json").read_text()).get(name, {})
    count_changes = {k: {"expected": v, "measured": values[k]}
                     for k, v in expected.items() if trace and values.get(k) != v}
    provenance = {
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **measures[0]["versions"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": measures[0]["workload"],
        "solves_measured": len(plain),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(result, provenance=provenance, values=values, problems=problems[:20],
                  count_changes=count_changes, setups=setups, solves=solves)
    with open(outdir / "result.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for k, v in count_changes.items():
        print(f"{name}: count {k} is {v['measured']} (expected_counts.json has "
              f"{v['expected']})", file=sys.stderr)
    for p in problems[:10]:
        print(f"{name}: check failed: {p}", file=sys.stderr)
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    if not trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric in UNGATED:
            print(f"{name} {metric} {values[metric]:.6g} {units[metric]} (not gated)")
    print(f"{name} fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pnpf benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file() or not (root / "src" / "pnpf" / "__init__.py").is_file():
        print("perfbench: run from the repository root (needs BENCHMARK.json and "
              "src/pnpf)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        print(f"perfbench: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for name in todo:
        try:
            run_workload(root, spec, name, args.seed, seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
