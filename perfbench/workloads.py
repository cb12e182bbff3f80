"""
Seeded workloads of the pnpf benchmark.

Each workload is a fixed amount of work ("one solve") driven through the
public library entry points that the CLI commands wrap:

    step_3d, audit_3d   thermo_audit.audit_run + snapshot.write_checkpoint  (pnpf run)
    decay_2d            decay.run twice + its writers, as scaling_check does (pnpf decay)
    varcheck_3d         varcheck.varcheck_report + write_report_json         (pnpf varcheck)

The CLI is not called: `pnpf run` cannot take a seed, because every
initial_condition key except `type` is rejected.  So the benchmark builds
the initial state from its own seed and hands the program only the
generated inputs.

Importing this module imports numpy but not pnpf; `setup` imports pnpf, so
that a fresh process can time the package import as part of set-up.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# Resolved parameters.  Step counts are multiples of the audit interval, so
# auditing the final state always adds no work beyond the regular samples.
WORKLOADS = {
    "step_3d": {
        "kind": "audit", "dim": 3, "n": 64, "scheme": "RK4", "dt": 9e-4,
        "steps": 4, "audit_every": 4, "amplitude": 1e-2, "band": 2,
    },
    "audit_3d": {
        "kind": "audit", "dim": 3, "n": 32, "scheme": "IMEX1", "dt": 2e-3,
        "steps": 16, "audit_every": 1, "amplitude": 1e-2, "band": 2,
    },
    "decay_2d": {
        "kind": "decay", "dim": 2, "n": 64, "scheme": "RK4", "dt": 1e-3,
        "steps": 100, "sample_every": 1, "delta0": 1e-2,
    },
    "varcheck_3d": {
        "kind": "varcheck", "dim": 3, "n": 64, "amplitude": 1e-3, "band": 1,
        "probe_seeds": 4,
    },
}

# Sizes used by the self-tests: the same code paths at a fraction of the cost.
# The audit workloads stay at 32^3: at 16^3 the flux reconstruction behind
# onsager_residual is no longer resolved to rounding level.
TINY = {
    "step_3d": {"n": 32, "steps": 2, "audit_every": 2, "dt": 2e-3},
    "audit_3d": {"n": 32, "steps": 3},
    "decay_2d": {"n": 16, "steps": 40, "dt": 5e-3},
    "varcheck_3d": {"n": 16, "probe_seeds": 2},
}


def resolve(name: str, seed: int, tiny: bool = False) -> dict:
    """The workload's parameters with every seed derived from `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    wl = dict(WORKLOADS[name], name=name, seed=int(seed), length=TWO_PI)
    if tiny:
        wl.update(TINY[name])
    if wl["kind"] == "decay":
        wl["decay_seed"] = int(seed)
    if wl["kind"] == "varcheck":
        wl["probe_seed_list"] = [1000 * int(seed) + i for i in range(wl["probe_seeds"])]
    return wl


def band_fields(dim: int, n: int, seed: int, band: int, amplitude: float, count: int = 3):
    """`count` real fields on the (n,)*dim torus grid: Philox(seed) white
    noise truncated to mode indices |m_i| <= band, mean removed, scaled to
    max-abs `amplitude`.  Built with numpy.fft, independent of pnpf."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 0x706E7066])))
    shape = (n,) * dim
    mask = np.ones(shape[:-1] + (n // 2 + 1,), dtype=bool)
    for ax in range(dim):
        m = np.fft.rfftfreq(n, 1.0 / n) if ax == dim - 1 else np.fft.fftfreq(n, 1.0 / n)
        sh = [1] * dim
        sh[ax] = m.size
        mask &= np.abs(m.reshape(sh)) <= band
    mask[(0,) * dim] = False
    out = []
    for _ in range(count):
        spec = np.fft.rfftn(gen.standard_normal(shape)) * mask
        vals = np.fft.irfftn(spec, s=shape, axes=tuple(range(dim)))
        out.append(vals * (amplitude / np.abs(vals).max()))
    return out


def primitive_arrays(wl: dict):
    """(n, p, theta) near equilibrium: neutral, positive, band-limited."""
    ut, v, tt = band_fields(wl["dim"], wl["n"], wl["seed"], wl["band"], wl["amplitude"])
    return 1.0 + 0.5 * (ut + v), 1.0 + 0.5 * (ut - v), 1.0 + tt


@dataclass
class Setup:
    wl: dict
    grid: object
    params: object
    cfg: object  # StepperConfig, or None for varcheck
    state: object  # State, or PerturbationState for decay
    exp: object = None  # DecayExperiment for decay
    grid_ms: float = 0.0
    state_ms: float = 0.0


def setup(wl: dict) -> Setup:
    """Import pnpf and build the workload's GridSpec, PhysParams,
    StepperConfig and initial state, timing each phase."""
    import pnpf  # noqa: F401  (the import is part of the timed set-up)
    from pnpf import decay, dynamics, fields, grid

    t1 = time.perf_counter()
    g = grid.GridSpec(dim=wl["dim"], n=wl["n"], length=wl["length"])
    params = fields.PhysParams()
    cfg = None
    if "scheme" in wl:
        cfg = dynamics.StepperConfig(
            scheme=wl["scheme"], dt=wl["dt"], t_end=wl["steps"] * wl["dt"]
        )
    t2 = time.perf_counter()
    exp = None
    if wl["kind"] == "decay":
        exp = decay.DecayExperiment(
            delta0=wl["delta0"], seed=wl["decay_seed"], mode_profile="random_band",
            cfg=cfg, sample_every=wl["sample_every"],
        )
        state = decay.initial_condition(exp, g, params)
    else:
        n, p, th = primitive_arrays(wl)
        state = fields.State.from_primitives(
            grid.ScalarField(g, n), grid.ScalarField(g, p), grid.ScalarField(g, th)
        )
    t3 = time.perf_counter()
    return Setup(wl, g, params, cfg, state, exp, 1e3 * (t2 - t1), 1e3 * (t3 - t2))


# -- solves (the timed region) --------------------------------------------------


@dataclass
class AuditOutput:
    final: object
    records: list
    reason: object
    prefix: Path
    t: float
    step: int


@dataclass
class DecayOutput:
    series: object
    half: object
    ratio: object
    csv_path: Path
    summary_path: Path


@dataclass
class VarcheckOutput:
    report: dict
    path: Path


def solve(su: Setup, outdir: Path, index: int):
    """One solve of the workload; writes its output files under outdir."""
    kind = su.wl["kind"]
    if kind == "audit":
        return _solve_audit(su, outdir)
    if kind == "decay":
        return _solve_decay(su, outdir)
    return _solve_varcheck(su, outdir, index)


def _solve_audit(su: Setup, outdir: Path) -> AuditOutput:
    from pnpf import snapshot, thermo_audit

    wl = su.wl
    result = thermo_audit.audit_run(
        su.state, su.cfg, su.params, outdir / "audit.csv",
        audit_every=wl["audit_every"], n_steps=wl["steps"],
    )
    # the first three elements only: (final, records, reason) with or
    # without a trailing steps_done
    final, records, reason = result[:3]
    t = records[-1].t if records else 0.0
    step = int(round(t / su.cfg.dt))
    prefix = outdir / "final"
    snapshot.write_checkpoint(prefix, final, t=t, step=step, cfg=su.cfg, params=su.params)
    return AuditOutput(final, records, reason, prefix, t, step)


def _solve_decay(su: Setup, outdir: Path) -> DecayOutput:
    from pnpf import decay

    exp = su.exp
    series = decay.run(exp, su.grid, su.params)
    csv_path = outdir / "decay.csv"
    decay.write_series_csv(series, csv_path)
    half = decay.run(replace(exp, delta0=0.5 * exp.delta0), su.grid, su.params)
    ratio = None
    if len(half.lyapunov) and half.lyapunov[-1] > 0:
        ratio = float(series.lyapunov[-1] / half.lyapunov[-1])
    summary_path = outdir / "decay-summary.json"
    decay.write_summary_json(decay.summary(exp, series, ratio), summary_path)
    return DecayOutput(series, half, ratio, csv_path, summary_path)


def _solve_varcheck(su: Setup, outdir: Path, index: int) -> VarcheckOutput:
    from pnpf import varcheck

    seeds = su.wl["probe_seed_list"]
    report = varcheck.varcheck_report(
        su.state, su.params, seed=seeds[index % len(seeds)], probe_kmax=su.wl["band"]
    )
    path = outdir / "varcheck-report.json"
    varcheck.write_report_json(report, path)
    return VarcheckOutput(report, path)


def primitive_state(su: Setup):
    """The workload's initial state in primitive form."""
    from pnpf import dynamics

    if su.wl["kind"] == "decay":
        return dynamics.convert_back(su.state)
    return su.state


def describe(su: Setup) -> dict:
    """Resolved parameters plus the dt / stability-bound ratio."""
    from pnpf import dynamics

    out = dict(su.wl)
    if su.cfg is not None:
        bound = dynamics.stability_bound(
            su.grid, su.params, su.cfg.scheme, primitive=su.wl["kind"] != "decay"
        )
        out["dt_over_stability_bound"] = su.cfg.dt / bound
    return json.loads(json.dumps(out))
