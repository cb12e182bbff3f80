"""
Output checks of the pnpf benchmark.

Every check runs outside the timed region and judges the program's raw
outputs against the benchmark's own fixed tolerances; a verdict string the
program wrote ("pass"/"flagged") is never taken on its own.

Each check returns one list of problems per operation (empty list = the
operation passed).  An operation is one audit sample, one decay.run, one
varcheck report, or the once-per-workload two-formulation identity.
"""

from __future__ import annotations

import json
import math

import numpy as np

MASS_RTOL = 1e-13  # ion masses constant to rounding
ENERGY_DRIFT_MAX = {"RK4": 1e-12, "IMEX1": 1e-6}  # IMEX1 is first order in dt
ONSAGER_MAX = 1e-10
IDENTITY_ATOL = 1e-11  # primitive vs perturbation RHS, O(1) fields
MONOTONE_RTOL = 1e-10
SCALING_TOL = 0.1  # terminal Lyapunov ratio of delta0 vs delta0/2 runs, near 4
FD_TOL = 1e-6
BALANCE_TOL = 1e-8


def _mass(values: np.ndarray, cell_volume: float) -> float:
    return math.fsum(values.ravel().tolist()) * cell_volume


def check_audit(su, out) -> list[list[str]]:
    """Audit samples of one `audit_run` plus its checkpoint."""
    wl = su.wl
    expected = wl["steps"] // wl["audit_every"] + 1
    cv = su.grid.cell_volume
    mass_n0 = _mass(su.state.n.values, cv)
    mass_p0 = _mass(su.state.p.values, cv)
    drift_max = ENERGY_DRIFT_MAX[su.cfg.scheme]
    recs = out.records
    ops = []
    for i, r in enumerate(recs[:expected]):
        bad = []
        for name in ("t", "mass_n", "mass_p", "E", "S", "Delta", "energy_drift_rel",
                     "onsager_residual"):
            if not math.isfinite(getattr(r, name)):
                bad.append(f"sample {i}: {name} not finite")
        if abs(r.mass_n - mass_n0) > MASS_RTOL * abs(mass_n0):
            bad.append(f"sample {i}: mass_n {r.mass_n!r} != {mass_n0!r}")
        if abs(r.mass_p - mass_p0) > MASS_RTOL * abs(mass_p0):
            bad.append(f"sample {i}: mass_p {r.mass_p!r} != {mass_p0!r}")
        drift = abs(r.E - recs[0].E) / abs(recs[0].E)
        if not drift <= drift_max:
            bad.append(f"sample {i}: energy drift {drift:.3e} > {drift_max:.0e}")
        if not r.Delta >= 0.0:
            bad.append(f"sample {i}: Delta {r.Delta!r} < 0")
        if 0 < i < len(recs) - 1 and not math.isfinite(r.dSdt_minus_Delta):
            bad.append(f"sample {i}: interior dSdt_minus_Delta not finite")
        if not r.onsager_residual <= ONSAGER_MAX:
            bad.append(f"sample {i}: onsager_residual {r.onsager_residual:.3e}")
        ops.append(bad)
    ops += [[f"sample {i} missing"] for i in range(len(ops), expected)]

    final_problems = []
    if out.reason is not None:
        final_problems.append(f"step aborted: {out.reason}")
    if len(recs) != expected:
        final_problems.append(f"{len(recs)} audit samples, expected {expected}")
    if out.step != wl["steps"]:
        final_problems.append(f"final step {out.step}, expected {wl['steps']}")
    final_problems += _checkpoint_problems(out)
    if abs(_mass(out.final.n.values, cv) - mass_n0) > MASS_RTOL * abs(mass_n0):
        final_problems.append("final state mass_n differs from the initial mass")
    ops[-1] = ops[-1] + final_problems
    return ops


def _checkpoint_problems(out) -> list[str]:
    from pnpf import snapshot

    try:
        state, meta = snapshot.read_checkpoint(out.prefix)
    except (OSError, ValueError, KeyError) as exc:
        return [f"read_checkpoint failed: {exc}"]
    bad = []
    for name in ("n", "p", "theta", "phi"):
        a = getattr(state, name).values
        b = getattr(out.final, name).values
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            bad.append(f"checkpoint field {name} differs from the final state")
    if meta.get("t") != out.t or meta.get("step") != out.step:
        bad.append("checkpoint metadata t/step differ")
    return bad


def fitted_rate(t: np.ndarray, series: np.ndarray) -> float:
    """Decay rate from a log least-squares fit on the final half."""
    half = len(t) // 2
    return float(-np.polyfit(t[half:], np.log(series[half:]), 1)[0])


def _series_problems(label: str, s, expected_len: int) -> list[str]:
    bad = []
    if not s.completed:
        bad.append(f"{label}: aborted: {s.abort_reason}")
    if len(s.t) != expected_len:
        bad.append(f"{label}: {len(s.t)} samples, expected {expected_len}")
    cols = (s.lyapunov, s.v_l2, s.grad_phi_l2, s.u_l2, s.u_h2, s.theta_h2)
    if not all(np.all(np.isfinite(c)) and np.all(c > 0) for c in cols):
        bad.append(f"{label}: non-finite or non-positive series values")
        return bad
    lam = s.lyapunov
    if not np.all(lam[1:] <= lam[:-1] * (1.0 + MONOTONE_RTOL)):
        bad.append(f"{label}: Lyapunov functional not monotone")
    u = fitted_rate(s.t, s.u_l2)
    # the ordering is conclusive only while u_l2 itself decays; otherwise
    # "v decays faster than u" holds trivially and is not counted
    if u > 0:
        for name in ("v_l2", "grad_phi_l2"):
            if not fitted_rate(s.t, getattr(s, name)) > u:
                bad.append(f"{label}: {name} decays no faster than u_l2")
    return bad


def check_decay(su, out) -> list[list[str]]:
    """The two decay.run operations of a scaling-check decay solve."""
    expected_len = su.wl["steps"] // su.wl["sample_every"] + 1
    main = _series_problems("delta0 run", out.series, expected_len)
    half = _series_problems("delta0/2 run", out.half, expected_len)
    if out.ratio is None or not abs(out.ratio - 4.0) <= SCALING_TOL:
        main.append(f"terminal scaling ratio {out.ratio!r} not near 4")
    try:
        with open(out.summary_path) as fh:
            written = json.load(fh)
        rows = out.csv_path.read_text().strip().split("\n")
    except (OSError, ValueError) as exc:
        main.append(f"decay outputs unreadable: {exc}")
    else:
        if written.get("terminal_scaling_ratio") != out.ratio:
            main.append("summary JSON scaling ratio differs")
        if len(rows) != len(out.series.t) + 1:
            main.append("decay.csv row count differs from the series")
    return [main, half]


def check_varcheck(su, out) -> list[list[str]]:
    """One varcheck report, judged on its residuals."""
    rep = out.report
    bad = []
    con = rep["conservative"]["best_rel_err"]
    dis = rep["dissipative"]["best_rel_err"]
    bal = rep["force_balance_residual"]
    if rep.get("pass") is not True:
        bad.append("report does not pass")
    if not con <= FD_TOL:
        bad.append(f"conservative best_rel_err {con!r} > {FD_TOL}")
    if not dis <= FD_TOL:
        bad.append(f"dissipative best_rel_err {dis!r} > {FD_TOL}")
    if not bal <= BALANCE_TOL:
        bad.append(f"force_balance_residual {bal!r} > {BALANCE_TOL}")
    try:
        with open(out.path) as fh:
            written = json.load(fh)
    except (OSError, ValueError) as exc:
        bad.append(f"report JSON unreadable: {exc}")
    else:
        if written != json.loads(json.dumps(rep)):
            bad.append("written report differs from the returned report")
    return [bad]


CHECKS = {"audit": check_audit, "decay": check_decay, "varcheck": check_varcheck}


def check(su, out) -> list[list[str]]:
    return CHECKS[su.wl["kind"]](su, out)


def check_identity(state, params) -> list[str]:
    """rhs_primitive and rhs_perturbation agree to rounding on `state`."""
    from pnpf import dynamics

    prim = dynamics.rhs_primitive(state, params)
    du, dv, dtt = (f.values for f in dynamics.rhs_perturbation(dynamics.convert(state), params))
    pairs = (("dn", prim[0].values, 0.5 * (du + dv)),
             ("dp", prim[1].values, 0.5 * (du - dv)),
             ("dtheta", prim[2].values, dtt))
    bad = []
    for name, a, b in pairs:
        err = float(np.abs(a - b).max())
        if not err <= IDENTITY_ATOL:
            bad.append(f"two-formulation identity: {name} differs by {err:.3e}")
    return bad
