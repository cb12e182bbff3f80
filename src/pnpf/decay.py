"""
Small-perturbation decay experiments.

The monitored quantity is the H^2-level Lyapunov functional

    Lambda = ||u_tilde||_H2^2 + ||v||_H2^2 + 2c ||theta_tilde||_H2^2
             + ||grad phi||_L2^2,

which decays monotonically for initial data small enough; the charge
imbalance v and grad(phi) decay strictly faster than u_tilde thanks to
the order-one screening term in the v equation.  The harness builds
neutral positive initial data scaled to a requested smallness size,
integrates, samples the component norms, and fits exponential rates on
the final half of the run.  A norm's fit ends at its last sample above
the rounding floor 1e-12 Lambda^(1/2): in a long run the fast-decaying v
and grad(phi) reach rounding while Lambda, held up by the slow u_tilde
and theta_tilde, is still far above it, and samples at the floor would
pull the fitted rate down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PerturbationState, StepAbort, StepperConfig, integrate
from .fields import PhysParams
from .grid import GridSpec, ScalarField

MONOTONE_TOL = 1e-10
# a norm's fit ends where the norm meets the rounding floor
# ROUNDING_FLOOR * Lambda^(1/2) of its sample
ROUNDING_FLOOR = 1e-12
SMALLNESS_FLAG = 0.1
RANDOM_BAND = 2  # random_band excites mode indices |m_i| <= RANDOM_BAND


@dataclass(frozen=True)
class DecayExperiment:
    """One decay run: initial amplitude delta0 (the smallness parameter),
    a Philox seed, the initial-condition profile, stepper settings and
    sampling cadence.  delta0 > 0.1 is flagged as outside the smallness
    regime (the run still executes)."""

    delta0: float
    seed: int = 0
    mode_profile: str = "single_mode"
    cfg: StepperConfig = field(default_factory=StepperConfig)
    sample_every: int = 10

    def __post_init__(self) -> None:
        if self.delta0 < 0:
            raise ValueError("delta0 must be nonnegative")
        if self.mode_profile not in ("single_mode", "random_band"):
            raise ValueError(f"unknown mode_profile {self.mode_profile!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")

    @property
    def outside_smallness_regime(self) -> bool:
        return self.delta0 > SMALLNESS_FLAG


@dataclass
class DecaySeries:
    t: np.ndarray
    lyapunov: np.ndarray
    v_l2: np.ndarray
    grad_phi_l2: np.ndarray
    u_l2: np.ndarray
    u_h2: np.ndarray
    theta_h2: np.ndarray
    fitted_rates: dict
    completed: bool = True
    abort_reason: str | None = None

    def monotone(self) -> bool:
        lam = self.lyapunov
        return bool(np.all(lam[1:] <= lam[:-1] * (1.0 + MONOTONE_TOL)))


# the decay.csv columns: the array fields of DecaySeries, in order
SERIES_COLUMNS = ("t", "lyapunov", "v_l2", "grad_phi_l2", "u_l2", "u_h2", "theta_h2")


def _h2_sq(grid: GridSpec, spec) -> float:
    return grid.spectral_l2_sum(spec, grid.h2_norm_weight)


def spectra(ps: PerturbationState) -> np.ndarray:
    """Batched forward transform of (u_tilde, v, theta_tilde, phi)."""
    return ps.grid.fft(
        np.stack([ps.u_tilde.values, ps.v.values, ps.theta_tilde.values, ps.phi.values])
    )


def _sums(grid: GridSpec, spec) -> tuple:
    """The four sums Lambda adds, of spec = (u_tilde, v, theta_tilde, phi)
    spectra: ||u_tilde||_H2^2, ||v||_H2^2, ||theta_tilde||_H2^2 and
    ||grad phi||_L2^2."""
    su, sv, st, sphi = spec
    return _h2_sq(grid, su), _h2_sq(grid, sv), _h2_sq(grid, st), grid.spectral_l2_sum(
        sphi, grid.h1_weight)


def _lyapunov(sums, params: PhysParams) -> float:
    """Lambda from its _sums, added in the functional's order."""
    u, v, th, grad_phi = sums
    out = u + v + 2.0 * params.c * th
    out += grad_phi
    return float(out)


def lyapunov(ps: PerturbationState, params: PhysParams) -> float:
    """Lambda(ps); spectral H^2 norms, 2c weight on the temperature part,
    of spectra(ps)."""
    return spectral_lyapunov(ps.grid, spectra(ps), params)


def spectral_lyapunov(grid: GridSpec, spec, params: PhysParams) -> float:
    """Lambda of the spectra spec of (u_tilde, v, theta_tilde, phi)."""
    return _lyapunov(_sums(grid, spec), params)


def smallness_size(grid: GridSpec, ut, v, tt) -> float:
    """||(n-1, p-1, theta-1)||_H2 + ||grad phi||_L2 of the raw perturbation
    arrays (u_tilde, v, theta_tilde), the quantity the smallness
    assumption bounds."""
    n1 = 0.5 * (ut + v)
    p1 = 0.5 * (ut - v)
    total = 0.0
    for vals in (n1, p1, tt):
        total += _h2_sq(grid, grid.fft(vals))
    phi = -grid.inv_k2 * grid.fft(v)
    grad_phi = math.sqrt(grid.spectral_l2_sum(phi, grid.h1_weight))
    return math.sqrt(total) + grad_phi


def band_field(grid: GridSpec, gen, kmax: int) -> np.ndarray:
    """One draw of gen's white noise truncated to mode indices
    |m_i| <= kmax, mean removed, scaled to max-abs 1."""
    white = gen.standard_normal(grid.shape)
    spec = np.where(grid.band_mask(kmax), grid.fft(white), 0.0)
    spec[(0,) * grid.dim] = 0.0
    vals = grid.ifft(spec)
    peak = np.abs(vals).max()
    return vals / peak if peak > 0 else vals


def initial_condition(
    exp: DecayExperiment, grid: GridSpec, params: PhysParams
) -> PerturbationState:
    """Neutral, positive initial data scaled so the smallness size equals
    delta0.  single_mode puts everything in one v mode (the profile with
    the cleanest screening signature); random_band excites u_tilde, v and
    theta_tilde on modes 1..RANDOM_BAND with Philox(seed) draws.  params
    is not read; it stays in the signature because callers outside the
    package (the benchmark's workloads) pass it positionally."""
    zero = np.zeros(grid.shape)
    if exp.delta0 == 0.0:
        z = ScalarField(grid, zero)
        return PerturbationState.from_fields(z, z, z)
    if exp.mode_profile == "single_mode":
        x = grid.axes_coordinates()[0]
        ut, tt = zero, zero
        v = np.sin(2.0 * np.pi * x / grid.length)
    else:
        gen = np.random.Generator(np.random.Philox(key=exp.seed))
        ut = band_field(grid, gen, RANDOM_BAND)
        v = band_field(grid, gen, RANDOM_BAND)
        tt = band_field(grid, gen, RANDOM_BAND)
    scale = exp.delta0 / smallness_size(grid, ut, v, tt)
    return PerturbationState.from_fields(
        ScalarField(grid, ut * scale),
        ScalarField(grid, v * scale),
        ScalarField(grid, tt * scale),
    )


def _fit_rate(t: np.ndarray, series: np.ndarray, floor=None) -> float:
    """Exponential decay rate from a log least-squares fit on the final
    half of the samples; 0 for flat or degenerate series.  With floor, one
    value per sample, the samples end at the last one above its floor:
    a norm that has decayed to rounding no longer falls at its rate."""
    if floor is not None:
        above = np.flatnonzero(series > floor)
        end = above[-1] + 1 if above.size else 0
        t, series = t[:end], series[:end]
    half = len(t) // 2
    ts, ys = t[half:], series[half:]
    good = ys > 1e-300
    if good.sum() < 2 or np.ptp(ts[good]) == 0:
        return 0.0
    slope = np.polyfit(ts[good], np.log(ys[good]), 1)[0]
    return float(-slope)


def run(exp: DecayExperiment, grid: GridSpec, params: PhysParams) -> DecaySeries:
    """Integrate one experiment and sample the Lyapunov functional and
    component norms every sample_every steps.  A stepper abort truncates
    the series and flags it instead of raising.

    A sample reads the spectrum the stepper carries (PerturbationState.spec)
    and takes phi_hat = -v_hat/|k|^2 from it, so it transforms nothing; each
    spectral sum is computed once, the H^2 norms and ||grad phi|| being the
    sums Lambda adds."""
    ps = initial_condition(exp, grid, params)
    rows = []
    completed, reason = True, None

    def sample(t, state):
        su, sv, st = state.spec
        sums = _sums(grid, (su, sv, st, -grid.inv_k2 * sv))
        rows.append(
            (  # in SERIES_COLUMNS order
                t,
                _lyapunov(sums, params),
                math.sqrt(grid.spectral_l2_sum(sv)),
                math.sqrt(sums[3]),
                math.sqrt(grid.spectral_l2_sum(su)),
                math.sqrt(sums[0]),
                math.sqrt(sums[2]),
            )
        )

    try:
        for i, t, state in integrate(ps, exp.cfg, params):
            if i % exp.sample_every == 0:
                sample(t, state)
    except StepAbort as exc:
        completed, reason = False, str(exc)

    arr = np.array(rows, dtype=float).reshape(-1, len(SERIES_COLUMNS))
    cols = dict(zip(SERIES_COLUMNS, arr.T))
    floor = ROUNDING_FLOOR * np.sqrt(cols["lyapunov"])
    rates = {name: _fit_rate(cols["t"], col, None if name == "lyapunov" else floor)
             for name, col in cols.items() if name != "t"}
    return DecaySeries(**cols, fitted_rates=rates, completed=completed, abort_reason=reason)


def write_series_csv(series: DecaySeries, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for row in zip(*(getattr(series, name) for name in SERIES_COLUMNS)):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def summary(exp: DecayExperiment, series: DecaySeries,
            scaling_ratio: float | None = None) -> dict:
    """Machine-readable verdicts: monotonicity, rate ordering, optional
    terminal-amplitude scaling (from a companion half-delta0 run).

    The rate ordering ("v and grad(phi) decay faster than u_tilde") is
    inconclusive when the fitted u_l2 rate is not positive: a u_tilde that
    is not decaying (the single_mode profile starts it at 0) satisfies the
    ordering trivially.  With fewer than two samples the monotonicity and
    scaling verdicts are inconclusive too: one sample is monotone by
    construction, and the scaling ratio of two one-sample runs is 4 by
    construction, Lambda being quadratic in delta0.  The ratio itself is
    still reported."""
    judged = len(series.lyapunov) >= 2
    rates = series.fitted_rates
    if rates["u_l2"] <= 0:
        ordering = "inconclusive"
    elif rates["v_l2"] > rates["u_l2"] and rates["grad_phi_l2"] > rates["u_l2"]:
        ordering = "pass"
    else:
        ordering = "flagged"
    out = {
        "delta0": exp.delta0,
        "mode_profile": exp.mode_profile,
        "seed": exp.seed,
        "completed": series.completed,
        "abort_reason": series.abort_reason,
        "outside_smallness_regime": exp.outside_smallness_regime,
        "fitted_rates": series.fitted_rates,
        "monotonicity_verdict": _verdict(judged, series.monotone()),
        "rate_ordering_verdict": ordering,
        "terminal_lyapunov": float(series.lyapunov[-1]) if len(series.lyapunov) else None,
    }
    if scaling_ratio is not None:
        out["terminal_scaling_ratio"] = scaling_ratio
        out["scaling_verdict"] = _verdict(judged, abs(scaling_ratio - 4.0) <= 0.8)
    return out


def _verdict(judged: bool, ok: bool) -> str:
    """pass or flagged, or inconclusive for a series too short to judge."""
    if not judged:
        return "inconclusive"
    return "pass" if ok else "flagged"


def write_summary_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
