"""
Conserved and monotone functionals along a trajectory, with their
discrete residuals.

On the boundaryless box the ion masses and the total energy are constant
in time, the total entropy S satisfies dS/dt = Delta >= 0 (the integrated
second law: the transport terms are perfect divergences and drop out),
and the Darcy fluxes are exactly reconstructible from the linear-response
block.  Each audit is one column of AuditRecord, which AuditWriter fills
in and nothing else recomputes; it measures how well the *numerical*
trajectory honors the corresponding identity:

* mass/energy drifts (mass_n, mass_p, energy_drift_rel) are pure
  time-integration error (the spatial semi-discretization conserves both
  exactly for dealiased states),
* the entropy law (dSdt_minus_Delta) is tested by a centered time
  difference of sampled S against the instantaneous entropy production,
  so the residual shrinks quadratically with the sampling interval,
* the reciprocity residual (onsager_residual) is the flux-reconstruction
  deviation; the coefficient symmetry itself holds by construction (each
  reciprocal pair of the Onsager block is one array), so it is not
  measured.

One sample (AuditWriter.observe) costs about one RHS evaluation.
fields.flux_audit makes one pass over the axes for the entropy production
density and the reciprocity residual: the forward transforms of
(n, p, theta) and of (mu_p/theta, mu_n/theta, 1/theta), then per axis a
4-field and a 3-field inverse transform.  It builds no FluxSet, phi_t,
exchange flux or j_e.  totals integrates the densities, and the Lyapunov
functional takes one batched forward transform of the converted state.
At dim 3 that is 3 + 3 + 3*(4 + 3) + 4 = 31 transforms, against 28 for
one primitive RHS.  Every column equals its definition bit for bit:
totals through constitutive_fluxes, flux_reconstruction_residual and
decay.lyapunov of the converted state.

Audit rows stream to CSV as they are produced (one-sample lag for the
centered difference) so aborted runs retain their trail.  The final state
of a run is always audited, so the last row describes the state the run
ends in, also after an abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

from . import decay
from .dynamics import StepAbort, StepperConfig, convert, integrate
from .fields import (
    PhysParams,
    State,
    constitutive_fluxes,
    energy_density,
    entropy_density,
    entropy_production_density,
    flux_audit,
)
from .grid import integrate as quad

DELTA_FLOOR = -1e-14


class EntropyProductionError(ValueError):
    """An audited state's entropy production is below the roundoff floor:
    the run broke the second law, a runtime failure rather than a bad
    config."""


@dataclass(frozen=True)
class AuditRecord:
    """One audit sample.  dSdt_minus_Delta is the raw centered-difference
    gap (NaN where a neighbor sample is missing); lyapunov is NaN when
    c_p != c_n (the functional's weight needs a common heat capacity)."""

    t: float
    mass_n: float
    mass_p: float
    E: float
    S: float
    Delta: float
    dSdt_minus_Delta: float
    energy_drift_rel: float
    onsager_residual: float
    lyapunov: float

    def __post_init__(self) -> None:
        if self.Delta < DELTA_FLOOR:
            raise EntropyProductionError(
                f"entropy production {self.Delta:.3e} below the roundoff floor"
            )
        for f in dataclass_fields(self):
            val = getattr(self, f.name)
            if math.isinf(val):
                raise ValueError(f"AuditRecord.{f.name} is not finite")


CSV_HEADER = ",".join(f.name for f in dataclass_fields(AuditRecord))


def totals(s: State, params: PhysParams, production=None):
    """(mass_n, mass_p, E, S, Delta) by exact spectral quadrature.
    production is the state's entropy production density; when not given
    it is built from constitutive_fluxes, its definition."""
    if production is None:
        production = entropy_production_density(constitutive_fluxes(s, params), s, params)
    return (
        quad(s.n),
        quad(s.p),
        quad(energy_density(s, params)),
        quad(entropy_density(s, params)),
        quad(production),
    )


class AuditWriter:
    """
    Streams AuditRecord rows to a CSV file with full float64 round-trip
    precision (17 significant digits).  Rows are written with a one-sample
    lag so the centered entropy difference can be filled in; close()
    flushes the final row (its residual is NaN, like the first row's).
    The difference is the three-point formula for the actual sample times,
    so unevenly spaced samples (a short last interval) keep its accuracy.
    """

    def __init__(self, path, params: PhysParams):
        self._fh = open(path, "w")
        self._fh.write(CSV_HEADER + "\n")
        self._params = params
        self._pending: dict | None = None  # newest row, awaiting its successor
        self._prev: dict | None = None  # the last written row
        self._E0 = None
        self.records: list[AuditRecord] = []

    def observe(self, t: float, s: State) -> None:
        params = self._params
        production, residual = flux_audit(s, params)
        mass_n, mass_p, E, S, Delta = totals(s, params, production)
        if self._E0 is None:
            self._E0 = E
        lam = math.nan
        if params.c_p == params.c_n:
            lam = decay.lyapunov(convert(s), params)
        row = {
            "t": t,
            "mass_n": mass_n,
            "mass_p": mass_p,
            "E": E,
            "S": S,
            "Delta": Delta,
            "dSdt_minus_Delta": math.nan,
            "energy_drift_rel": abs(E - self._E0) / abs(self._E0),
            "onsager_residual": residual,
            "lyapunov": lam,
        }
        mid, prev = self._pending, self._prev
        if mid is not None:
            if prev is not None:
                h1 = mid["t"] - prev["t"]
                h2 = t - mid["t"]
                dSdt = (h1 * h1 * (S - mid["S"]) + h2 * h2 * (mid["S"] - prev["S"])) / (
                    h1 * h2 * (h1 + h2)
                )
                mid["dSdt_minus_Delta"] = dSdt - mid["Delta"]
            self._write(mid)
            self._prev = mid
        self._pending = row

    def _write(self, row: dict) -> None:
        rec = AuditRecord(**row)
        self.records.append(rec)
        self._fh.write(
            ",".join(f"{getattr(rec, f.name):.17g}" for f in dataclass_fields(AuditRecord))
            + "\n"
        )
        self._fh.flush()

    def close(self) -> None:
        try:
            if self._pending is not None:
                row, self._pending = self._pending, None
                self._write(row)
        finally:
            self._fh.close()


def audit_run(
    state: State,
    cfg: StepperConfig,
    params: PhysParams,
    csv_path,
    audit_every: int = 10,
    n_steps: int | None = None,
):
    """Integrate with audits every audit_every steps, streaming rows to
    csv_path.  The final state is audited too (once: not again when its
    step is a multiple of audit_every), after a normal end and after a
    StepAbort, where it is the last good state.  Returns
    (final_state, records, aborted_reason): records[-1].t is the time of
    final_state, and aborted_reason is None unless the run aborted."""
    writer = AuditWriter(csv_path, params)
    final, t_final, audited = state, 0.0, False
    reason = None
    try:
        try:
            for i, t, s in integrate(state, cfg, params, n_steps):
                final, t_final = s, t
                audited = i % audit_every == 0
                if audited:
                    writer.observe(t, s)
        except StepAbort as exc:
            reason = str(exc)
        if not audited:
            writer.observe(t_final, final)
    finally:
        writer.close()
    return final, writer.records, reason
