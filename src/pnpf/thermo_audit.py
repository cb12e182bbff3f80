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

One sample (AuditWriter.observe) costs less than one RHS evaluation.
The entropy production density and the reciprocity residual come from a
fields.AuditSink, whose body reads one pass over the axes (per axis the
four one-field inverse transforms of darcy_axes) and adds the residual's
forward transform of (mu_p/theta, mu_n/theta, 1/theta) and three
one-field inverse transforms per axis.  It builds no phi_t, exchange
flux or j_e.  audit_run makes one fields.Slots for the run and
hands it to every step and to the final state's standalone sample, so
the steps' kernels and the samples reuse its buffers.

audit_run steps carried(state) (dynamics.carried): with dealias on, the
band projection of the initial state, checked as a step's output (a
breach ends the run before its first step, and the initial state's one
row is audited as given).  Every state it audits then carries its
spectrum.  totals integrates the densities, and the Lyapunov functional
takes the spectra of (u_tilde, v, theta_tilde, phi) from the carried one
(u_hat = n_hat + p_hat - 2 N delta_0, v_hat = n_hat - p_hat,
theta_tilde_hat = theta_hat - N delta_0, phi_hat = -v_hat/|k|^2, N =
n^dim) without a transform; a State that carries none is converted and
transformed (4 fields).  audit_run hands the sink of each audited state
that is stepped further to that step, whose first RHS evaluation makes
the pass, so the sample adds only the residual's 3 + 3*dim transforms to
the step and observe none.  The final state, and a state whose step
aborts before its first RHS, are audited by fields.flux_audit, which
makes the pass itself from the carried spectrum: 3 + 7*dim transforms.
tests/test_thermo_audit.py pins these counts
(TestAuditSample::test_sample_cost, ::test_carried_sample_cost,
TestFusedSample::test_audited_imex1_step_cost, ::test_audit_run_cost).
Either way every column equals its definition bit for bit, the Lyapunov
column to rounding: totals of the entropy production density of the
constitutive fluxes, the flux-reconstruction residual (the textbook
definitions of both are in tests/oracles.py, and read the same carried
spectrum), and decay.lyapunov of the converted state (to rounding for a
carried State, bit for bit for one without).

Audit rows stream to CSV as they are produced (one-sample lag for the
centered difference) so aborted runs retain their trail.  The final state
of a run is always audited, so the last row describes the state the run
ends in, also after an abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from . import decay
from .dynamics import StepAbort, StepperConfig, carried, convert, step
from .fields import (
    AuditSink,
    FluxAudit,
    PhysParams,
    State,
    energy_density,
    entropy_density,
    flux_audit,
    new_slots,
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
    gap (NaN where a neighbor sample is missing, and in a sample still
    pending in AuditWriter); lyapunov is NaN when c_p != c_n (the
    functional's weight needs a common heat capacity).  The checks run on
    construction, so AuditWriter.observe raises at the sample that fails
    them."""

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


def _lyapunov(s: State, params: PhysParams) -> float:
    """decay.lyapunov of convert(s).  A State that carries its spectrum
    gives the four spectra without a transform: u_hat = n_hat + p_hat -
    2 N delta_0, v_hat = n_hat - p_hat, theta_tilde_hat = theta_hat -
    N delta_0 (N = n^dim, the forward transform of a constant 1 at k = 0)
    and phi_hat = -v_hat/|k|^2."""
    if s.spec is None:
        return decay.lyapunov(convert(s), params)
    g = s.grid
    n_hat, p_hat, th_hat = s.spec
    v_hat = n_hat - p_hat
    spec = np.stack([n_hat + p_hat, v_hat, th_hat, -g.inv_k2 * v_hat])
    origin, size = (0,) * g.dim, g.n**g.dim
    spec[0][origin] -= 2.0 * size
    spec[2][origin] -= size
    return decay.spectral_lyapunov(g, spec, params)


def totals(s: State, params: PhysParams, production):
    """(mass_n, mass_p, E, S, Delta) by exact spectral quadrature.
    production is the state's entropy production density, as
    fields.flux_audit builds it."""
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
    precision (17 significant digits).  Each sample is an AuditRecord from
    the moment observe takes it, so its checks run at that sample.  Rows
    are written with a one-sample lag: the pending record gets its
    centered entropy difference when its successor arrives, and close()
    writes the final record as it is (its residual is NaN, like the first
    row's).  The difference is the three-point formula for the actual
    sample times, so unevenly spaced samples (a short last interval) keep
    its accuracy.
    """

    def __init__(self, path, params: PhysParams):
        self._fh = open(path, "w")
        self._fh.write(CSV_HEADER + "\n")
        self._params = params
        self._pending: AuditRecord | None = None  # newest sample, awaiting its successor
        self._E0 = None
        self.records: list[AuditRecord] = []

    def observe(self, t: float, s: State, flux: FluxAudit | None = None, slots=None) -> None:
        """Add the sample of s at time t.  flux is the FluxAudit of s when
        a step has already built it (AuditSink.audit); None builds it here
        with fields.flux_audit, in slots (a run's fields.Slots) when they
        are given."""
        params = self._params
        production, residual = flux_audit(s, params, slots) if flux is None else flux
        mass_n, mass_p, E, S, Delta = totals(s, params, production)
        if self._E0 is None:
            self._E0 = E
        lam = math.nan
        if params.c_p == params.c_n:
            lam = _lyapunov(s, params)
        rec = AuditRecord(
            t, mass_n, mass_p, E, S, Delta, math.nan,
            abs(E - self._E0) / abs(self._E0), residual, lam,
        )
        mid = self._pending
        if mid is not None:
            if self.records:
                prev = self.records[-1]
                h1 = mid.t - prev.t
                h2 = t - mid.t
                dSdt = (h1 * h1 * (S - mid.S) + h2 * h2 * (mid.S - prev.S)) / (
                    h1 * h2 * (h1 + h2)
                )
                mid = replace(mid, dSdt_minus_Delta=dSdt - mid.Delta)
            self._write(mid)
        self._pending = rec

    def _write(self, rec: AuditRecord) -> None:
        self.records.append(rec)
        self._fh.write(
            ",".join(f"{getattr(rec, f.name):.17g}" for f in dataclass_fields(AuditRecord))
            + "\n"
        )
        self._fh.flush()

    def close(self) -> None:
        try:
            if self._pending is not None:
                rec, self._pending = self._pending, None
                self._write(rec)
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
    final_state, and aborted_reason is None unless the run aborted.

    The steps are those of dynamics.integrate, state i at time i*dt.  An
    audited state that is stepped further is observed once its step
    returns or raises, from the AuditSink the step's first RHS fed (or by
    flux_audit if the step stopped before it), so its row is in csv_path
    whatever the step raised."""
    writer = AuditWriter(csv_path, params)
    total = cfg.n_steps if n_steps is None else n_steps
    s, i, sink, reason = state, 0, None, None
    slots = new_slots(state.grid)  # every step's, and its sample's
    try:
        try:
            s = carried(state, cfg, slots)
        except StepAbort as exc:
            reason = str(exc)
        while reason is None and i < total:
            sink = AuditSink(s, params) if i % audit_every == 0 else None
            try:
                nxt = step(s, cfg, params, sink, slots)
            except StepAbort as exc:
                reason = str(exc)
                break
            finally:
                if sink is not None:
                    writer.observe(i * cfg.dt, s, sink.audit)
            s, i = nxt, i + 1
        if reason is None or sink is None:
            writer.observe(i * cfg.dt, s, slots=slots)
    finally:
        writer.close()
    return s, writer.records, reason
