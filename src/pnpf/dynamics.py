"""
Right-hand sides of the coupled charge/temperature system in both the
primitive (n, p, theta) and perturbation (u_tilde, v, theta_tilde)
formulations, plus RK4 and first-order IMEX time stepping.

Discretization choices that the audits rely on:

* the two continuity equations are discretized in divergence form with a
  spectral outer divergence, so the means of dn and dp vanish exactly and
  ion masses are conserved structurally;
* the temperature equation is evaluated pointwise with every spectral
  derivative acting directly on a primitive field (derivatives of
  composite products are expanded by exact calculus identities before
  discretization); for 2/3-dealiased states this makes the semi-discrete
  total energy exactly conserved and makes the two formulations agree to
  rounding;
* the gradients and Darcy fluxes come from fields.darcy_axes, the
  kernel the audits and variational checks also use, so the audited
  fluxes are the stepped fluxes bit for bit.  It yields one axis at a
  time (four one-field inverse transforms each); the RHS adds that
  axis's terms to three running sums in axis order (the Joule terms
  fold into -j_p.(grad theta + grad phi) and -j_n.(grad theta -
  grad phi); see _fluxes_and_heat_rate), then forward-transforms the
  axis's fluxes j_p,i and j_n,i one at a time and adds their divergence
  into two spectral running sums, so one 2-row flux scratch serves every
  axis.  The Laplacians come after the axis loop, one field per inverse
  transform, and dtheta gets its own forward transform.  Only the
  forward transform of the input (n, p, theta) takes more than one
  field, and every lane is computed as in a batched transform, so the
  output has the bits of one 4-field inverse per axis and one
  (2*dim+1)-row outer forward transform (tests/oracles.batched_rhs_core);
* the electric potential is never integrated: each right-hand-side
  evaluation re-solves Delta(phi) = n - p (equivalently Delta(phi) = v),
  so phi stays slaved to the charge density at every substage.

Each right-hand side is one spectral core (_rhs_primitive_core,
_rhs_perturbation_core): it takes the spectrum of its input (plus, for
the primitive form, the input fields) and returns the spectrum of the
time derivatives, leaving the input spectrum as it was.  The public
rhs_primitive and rhs_perturbation compose the forward transform, the
core's arithmetic with full transforms, dealias_mask and the inverse
transform themselves; the tests' real-space compositions
(tests/oracles) are built on them, and the steppers match them to
rounding.

One stepper shape serves both forms.  step advances the spectrum y_hat of
the stepped fields, (n, p, theta) or (u_tilde, v, theta_tilde), which
every state a step returns carries (State.spec, PerturbationState.spec).
A state that carries none gets it from carried: with dealias on, its band
projection (forward transform, dealias_mask, and the closing inverse
below), so an initial state with content above n//3 starts from its
projection, with dealias off the forward transform of its fields.
integrate, thermo_audit.audit_run and a one-off step call it.  RK4 (_rk4)
builds its stages spectrally, in a stage buffer (primitive form) or in
the perturbation stack's last three rows, and inverse-transforms each
stage once: the primitive RHS copies the stage into the slots' spectra
and transforms it into the stage's fields, the perturbation RHS
transforms it in its stack's batch; either checks the fields against the
floor there.  k1 of RK4 and the IMEX1 core take the state's own fields;
step hands either scheme one RHS of one signature for both forms,
rhs(y, values) (_step_rhs).
One IMEX1 update (_imex1) serves both forms: it calls the form's core on
the carried spectrum and returns the new one, so the RHS output is never
transformed back and forth.  Its implicit part is the form's
constant-coefficient diffusion block -|k|^2 M, M = _linear_block (the
linearization at (n, p, theta) = (1, 1, 1)), solved mode by mode; the
spectral radius of the same M sets stability_bound.

A step closes (_close) with one inverse transform of (y_hat, phi_hat),
phi_hat = -v_hat/|k|^2 with v_hat = n_hat - p_hat or the v row, which
gives the new state with its potential: no step solves Poisson.  The
closing check is the new state's one scan (_check_state): finiteness and
the floor of the stepped fields, then neutrality, read off the k = 0
entry of v_hat, each a StepAbort; the State or PerturbationState is then
built without its constructor's scans.  decay.run samples the carried
spectrum without a transform, and an audit sample of a carried State
takes its Lyapunov functional from it (thermo_audit).

With dealias on, the spectrum a step works on vanishes outside the 2/3
band, and so does every spectrum it inverse-transforms; every forward
transform's output is masked.  So every transform of the step is a band
transform (GridSpec.fft and ifft with band, which skip the lanes outside
the band and keep the bits): the Darcy gradients (fields.darcy_axes) and
the three Laplacians, the flux-divergence and dtheta forward transforms,
the stage and closing inverses, and the perturbation stack's inverse and
the rates' forward transform.  A core masks its output exactly when
band is set, and the steppers pass band = cfg.dealias; a caller with any
other spectrum keeps band False and masks the output itself.  IMEX1 needs
no mask of its own: its update vanishes wherever its inputs do.

The transform counts of a step are pinned in tests/test_dynamics.py:
TestSpectralCore::test_run_step_transform_count and
::test_imex1_step_cost (primitive form), and
TestCarriedSpectrum::test_step_transform_count (perturbation form).

step can feed an audit sample (a fields.AuditSink) from its first RHS
evaluation, k1 of RK4 or the IMEX1 core: the Darcy pass is the sample's,
the |q|^2, |j_p|^2 and |j_n|^2 sums and the production density ride on
its axis loop, and the reconstruction residual runs after the heat rate
on the fluxes, which that evaluation keeps in one (dim, 2) block array
and transforms pair by pair only after the residual.  So the sample adds
only the residual's transforms to the step, fewer than a standalone
fields.flux_audit makes (TestSpectralCore::test_transform_count).  Its
coefficient arrays are built only after the axis loop, and its three sums
live only in that loop, below the RHS's peak, so the step's peak memory
grows by the one grid of the production density.

The primitive kernels write their gradients, Laplacians and residual
gradients, and every product of the flux and heat-rate arithmetic, into
a fields.Slots (four real grids and one spectrum) in place, in the
order of the expressions they replace, so the bits are those of the
expressions; each flux's forward transform writes into the slots'
spectrum too, and the stage and closing inverse transforms read their
input from the same memory seen as four spectra.  integrate and
thermo_audit.audit_run make one Slots for all their steps, which at 64^3
saves most of the page faults that freeing and reallocating those grids
at every evaluation cost (glibc hands freed full-grid chunks back to the
OS, and the next RHS faults them in again); a step, or an RHS, given none
makes its own.  The Slots are never cached on the grid, so a run's
buffers die with it.  integrate makes one new_perturbation_slots for a
perturbation-form run too: the spectral stack, whose memory also holds
the rates and the arithmetic's scratch once its inverse transform has
run, and the real array that transform writes into.  A one-off
perturbation step makes one stack for its evaluations, and each
evaluation makes its real array only once the stack is filled and frees
it before the rates' forward transform, so a one-off step peaks below a
run.

RK4 keeps one accumulator, k1 + 2 k2 + 2 k3 + k4 summed in that order,
instead of the four stage derivatives, so besides it only the current
stage and its derivative are alive; it becomes the new spectrum in place,
with the bits of y + dt/6 (k1 + 2 k2 + 2 k3 + k4).

Sign convention, fixed once: with v = n - p the potential satisfies
Delta(phi) = v, which is the choice that makes
<laplacian(v) - 2v, phi> = ||v||^2 + 2||grad phi||^2 (unit-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import poisson
from .fields import POSITIVITY_FLOOR, PhysParams, State, darcy_axes, new_slots
from .grid import GridSpec, ScalarField

_RK4_REAL_AXIS = 2.785  # |lambda| dt limit on the negative real axis


class StepAbort(RuntimeError):
    """Integration aborted: positivity floor breached or non-finite values."""


@dataclass(frozen=True)
class PerturbationState:
    """
    Deviation variables u_tilde = n + p - 2, v = n - p,
    theta_tilde = theta - 1, with phi the zero-mean solution of
    Delta(phi) = v.

    Invariants: mean(v) = 0; 2 + u_tilde and 1 + theta_tilde positive.

    spec is the spectrum of (u_tilde, v, theta_tilde), three rows, that
    the stepper carries from step to step, the fields being its inverse
    transform; None until carried sets it (integrate and step call it).
    """

    u_tilde: ScalarField
    v: ScalarField
    theta_tilde: ScalarField
    phi: ScalarField
    spec: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if abs(float(self.v.values.mean())) > poisson.NEUTRALITY_TOL:
            raise poisson.NonNeutralSource("mean(v) must vanish")
        if float(self.u_tilde.values.min()) <= -2.0:
            raise ValueError("2 + u_tilde must stay positive")
        if float(self.theta_tilde.values.min()) <= -1.0:
            raise ValueError("1 + theta_tilde must stay positive")

    @property
    def grid(self) -> GridSpec:
        return self.v.grid

    @classmethod
    def from_fields(
        cls, u_tilde: ScalarField, v: ScalarField, theta_tilde: ScalarField
    ) -> "PerturbationState":
        return cls(u_tilde, v, theta_tilde, poisson.solve(v))


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "RK4"
    dt: float = 1e-3
    t_end: float = 1.0
    dealias: bool = True
    positivity_floor: float = POSITIVITY_FLOOR

    def __post_init__(self) -> None:
        if self.scheme not in ("RK4", "IMEX1"):
            raise ValueError(f"scheme must be RK4 or IMEX1, got {self.scheme!r}")
        if not (self.dt > 0 and self.t_end > 0):
            raise ValueError("dt and t_end must be positive")
        # every State enforces fields.POSITIVITY_FLOOR; a lower stage floor
        # would let a breach pass the stepper and fail in a State build
        if not (self.positivity_floor >= POSITIVITY_FLOOR):
            raise ValueError(
                f"positivity_floor {self.positivity_floor!r} is below the State "
                f"floor {POSITIVITY_FLOOR:.0e}"
            )

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


def convert(s: State) -> PerturbationState:
    """(n, p, theta, phi) -> (u_tilde, v, theta_tilde, phi), exact arithmetic."""
    g = s.grid
    return PerturbationState(
        ScalarField(g, s.n.values + s.p.values - 2.0),
        ScalarField(g, s.n.values - s.p.values),
        ScalarField(g, s.theta.values - 1.0),
        s.phi,
    )


def convert_back(ps: PerturbationState) -> State:
    """Exact inverse of convert."""
    g = ps.grid
    ut, v = ps.u_tilde.values, ps.v.values
    return State(
        ScalarField(g, 1.0 + 0.5 * (ut + v)),
        ScalarField(g, 1.0 + 0.5 * (ut - v)),
        ScalarField(g, 1.0 + ps.theta_tilde.values),
        ps.phi,
    )


# -- raw-array right-hand sides ----------------------------------------------


def _axis_divergence(grid: GridSpec, div, i, pair, sp, band) -> None:
    """Add grad_mult[i] times the spectra of axis i's flux pair (j_p,i,
    j_n,i) into the running sums div = (div j_n, div j_p)^: one one-field
    forward transform per flux (a band transform with band) into the
    slots' spectrum sp, which then takes its product with grad_mult[i]."""
    m = grid.grad_mult[i]
    for k in (1, 0):
        grid.fft(pair[k], out=sp, band=band)
        sp *= m
        div[1 - k] += sp


def _fluxes_and_heat_rate(grid: GridSpec, spec, n, p, th, params: PhysParams, slots, div=None,
                          j=None, sink=None, band=False):
    """The pointwise temperature rate dtheta of (n, p, th), from their
    forward transform spec, which is left as it was.  Given div, every
    axis writes its Darcy fluxes into one 2-row scratch and adds their
    divergence into div as soon as its terms are summed (_axis_divergence),
    and the scratch dies before the heat stage.  Given j instead, axis i's
    fluxes stay in the block j[i] and their divergence is the caller's.
    An audit sink takes each axis's d_i theta, j_p,i and j_n,i.  The
    gradients, the Laplacians and every product go into slots
    (fields.Slots).  band makes the gradients', the Laplacians' and the
    fluxes' transforms band transforms (the caller masks the divergence).

    The rate is the paper's

        (c_p p + c_n n) dtheta = k Delta(theta) + |j_p|^2/(D_p p)
            + |j_n|^2/(D_n n) - theta div(j_p) + (theta/p) j_p.grad(p)
            - theta div(j_n) + (theta/n) j_n.grad(n)
            - (c_p j_p + c_n j_n).grad(theta),

    whose Joule terms fold by j_p = -D_p (theta grad p + p grad theta
    + p grad phi) into |j_p|^2/(D_p p) + (theta/p) j_p.grad(p) =
    -j_p.(grad theta + grad phi), and likewise for n with -grad phi.  So
    three running sums carry it: a_p = grad p.(2 grad theta + grad phi),
    a_n = grad n.(2 grad theta - grad phi) and b = j_p.((c_p+1) grad theta
    + grad phi) + j_n.((c_n+1) grad theta - grad phi)."""
    Dp, Dn, kh = params.D_p, params.D_n, params.k
    wp, wn = params.c_p + 1.0, params.c_n + 1.0

    # the three sums over the axes, added in axis order; every derivative
    # acts on a primitive field, so div(j) expands with the Laplacians
    # built after the loop
    a_p, a_n, b = (np.zeros(grid.shape) for _ in range(3))
    if j is None:
        j = [np.empty((2,) + grid.shape)] * grid.dim
    # every product in place, in the order of a_p += gp (2 gth + gphi),
    # a_n += gn (2 gth - gphi) and b += jp (wp gth + gphi) + jn (wn gth -
    # gphi): t is the slots' scratch, and u the row of d_i n, which only
    # a_n reads
    t, u = slots.tmp, slots.rows[0]
    axes = darcy_axes(grid, spec, n, p, th, params, j, slots, band)
    for i, (gn, gp, gth, gphi, jp, jn) in enumerate(axes):
        np.multiply(2.0, gth, out=t)
        t += gphi
        a_p += np.multiply(t, gp, out=t)
        np.multiply(2.0, gth, out=t)
        t -= gphi
        a_n += np.multiply(t, gn, out=t)
        np.multiply(wp, gth, out=t)
        t += gphi
        t *= jp
        np.multiply(wn, gth, out=u)
        u -= gphi
        t += np.multiply(u, jn, out=u)
        b += t
        if sink is not None:
            sink.axis(gth, jp, jn, t)
        if div is not None:
            _axis_divergence(grid, div, i, j[i], slots.spec, band)
    del j, jp, jn  # the fluxes are views of j
    if sink is not None:
        sink.production()

    # the Laplacians: theta and p for the D_p half of the rate, then n;
    # every product in place, in the order of
    # heat = Dp (p lap_th + th lap_p + p rho + a_p) and
    # heat += Dn (n lap_th + th lap_n - n rho + a_n)
    neg_k2 = -grid.k2
    rows, sp = slots.rows, slots.spec
    lap_th = grid.ifft(np.multiply(neg_k2, spec[2], out=sp), out=rows[0], band=band)
    lap_p = grid.ifft(np.multiply(neg_k2, spec[1], out=sp), out=rows[1], band=band)
    # equals Delta(phi) exactly for the slaved potential
    rho = np.subtract(n, p, out=rows[2])
    t, u = rows[3], slots.tmp
    np.multiply(p, lap_th, out=t)
    t += np.multiply(th, lap_p, out=u)
    t += np.multiply(p, rho, out=u)
    a_p += t
    a_p *= Dp
    heat = a_p
    lap_n = grid.ifft(np.multiply(neg_k2, spec[0], out=sp), out=rows[1], band=band)
    np.multiply(n, lap_th, out=t)
    t += np.multiply(th, lap_n, out=u)
    t -= np.multiply(n, rho, out=u)
    a_n += t
    a_n *= Dn
    heat += a_n
    del a_n
    heat *= th
    heat += np.multiply(kh, lap_th, out=t)
    heat -= b
    del b
    np.multiply(params.c_p, p, out=t)
    t += np.multiply(params.c_n, n, out=u)
    return np.divide(heat, t, out=heat)


def _rhs_primitive_core(grid: GridSpec, spec, n, p, th, params: PhysParams, sink=None, slots=None,
                        band=False):
    """Spectrum of (dn, dp, dtheta), shape (3,) + spectral_shape, from the
    forward transform spec of (n, p, th) and the fields themselves; spec
    is left as it was.  A fields.AuditSink of the state (n, p, th) is fed
    by the flux pass and takes its residual over the pass's fluxes, which
    are then kept for every axis, and the divergence waits for it.  slots
    (fields.new_slots) hold the gradients, the Laplacians and the
    residual's gradients; None makes call-local ones.  band, for a spec
    that vanishes outside the 2/3 band, makes every transform of the flux
    pass, the Laplacians and the forward transforms a band transform
    (GridSpec.fft) and masks the output; the residual's stay full."""
    if slots is None:
        slots = new_slots(grid)
    # continuity equations in divergence form (spectral outer divergence),
    # summed from zeros so the sums have the bits of -sum(m_i j_hat_i)
    div_shape = (2,) + grid.spectral_shape
    if sink is None:
        div = np.zeros(div_shape, dtype=complex)
        dth = _fluxes_and_heat_rate(grid, spec, n, p, th, params, slots, div=div, band=band)
    else:
        # the residual reads every axis's fluxes; their divergence waits
        # until it has run, so no spectral sum is alive next to it
        j = np.empty((grid.dim, 2) + grid.shape)
        dth = _fluxes_and_heat_rate(grid, spec, n, p, th, params, slots, j=j, sink=sink,
                                    band=band)
        sink.residual(j, slots)
        div = np.zeros(div_shape, dtype=complex)
        for i in range(grid.dim):
            _axis_divergence(grid, div, i, j[i], slots.spec, band)
        del j
    out = np.empty((3,) + grid.spectral_shape, dtype=complex)
    np.negative(div, out=out[:2])
    del div
    grid.fft(dth, out=out[2], band=band)
    del dth
    if band:
        np.multiply(grid.dealias_mask, out, out=out)
    return out


class PerturbationSlots(NamedTuple):
    """The buffers of _perturbation_rates.  stack takes the spectra of
    the gradients of (u_tilde, v, theta_tilde, phi), in that order and
    axis by axis, then the Laplacians of (u_tilde, v, theta_tilde), then,
    in its last three rows, a stage's spectrum; real takes the stack's
    inverse transform, its last three rows the evaluation's (u_tilde, v,
    theta_tilde).  rates (three real grids) and tmp (five) are the
    stack's memory seen as real grids, which the pointwise arithmetic uses
    once the inverse transform has consumed the stack; rates is what the
    forward transform of the rates reads.  A real of None is made by each
    evaluation once the stack is filled and freed before that forward
    transform."""

    stack: np.ndarray  # (rows,) + grid.spectral_shape, complex
    real: np.ndarray | None  # (4*dim+6,) + grid.shape
    rates: np.ndarray  # (3,) + grid.shape, the memory of stack
    tmp: np.ndarray  # (5,) + grid.shape, the memory of stack


def _perturbation_slots(grid: GridSpec, rows: int, real: bool) -> PerturbationSlots:
    """PerturbationSlots of grid with a stack of rows spectral rows (at
    least 8, so that rates and tmp fit in its memory), and a real buffer
    only if real."""
    stack = np.empty((max(rows, 8),) + grid.spectral_shape, dtype=complex)
    work = stack.reshape(-1).view(float)[: 8 * grid.n**grid.dim].reshape((8,) + grid.shape)
    buf = np.empty((4 * grid.dim + 6,) + grid.shape) if real else None
    return PerturbationSlots(stack, buf, work[:3], work[3:])


def new_perturbation_slots(grid: GridSpec) -> PerturbationSlots:
    """The buffers a perturbation-form run keeps: every RHS evaluation of
    the run fills and reads them, RK4 builds its stages in the stack's
    last three rows, and each step's closing inverse transform of (y_hat,
    phi_hat) takes the stack's last four."""
    return _perturbation_slots(grid, 4 * grid.dim + 6, True)


def _dot(a, b, out, t):
    """sum_i a[i] * b[i] over the axis rows, into out; t is scratch."""
    np.multiply(a[0], b[0], out=out)
    for i in range(1, len(a)):
        out += np.multiply(a[i], b[i], out=t)
    return out


def _perturbation_rates(grid: GridSpec, spec3, params: PhysParams, slots=None, values=None,
                        check=None, band=False):
    """(du_tilde, dv, dtheta_tilde) pointwise, before dealiasing, as the
    rows of slots.rates, from the spectrum spec3 of (ut, v, tt).

    The gradients of (ut, v, tt, phi), with phi_hat = -v_hat/|k|^2, and the
    Laplacians of (ut, v, tt) come from one inverse transform of the
    spectral stack, filled in place.  values, the fields (ut, v, tt)
    themselves, are copied into the value rows of the real buffer, and
    spec3 is left as it was.  Given None instead, spec3 joins the stack in
    its value rows, unless it is those rows already (RK4 builds its stages
    there), and the same inverse transform, which consumes it, gives the
    fields; check, when given, sees them before any arithmetic.  slots
    (PerturbationSlots) hold the buffers; given None, call-local ones hold
    only what this evaluation needs.  band, for a spec3 that vanishes
    outside the 2/3 band, makes the inverse transform a band transform.

    Every product goes into slots.rates and slots.tmp in place, in the
    order of the expressions of the perturbation system, written out in
    the comments."""
    c = params.c
    d = grid.dim
    r = 4 * d + 3  # the gradient and Laplacian rows
    rows = r if values is not None else r + 3
    stack, real, rates, tmp = slots or _perturbation_slots(grid, rows, False)
    A, B, C, t, w = tmp
    if values is None:
        for row, fh in zip(stack[r:rows], spec3):
            if not np.may_share_memory(row, fh):
                np.copyto(row, fh)
    uth, vh, tth = spec3[0], spec3[1], spec3[2]
    for j, fh in enumerate((uth, vh, tth)):
        for i, m in enumerate(grid.grad_mult):
            np.multiply(m, fh, out=stack[j * d + i])
    # phi_hat goes into the first row of its gradient, which takes its own
    # product last
    phih = np.multiply(-grid.inv_k2, vh, out=stack[3 * d])
    for i in reversed(range(d)):
        np.multiply(grid.grad_mult[i], phih, out=stack[3 * d + i])
    neg_k2 = -grid.k2
    for j, fh in enumerate((uth, vh, tth)):
        np.multiply(neg_k2, fh, out=stack[4 * d + j])
    # a caller that passes its forward transform inline frees it here
    del spec3, uth, vh, tth, fh, neg_k2, phih
    if real is None:  # made only now, when the input spectrum is gone
        real = np.empty((r + 3,) + grid.shape)
    grid.ifft(stack[:rows], out=real[:rows], band=band)
    del stack
    if values is None:
        if check is not None:
            check(real[r:])
    else:
        for row, f in zip(real[r:], values):
            np.copyto(row, f)
    gu, gv, gt, gphi = real[0:d], real[d : 2 * d], real[2 * d : 3 * d], real[3 * d : 4 * d]
    lap_u, lap_v, lap_t = real[4 * d], real[4 * d + 1], real[4 * d + 2]
    ut, v, tt = real[r], real[r + 1], real[r + 2]
    du, dv, dtt = rates

    # du = lap_u + 2 lap_t + tt lap_u + ut lap_t + 2 gt.gu - gv.gphi - v v
    np.multiply(2.0, lap_t, out=du)
    du += lap_u
    du += np.multiply(tt, lap_u, out=t)
    du += np.multiply(ut, lap_t, out=t)
    gt_gu = _dot(gt, gu, A, t)
    du += np.multiply(2.0, gt_gu, out=t)
    gv_gphi = _dot(gv, gphi, B, t)
    du -= gv_gphi
    du -= np.multiply(v, v, out=t)

    # dv = lap_v - 2 v + tt lap_v + v lap_t + 2 gt.gv - gu.gphi - ut v
    np.multiply(2.0, v, out=dv)
    np.subtract(lap_v, dv, out=dv)
    dv += np.multiply(tt, lap_v, out=t)
    dv += np.multiply(v, lap_t, out=t)
    dv += np.multiply(2.0, _dot(gt, gv, C, t), out=t)
    dv -= _dot(gu, gphi, C, t)
    dv -= np.multiply(ut, v, out=t)

    # with w = 2 + ut:
    # c dtt = 1.5 lap_t + 0.5 lap_u + tt lap_t - (ut/(2w)) lap_t
    #         + ((2 tt tt + 4 tt - ut)/(2w)) lap_u + (c+1) gt.gt
    #         + (c+3) ((1+tt)/w) gt.gu - 2 ((1+tt)/w) gv.gphi
    #         - (c+2) (v/w) gt.gphi - (1+tt) v v/w + gphi.gphi
    np.add(ut, 2.0, out=w)
    np.multiply(1.5, lap_t, out=dtt)
    dtt += np.multiply(0.5, lap_u, out=t)
    dtt += np.multiply(tt, lap_t, out=t)
    np.multiply(2.0, w, out=t)
    np.divide(ut, t, out=t)
    dtt -= np.multiply(t, lap_t, out=t)
    np.multiply(2.0, tt, out=t)
    t *= tt
    t += np.multiply(4.0, tt, out=C)
    t -= ut
    t /= np.multiply(2.0, w, out=C)
    dtt += np.multiply(t, lap_u, out=t)
    gt2 = _dot(gt, gt, C, t)
    dtt += np.multiply(c + 1.0, gt2, out=C)
    np.add(tt, 1.0, out=C)
    C /= w  # (1 + tt)/w
    np.multiply(c + 3.0, C, out=t)
    dtt += np.multiply(t, gt_gu, out=t)
    np.multiply(2.0, C, out=t)
    dtt -= np.multiply(t, gv_gphi, out=t)
    del gt_gu, gv_gphi
    np.divide(v, w, out=C)
    C *= c + 2.0
    dtt -= np.multiply(C, _dot(gt, gphi, A, t), out=C)
    np.add(tt, 1.0, out=C)
    C *= v
    C *= v
    C /= w
    dtt -= C
    dtt += _dot(gphi, gphi, C, t)
    dtt /= c
    return rates


def _rhs_perturbation_core(grid: GridSpec, spec3, params: PhysParams, slots=None, values=None,
                           check=None, band=False):
    """Spectrum of (du_tilde, dv, dtheta_tilde), shape (3,) +
    spectral_shape, from the spectrum spec3 of (ut, v, tt), which is left
    as it was: one forward transform of the rows _perturbation_rates
    writes, given slots, values, check and band; band, for a spec3 that
    vanishes outside the 2/3 band, makes both transforms band transforms
    and masks the output."""
    spec = grid.fft(_perturbation_rates(grid, spec3, params, slots, values, check, band),
                    band=band)
    if band:
        np.multiply(grid.dealias_mask, spec, out=spec)
    return spec


def _require_perturbation_params(params: PhysParams) -> None:
    if params.c_p != params.c_n or not (params.c_p > 1):
        raise ValueError("perturbation form needs c_p == c_n == c > 1")
    if params.D_p != 1.0 or params.D_n != 1.0 or params.k != 1.0:
        raise ValueError("perturbation form is stated for D_p = D_n = k = 1")


def rhs_primitive(s: State, params: PhysParams, dealias: bool = True):
    """Time derivatives (dn, dp, dtheta) of the primitive system: the
    forward transform of (n, p, theta), the core with full transforms,
    dealias_mask when dealias, and one inverse transform per field."""
    g = s.grid
    ys = (s.n.values, s.p.values, s.theta.values)
    out = _rhs_primitive_core(g, g.fft(np.stack(ys)), *ys, params)
    if dealias:
        np.multiply(g.dealias_mask, out, out=out)
    return tuple(ScalarField(g, g.ifft(row)) for row in out)


def rhs_perturbation(ps: PerturbationState, params: PhysParams, dealias: bool = True):
    """Time derivatives (du_tilde, dv, dtheta_tilde) of the reformulated
    system (requires c_p == c_n > 1 and unit mobilities/conduction): the
    forward transform of (u_tilde, v, theta_tilde) and _perturbation_rates
    given the fields, then, dealiased, the rates' forward transform,
    dealias_mask and the inverse transform; undealiased, the pointwise
    rates as they are.  It calls _perturbation_rates rather than the core
    so that the kernel holds the only reference to the forward transform
    and frees it before making its real buffer."""
    _require_perturbation_params(params)
    g = ps.grid
    ys = (ps.u_tilde.values, ps.v.values, ps.theta_tilde.values)
    rates = _perturbation_rates(g, g.fft(np.stack(ys)), params, values=ys)
    if dealias:
        spec = g.fft(rates)
        del rates
        np.multiply(g.dealias_mask, spec, out=spec)
        rates = g.ifft(spec)
    else:
        rates = rates.copy()
    return tuple(ScalarField(g, row) for row in rates)


# -- stability estimate -------------------------------------------------------


def _linear_block(params: PhysParams, primitive: bool) -> np.ndarray:
    """The 3x3 matrix M of the constant-coefficient diffusion block: at
    the equilibrium (n, p, theta) = (1, 1, 1) the linear rates of mode k
    are -|k|^2 M y, for y = (n, p, theta) or (u_tilde, v, theta_tilde).
    Both blocks have M[0,1] = M[1,0] = 0, and each pair M[i,2], M[2,i] is
    zero or of positive product, so M is similar to a symmetric matrix;
    its eigenvalues are real and positive (tested in TestImex1Update)."""
    if primitive:
        cs = params.c_p + params.c_n
        return np.array(
            [
                [params.D_n, 0.0, params.D_n],
                [0.0, params.D_p, params.D_p],
                [params.D_n / cs, params.D_p / cs, (params.k + params.D_p + params.D_n) / cs],
            ]
        )
    c = params.c_p
    return np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0 / (2 * c), 0.0, 3.0 / (2 * c)]])


def stability_bound(
    grid: GridSpec,
    params: PhysParams,
    scheme: str,
    theta_max: float = 1.1,
    deviation: float = 0.1,
    primitive: bool = True,
) -> float:
    """
    Estimated maximal stable dt.

    RK4: the stiffest retained mode has |k|^2 = dim*(2*pi*floor(N/3)/L)^2;
    the rate is theta_max * |k|^2 * rho with rho the linear block's
    spectral radius, the largest eigenvalue of M = _linear_block, and
    dt_max = 2.785/rate.  IMEX1 solves -|k|^2 M implicitly (_imex1), so
    only the variable-coefficient remainder (size ~ `deviation`) limits
    the step, plus the order-one screening term.
    """
    m_cut = grid.n // 3
    k2max = grid.dim * (2.0 * math.pi * m_cut / grid.length) ** 2
    rho = float(np.abs(np.linalg.eigvals(_linear_block(params, primitive))).max())
    if scheme == "RK4":
        return _RK4_REAL_AXIS / (theta_max * k2max * rho)
    if scheme == "IMEX1":
        return 1.0 / (max(deviation, 1e-6) * k2max * rho + 2.0)
    raise ValueError(f"unknown scheme {scheme!r}")


# -- steppers -----------------------------------------------------------------


def _check_stage(names, arrays, floor, shifts):
    """StepAbort unless every row of arrays is finite and min(row) + shift
    is at least the floor, row by row in order; a shift of math.inf checks
    finiteness only.  One min and one max reduction over all the rows: a
    row is finite when both its extremes are."""
    flat = arrays.reshape(len(arrays), -1)
    lows, highs = flat.min(axis=1).tolist(), flat.max(axis=1).tolist()
    for name, low, high, shift in zip(names, lows, highs, shifts):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise StepAbort(f"non-finite values in {name}")
        if low + shift < floor:
            raise StepAbort(
                f"positivity floor breached: min({name}) = {low + shift:.3e} < {floor!r}"
            )


class _Form(NamedTuple):
    """What a step of one form needs besides its RHS: the state type and
    its field names (the three stepped fields, then phi), and the names
    and floor shifts of the stepped fields' checks."""

    state: type
    fields: tuple
    names: tuple
    shifts: tuple


_PRIMITIVE = _Form(State, ("n", "p", "theta", "phi"), ("n", "p", "theta"), (0.0, 0.0, 0.0))
_PERTURBATION = _Form(
    PerturbationState, ("u_tilde", "v", "theta_tilde", "phi"),
    ("2 + u_tilde", "v", "1 + theta_tilde"), (2.0, math.inf, 1.0),  # v is unconstrained
)


def _form(state) -> _Form:
    if isinstance(state, State):
        return _PRIMITIVE
    if isinstance(state, PerturbationState):
        return _PERTURBATION
    raise TypeError(f"cannot step object of type {type(state).__name__}")


def _trusted(cls, **values):
    """cls(**values) without its __post_init__, for values whose checks
    have passed: a stepped state is scanned once, by _check_state."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_state(grid: GridSpec, y, fields3, cfg: StepperConfig, form: _Form) -> None:
    """The one check of a state a step returns: the finiteness and the
    floor of its stepped fields fields3 (_check_stage), then neutrality,
    read off the k = 0 entry of its spectrum y: mean(n - p), or mean(v)."""
    _check_stage(form.names, fields3, cfg.positivity_floor, form.shifts)
    origin = (0,) * grid.dim
    v0 = y[0][origin] - y[1][origin] if form is _PRIMITIVE else y[1][origin]
    mean = float(v0.real) / grid.n**grid.dim
    if abs(mean) > poisson.NEUTRALITY_TOL:
        raise StepAbort(
            f"neutrality breached: mean({'n - p' if form is _PRIMITIVE else 'v'}) = "
            f"{mean:.3e} exceeds {poisson.NEUTRALITY_TOL:.0e}"
        )


def _close(grid: GridSpec, y, four, cfg: StepperConfig, form: _Form):
    """The state whose spectrum is y, three rows, which it carries: one
    inverse transform of (y, phi_hat), phi_hat = -v_hat/|k|^2 with v_hat =
    n_hat - p_hat or the second row, from the four spectral rows four,
    which it consumes, checked once (_check_state).  The state and its
    fields are built without the constructors' scans."""
    v = np.subtract(y[0], y[1], out=four[3]) if form is _PRIMITIVE else y[1]
    np.multiply(-grid.inv_k2, v, out=four[3])
    np.copyto(four[:3], y)
    out = grid.ifft(four, band=cfg.dealias)
    _check_state(grid, y, out[:3], cfg, form)
    values = {name: _trusted(ScalarField, grid=grid, values=a) for name, a in zip(form.fields, out)}
    return _trusted(form.state, spec=y, **values)


def _four(grid: GridSpec, slots, form: _Form):
    """The four spectral rows a closing inverse transform reads: the
    slots' (fields.Slots.spectra, or the perturbation stack's last four
    rows), or new ones."""
    if slots is None:
        return np.empty((4,) + grid.spectral_shape, dtype=complex)
    return slots.spectra if form is _PRIMITIVE else slots.stack[-4:]


def carried(state, cfg: StepperConfig, slots=None):
    """state with the spectrum a step carries (spec): state itself when it
    carries one.  Else, with dealias on, its band projection: the forward
    transform of its stepped fields times dealias_mask, closed like a
    step's output (_close), so every state a dealiased step works on is
    band-limited and every transform of the step can be a band transform.
    With dealias off, state with the forward transform of its fields,
    checked as _close checks.  Either way the checks raise StepAbort.
    slots are a run's (new_slots or new_perturbation_slots), or None.  A
    carried spectrum is taken as it is: a state keeps the dealias setting
    of the steps that made it."""
    if state.spec is not None:
        return state
    form, g = _form(state), state.grid
    ys = np.stack([getattr(state, name).values for name in form.fields[:3]])
    spec = g.fft(ys)
    if cfg.dealias:
        del ys
        np.multiply(g.dealias_mask, spec, out=spec)
        return _close(g, spec, _four(g, slots, form), cfg, form)
    _check_state(g, spec, ys, cfg, form)
    values = {name: getattr(state, name) for name in form.fields}
    return _trusted(form.state, spec=spec, **values)


def _step_rhs(grid: GridSpec, params: PhysParams, cfg: StepperConfig, slots, form: _Form, sink):
    """The RHS a step hands to _rk4 and _imex1, one signature for both
    forms: rhs(y, values=None) is the form's core on the spectrum y, in the
    run's slots, with band = cfg.dealias.  values are the stepped state's
    own fields, and that evaluation feeds sink (primitive form only).
    Given no values, a stage's come from one inverse transform of y, which
    the stage check sees before any arithmetic: the perturbation core
    transforms y in its stack's batch, the primitive RHS a copy of y in
    slots.spectra, into one buffer that the step's first stage makes."""
    band = cfg.dealias

    def check(ys):
        _check_stage(form.names, ys, cfg.positivity_floor, form.shifts)

    if form is _PERTURBATION:
        return lambda y, values=None: _rhs_perturbation_core(
            grid, y, params, slots, values, check, band)
    real = None

    def rhs(y, values=None):
        nonlocal real
        if values is not None:
            return _rhs_primitive_core(grid, y, *values, params, sink, slots, band)
        if real is None:
            real = np.empty((3,) + grid.shape)
        work = slots.spectra[:3]
        np.copyto(work, y)
        values = grid.ifft(work, out=real, band=band)
        check(values)
        return _rhs_primitive_core(grid, y, *values, params, None, slots, band)

    return rhs


def _rk4(y, rhs, dt, values, stage=None):
    """One RK4 step of the spectrum y, which is left as it was: k1 =
    rhs(y, values), the state's own fields values, each later k =
    rhs(stage) of the stage y + c dt k built in stage (a buffer, or None
    for one made after k1).  One accumulator sums k1 + 2 k2 + 2 k3 + k4 in
    that order (see the module docstring) and becomes y + dt/6 (k1 + 2 k2
    + 2 k3 + k4) in place, with those bits."""
    acc = rhs(y, values)
    if stage is None:
        stage = np.empty_like(acc)
    k = acc
    for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        for yi, ki, si in zip(y, k, stage):
            np.multiply(c * dt, ki, out=si)
            si += yi
        del k, ki
        k = rhs(stage)
        for a, ki in zip(acc, k):
            a += w * ki
        del ki  # a row of k, which would keep k alive through the next stage
    del k
    acc *= dt / 6.0
    acc += y
    return acc


def step(state, cfg: StepperConfig, params: PhysParams, sink=None, slots=None):
    """
    Advance one time step; returns the same type it receives (State or
    PerturbationState), which carries the new spectrum.  Any substage that
    breaches the positivity floor or produces non-finite values, and a new
    state that breaks neutrality, raises StepAbort; nothing is clamped.

    The step advances the spectrum state carries, or the one carried(state)
    gives it: with dealias on, a state that carries none is projected onto
    the band first.  RK4 builds its stages spectrally and inverse-transforms
    each once, and the first RHS evaluation (k1 of RK4, the IMEX1 core)
    takes the state's own fields.  One inverse transform of (y_hat,
    phi_hat) closes the step (_close), so no step solves Poisson.

    sink, a fields.AuditSink, is fed by the step's first RHS evaluation:
    after it, sink.audit is the FluxAudit of the state the step works on,
    which the step makes sink.state (the projection of an uncarried
    state).  A step that aborts before that evaluation leaves sink.audit
    None.

    slots are the buffers every RHS evaluation of the step writes into: for
    a State the fields.new_slots of its grid, which take its gradients and
    Laplacians and the inputs of its stage and closing inverse transforms,
    and None makes one for this step; for a PerturbationState the
    new_perturbation_slots of its grid, which take the stack of its
    stages, gradients and Laplacians and that stack's inverse transform,
    and None makes one stack for this step and leaves each evaluation a
    call-local real buffer.  A stepping loop passes one set to all its
    steps.
    """
    form = _form(state)
    g = state.grid
    if form is _PERTURBATION:
        if sink is not None:
            raise TypeError("an audit sink needs a State")
        _require_perturbation_params(params)
        # a one-off step keeps one stack for its evaluations, each of which
        # makes its real buffer
        slots = _perturbation_slots(g, 4 * g.dim + 6, False) if slots is None else slots
    elif slots is None:
        slots = new_slots(g)
    state = carried(state, cfg, slots)
    if sink is not None:
        sink.state = state
    values = tuple(getattr(state, name).values for name in form.fields[:3])
    rhs = _step_rhs(g, params, cfg, slots, form, sink)
    if cfg.scheme == "RK4":
        stage = None if form is _PRIMITIVE else slots.stack[-3:]
        out = _rk4(state.spec, rhs, cfg.dt, values, stage)
    else:
        out = _imex1(g, state.spec, rhs, cfg.dt, _linear_block(params, form is _PRIMITIVE), values)
    return _close(g, out, _four(g, slots, form), cfg, form)


def _imex1(grid, spec_y, rhs, dt, m, values):
    """Backward Euler on the linear block -|k|^2 m (_linear_block), the
    rest of the rates f = rhs(spec_y, values) explicit, for the state
    spectrum spec_y (left as it was) and its fields values: with a = dt
    |k|^2 each mode solves (I + a m) y_new = y + dt (f + |k|^2 m y).  As
    m[0,1] = m[1,0] = 0, rows 0 and 1 are eliminated into row 2, which is
    solved for y_new[2] and back-substituted.  Returns the spectrum of
    y_new in the rates' output: mode by mode, it vanishes wherever spec_y
    and f both do, so a band-limited step stays in the band unmasked."""
    k2 = grid.k2
    spec_f = rhs(spec_y, values)
    lin = [k2 * (row[0] * spec_y[0] + row[1] * spec_y[1] + row[2] * spec_y[2]) for row in m]
    # everything from here on runs in place in the core's output, in the
    # order of b = y + dt (f + l), then new_2 = (b_2 - c_0 b_0 - c_1 b_1) d,
    # new_0 = (b_0 - a m[0,2] new_2) r0 and new_1 likewise, with one
    # spectral scratch t for the products: so the update peaks below the
    # core even with a run's slots alive through it
    b = spec_f
    for y, f, l in zip(spec_y, b, lin):
        f += l
        f *= dt
        f += y
    del spec_y, lin
    a = dt * k2
    # the pivots' reciprocals: a complex row times a real array costs about
    # a quarter of the complex row divided by it
    r0, r1 = 1.0 / (1.0 + a * m[0, 0]), 1.0 / (1.0 + a * m[1, 1])
    t = np.empty_like(b[0])
    b[2] -= np.multiply(a * m[2, 0] * r0, b[0], out=t)
    b[2] -= np.multiply(a * m[2, 1] * r1, b[1], out=t)
    b[2] *= 1.0 / (1.0 + a * m[2, 2] - a * a * (m[2, 0] * m[0, 2] * r0 + m[2, 1] * m[1, 2] * r1))
    b[0] -= np.multiply(a * m[0, 2], b[2], out=t)
    b[0] *= r0
    b[1] -= np.multiply(a * m[1, 2], b[2], out=t)
    b[1] *= r1
    del t
    return b


def integrate(state, cfg: StepperConfig, params: PhysParams):
    """
    Generator driving `step`: yields (index, t, state) with index 0 being
    carried(state), the initial state with its spectrum (with dealias on,
    the projection of one that carries none).  A StepAbort propagates to
    the caller after the already-yielded prefix (partial trajectories keep
    their audit trail).  The steps share one set of buffers (see step): a
    State's new_slots or a PerturbationState's new_perturbation_slots.
    """
    slots = (new_slots if isinstance(state, State) else new_perturbation_slots)(state.grid)
    state = carried(state, cfg, slots)
    yield 0, 0.0, state
    for i in range(1, cfg.n_steps + 1):
        state = step(state, cfg, params, slots=slots)
        yield i, i * cfg.dt, state
