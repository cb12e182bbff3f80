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
  time (one 4-field inverse transform each); the RHS adds that axis's
  terms to three running sums in axis order (the Joule terms fold into
  -j_p.(grad theta + grad phi) and -j_n.(grad theta - grad phi); see
  _fluxes_and_heat_rate), writes j_p, j_n and then dtheta into the one
  buffer its outer forward transform reads, and builds the three
  Laplacians only after the axis loop;
* the electric potential is never integrated: each right-hand-side
  evaluation re-solves Delta(phi) = n - p (equivalently Delta(phi) = v),
  so phi stays slaved to the charge density at every substage.

Each right-hand side is a spectral core with a thin wrapper around it.
The core (_rhs_primitive_core, _rhs_perturbation_core) takes the forward
transform of its input plus the input fields and returns the (dealiased)
spectrum of the time derivatives, leaving the input spectrum as it was.
The array wrapper (_rhs_primitive_arrays, _rhs_perturbation_arrays) adds
the forward transform in front and the inverse transform behind; RK4
calls the wrappers, which keep the bits the RHS had before the split.
The IMEX1 steppers call the cores on the spectrum of the current state
that their implicit solve needs anyway, so the RHS output is never
transformed back and forth and the state is transformed once per step.
tests/test_dynamics.py pins the transform counts of the array RHS and of
both steps (TestSpectralCore::test_imex1_step_cost, ::test_transform_count).

step can feed an audit sample (a fields.AuditSink of its input State)
from its first RHS evaluation, k1 of RK4 or the IMEX1 core: the Darcy
pass is the sample's, the |q|^2, |j_p|^2 and |j_n|^2 sums and the
production density ride on its axis loop, and the reconstruction
residual runs after that loop on the flux rows of the buffer the outer
forward transform reads.  The sample adds 3 + 3*dim transforms to the
step where a standalone fields.flux_audit costs 6 + 7*dim (pinned at
dim 3 by TestSpectralCore::test_transform_count).  Its coefficient
arrays are built only after the axis loop, and its three sums live only
in that loop, below the RHS's peak, so the step's peak memory grows by
the one grid of the production density.

RK4 keeps one accumulator, k1 + 2 k2 + 2 k3 + k4 summed in that order,
instead of the four stage derivatives, so besides it only the current
stage and its derivative are alive; the result has the bits of
y + dt/6 (k1 + 2 k2 + 2 k3 + k4).

Sign convention, fixed once: with v = n - p the potential satisfies
Delta(phi) = v, which is the choice that makes
<laplacian(v) - 2v, phi> = ||v||^2 + 2||grad phi||^2 (unit-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poisson
from .fields import POSITIVITY_FLOOR, PhysParams, State, darcy_axes
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
    """

    u_tilde: ScalarField
    v: ScalarField
    theta_tilde: ScalarField
    phi: ScalarField

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


def _fluxes_and_heat_rate(grid: GridSpec, spec, n, p, th, params: PhysParams, out, sink=None):
    """Fill out with (j_p, j_n, dtheta): the Darcy fluxes and the pointwise
    temperature rate.  spec is the forward transform of (n, p, th) and is
    left as it was.  Its temporaries die on return, before the outer
    transform.  An audit sink takes each axis's d_i theta, j_p,i and j_n,i.

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
    d = grid.dim
    Dp, Dn, kh = params.D_p, params.D_n, params.k
    wp, wn = params.c_p + 1.0, params.c_n + 1.0

    # the three sums over the axes, added in axis order; every derivative
    # acts on a primitive field, so div(j) expands with the Laplacians
    # built after the loop
    a_p, a_n, b = np.zeros((3,) + grid.shape)
    for gn, gp, gth, gphi, jp, jn in darcy_axes(grid, spec, n, p, th, params, out):
        a_p += gp * (2.0 * gth + gphi)
        a_n += gn * (2.0 * gth - gphi)
        b += jp * (wp * gth + gphi) + jn * (wn * gth - gphi)
        if sink is not None:
            sink.axis(gth, jp, jn)
        del gn, gp, gth, gphi  # frees this axis's transform
    if sink is not None:
        sink.production()

    lap_n, lap_p, lap_th = grid.ifft(-grid.k2 * spec)
    rho = n - p  # equals Delta(phi) exactly for the slaved potential
    heat = Dp * (p * lap_th + th * lap_p + p * rho + a_p)
    heat += Dn * (n * lap_th + th * lap_n - n * rho + a_n)
    heat *= th
    heat += kh * lap_th
    heat -= b
    np.divide(heat, params.c_p * p + params.c_n * n, out=out[2 * d])


def _rhs_primitive_core(
    grid: GridSpec, spec, n, p, th, params: PhysParams, dealias=True, sink=None
):
    """Spectrum of (dn, dp, dtheta), shape (3,) + spectral_shape, from the
    forward transform spec of (n, p, th) and the fields themselves; spec
    is left as it was.  A fields.AuditSink of the state (n, p, th) is fed
    by the flux pass and takes its residual over the flux rows of out."""
    d = grid.dim
    out = np.empty((2 * d + 1,) + grid.shape)
    _fluxes_and_heat_rate(grid, spec, n, p, th, params, out, sink)
    if sink is not None:
        sink.residual(out)

    # continuity equations in divergence form (spectral outer divergence)
    spec_j = grid.fft(out)
    del out
    dp_hat = -sum(grid.grad_mult[i] * spec_j[i] for i in range(d))
    dn_hat = -sum(grid.grad_mult[i] * spec_j[d + i] for i in range(d))
    dth_hat = spec_j[2 * d]
    if dealias:
        mask = grid.dealias_mask
        dn_hat, dp_hat, dth_hat = mask * dn_hat, mask * dp_hat, mask * dth_hat
    return np.stack([dn_hat, dp_hat, dth_hat])


def _rhs_primitive_arrays(grid: GridSpec, n, p, th, params: PhysParams, dealias=True, sink=None):
    """(dn, dp, dtheta) raw arrays; see the module docstring for the scheme."""
    spec = grid.fft(np.stack([n, p, th]))
    res = grid.ifft(_rhs_primitive_core(grid, spec, n, p, th, params, dealias, sink))
    return res[0], res[1], res[2]


def _perturbation_rates(grid: GridSpec, spec3, ut, v, tt, params: PhysParams):
    """(du_tilde, dv, dtheta_tilde) pointwise, before dealiasing, from the
    forward transform spec3 of (ut, v, tt) and the fields themselves.

    The gradients of (ut, v, tt, phi) and the Laplacians of (ut, v, tt)
    come from one inverse transform of a (4*dim+3)-field spectral array,
    filled in place and freed once the transform returns."""
    c = params.c
    d = grid.dim
    uth, vh, tth = spec3[0], spec3[1], spec3[2]
    phih = -grid.inv_k2 * vh

    stack = np.empty((4 * d + 3,) + grid.spectral_shape, dtype=complex)
    for j, fh in enumerate((uth, vh, tth, phih)):
        for i, m in enumerate(grid.grad_mult):
            np.multiply(m, fh, out=stack[j * d + i])
    del phih
    for j, fh in enumerate((uth, vh, tth)):
        np.multiply(-grid.k2, fh, out=stack[4 * d + j])
    out = grid.ifft(stack)
    del stack
    gu, gv, gt, gphi = out[0:d], out[d : 2 * d], out[2 * d : 3 * d], out[3 * d : 4 * d]
    lap_u, lap_v, lap_t = out[4 * d], out[4 * d + 1], out[4 * d + 2]

    gt_gu = sum(gt[i] * gu[i] for i in range(d))
    gt_gv = sum(gt[i] * gv[i] for i in range(d))
    gv_gphi = sum(gv[i] * gphi[i] for i in range(d))
    gu_gphi = sum(gu[i] * gphi[i] for i in range(d))
    gt_gphi = sum(gt[i] * gphi[i] for i in range(d))
    gt2 = sum(gt[i] ** 2 for i in range(d))
    gphi2 = sum(gphi[i] ** 2 for i in range(d))

    du = lap_u + 2.0 * lap_t + tt * lap_u + ut * lap_t + 2.0 * gt_gu - gv_gphi - v * v
    dv = lap_v - 2.0 * v + tt * lap_v + v * lap_t + 2.0 * gt_gv - gu_gphi - ut * v

    w = 2.0 + ut
    dtt = 1.5 * lap_t + 0.5 * lap_u + tt * lap_t
    dtt -= (ut / (2.0 * w)) * lap_t
    dtt += ((2.0 * tt * tt + 4.0 * tt - ut) / (2.0 * w)) * lap_u
    dtt += (c + 1.0) * gt2
    dtt += (c + 3.0) * ((1.0 + tt) / w) * gt_gu
    dtt -= 2.0 * ((1.0 + tt) / w) * gv_gphi
    dtt -= (c + 2.0) * (v / w) * gt_gphi
    dtt -= (1.0 + tt) * v * v / w
    dtt += gphi2
    dtt /= c
    return du, dv, dtt


def _rhs_perturbation_core(grid: GridSpec, spec3, ut, v, tt, params: PhysParams, dealias=True):
    """Spectrum of (du_tilde, dv, dtheta_tilde), shape (3,) +
    spectral_shape, from the forward transform spec3 of (ut, v, tt) and the
    fields themselves; spec3 is left as it was."""
    spec = grid.fft(np.stack(_perturbation_rates(grid, spec3, ut, v, tt, params)))
    return grid.dealias_mask * spec if dealias else spec


def _rhs_perturbation_arrays(grid: GridSpec, ut, v, tt, params: PhysParams, dealias=True):
    """(du_tilde, dv, dtheta_tilde) raw arrays, literal perturbation system.
    Without dealiasing the pointwise rates are returned as they are."""
    spec3 = grid.fft(np.stack([ut, v, tt]))
    if not dealias:
        return _perturbation_rates(grid, spec3, ut, v, tt, params)
    res = grid.ifft(_rhs_perturbation_core(grid, spec3, ut, v, tt, params))
    return res[0], res[1], res[2]


def _require_perturbation_params(params: PhysParams) -> None:
    if params.c_p != params.c_n or not (params.c_p > 1):
        raise ValueError("perturbation form needs c_p == c_n == c > 1")
    if params.D_p != 1.0 or params.D_n != 1.0 or params.k != 1.0:
        raise ValueError("perturbation form is stated for D_p = D_n = k = 1")


def rhs_primitive(s: State, params: PhysParams, dealias: bool = True):
    """Time derivatives (dn, dp, dtheta) of the primitive system."""
    dn, dp, dth = _rhs_primitive_arrays(
        s.grid, s.n.values, s.p.values, s.theta.values, params, dealias
    )
    g = s.grid
    return ScalarField(g, dn), ScalarField(g, dp), ScalarField(g, dth)


def rhs_perturbation(ps: PerturbationState, params: PhysParams, dealias: bool = True):
    """Time derivatives (du_tilde, dv, dtheta_tilde) of the reformulated
    system (requires c_p == c_n > 1 and unit mobilities/conduction)."""
    _require_perturbation_params(params)
    du, dv, dtt = _rhs_perturbation_arrays(
        ps.grid, ps.u_tilde.values, ps.v.values, ps.theta_tilde.values, params, dealias
    )
    g = ps.grid
    return ScalarField(g, du), ScalarField(g, dv), ScalarField(g, dtt)


# -- stability estimate -------------------------------------------------------


def _linear_rate_factor(params: PhysParams, primitive: bool) -> float:
    """Spectral radius of the constant-coefficient diffusion block at
    |k|^2 = 1 (the implicit block of the IMEX scheme)."""
    if primitive:
        cs = params.c_p + params.c_n
        m = np.array(
            [
                [params.D_n, 0.0, params.D_n],
                [0.0, params.D_p, params.D_p],
                [params.D_n / cs, params.D_p / cs, (params.k + params.D_p + params.D_n) / cs],
            ]
        )
    else:
        c = params.c_p
        m = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0 / (2 * c), 0.0, 3.0 / (2 * c)]])
    return float(np.abs(np.linalg.eigvals(m)).max())


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
    spectral radius, and dt_max = 2.785/rate.  IMEX1 treats that block
    implicitly, so only the variable-coefficient remainder (size ~
    `deviation`) limits the step, plus the order-one screening term.
    """
    m_cut = grid.n // 3
    k2max = grid.dim * (2.0 * math.pi * m_cut / grid.length) ** 2
    rho = _linear_rate_factor(params, primitive)
    if scheme == "RK4":
        return _RK4_REAL_AXIS / (theta_max * k2max * rho)
    if scheme == "IMEX1":
        return 1.0 / (max(deviation, 1e-6) * k2max * rho + 2.0)
    raise ValueError(f"unknown scheme {scheme!r}")


# -- steppers -----------------------------------------------------------------


def _check_stage(names, arrays, floor, shifts):
    """StepAbort unless every array is finite and min(array) + shift is at
    least the floor; a shift of math.inf checks finiteness only."""
    for name, arr, shift in zip(names, arrays, shifts):
        low = float(arr.min()) + shift
        if not np.all(np.isfinite(arr)):
            raise StepAbort(f"non-finite values in {name}")
        if low < floor:
            raise StepAbort(
                f"positivity floor breached: min({name}) = {low:.3e} < {floor!r}"
            )


def _rk4(ys, rhs, dt, check, fed=()):
    # acc sums k1 + 2 k2 + 2 k3 + k4 in that order (see the module docstring);
    # fed goes to the k1 evaluation only
    acc = rhs(ys, *fed)
    k = acc
    for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        stage = [y + c * dt * ki for y, ki in zip(ys, k)]
        del k
        check(stage)
        k = rhs(stage)
        del stage
        for a, ki in zip(acc, k):
            a += w * ki
    del k
    out = [y + (dt / 6.0) * a for y, a in zip(ys, acc)]
    check(out)
    return out


def step(state, cfg: StepperConfig, params: PhysParams, sink=None):
    """
    Advance one time step; returns the same type it receives (State or
    PerturbationState).  Any substage that breaches the positivity floor
    or produces non-finite values raises StepAbort; nothing is clamped.

    sink, a fields.AuditSink of a State, is fed by the step's first RHS
    evaluation (k1 of RK4, the core of IMEX1): after it, sink.audit is
    the FluxAudit of state.  A step that aborts before that evaluation
    leaves sink.audit None.
    """
    if isinstance(state, State):
        return _step_primitive(state, cfg, params, sink)
    if isinstance(state, PerturbationState):
        if sink is not None:
            raise TypeError("an audit sink needs a State")
        return _step_perturbation(state, cfg, params)
    raise TypeError(f"cannot step object of type {type(state).__name__}")


def _advance(g, ys, cfg, params, names, shifts, rhs_arrays, imex1, sink=None):
    """One RK4 or IMEX1 step of the arrays ys; every stage is checked
    against the floor after adding its shift (see _check_stage).  A sink
    goes to the first RHS evaluation only."""
    check = lambda ys: _check_stage(names, ys, cfg.positivity_floor, shifts)
    check(ys)
    fed = () if sink is None else (sink,)  # the perturbation kernels take no sink
    if cfg.scheme == "RK4":
        rhs = lambda ys, *fed: rhs_arrays(g, ys[0], ys[1], ys[2], params, cfg.dealias, *fed)
        return _rk4(ys, rhs, cfg.dt, check, fed)
    out = imex1(g, ys, cfg, params, *fed)
    check(out)
    return out


def _step_primitive(s: State, cfg: StepperConfig, params: PhysParams, sink=None) -> State:
    g = s.grid
    out = _advance(
        g, [s.n.values, s.p.values, s.theta.values], cfg, params,
        ("n", "p", "theta"), (0.0, 0.0, 0.0), _rhs_primitive_arrays, _imex1_primitive, sink,
    )
    n, p, th = (ScalarField(g, a) for a in out)
    return State.from_primitives(n, p, th)


def _step_perturbation(
    ps: PerturbationState, cfg: StepperConfig, params: PhysParams
) -> PerturbationState:
    _require_perturbation_params(params)
    g = ps.grid
    out = _advance(
        g, [ps.u_tilde.values, ps.v.values, ps.theta_tilde.values], cfg, params,
        ("2 + u_tilde", "v", "1 + theta_tilde"),
        (2.0, math.inf, 1.0),  # v is unconstrained
        _rhs_perturbation_arrays, _imex1_perturbation,
    )
    ut, v, tt = (ScalarField(g, a) for a in out)
    return PerturbationState.from_fields(ut, v, tt)


def _imex1_perturbation(grid, ys, cfg, params):
    """Backward Euler on the constant-coefficient Laplacian block
    (coupling u_tilde and theta_tilde, v decoupled), explicit remainder."""
    c = params.c_p
    dt, k2 = cfg.dt, grid.k2
    spec_y = grid.fft(np.stack(ys))
    spec_f = _rhs_perturbation_core(grid, spec_y, ys[0], ys[1], ys[2], params, cfg.dealias)
    uh, vh, th = spec_y[0], spec_y[1], spec_y[2]
    # linear block applied to the current state
    lin_u = -k2 * (uh + 2.0 * th)
    lin_v = -k2 * vh
    lin_t = -(k2 / (2.0 * c)) * (uh + 3.0 * th)
    bu = uh + dt * (spec_f[0] - lin_u)
    bv = vh + dt * (spec_f[1] - lin_v)
    bt = th + dt * (spec_f[2] - lin_t)

    a = dt * k2
    new_v = bv / (1.0 + a)
    a11 = 1.0 + a
    a12 = 2.0 * a
    a21 = a / (2.0 * c)
    a22 = 1.0 + 3.0 * a / (2.0 * c)
    det = a11 * a22 - a12 * a21
    new_u = (a22 * bu - a12 * bt) / det
    new_t = (a11 * bt - a21 * bu) / det
    if cfg.dealias:
        mask = grid.dealias_mask
        new_u, new_v, new_t = mask * new_u, mask * new_v, mask * new_t
    out = grid.ifft(np.stack([new_u, new_v, new_t]))
    return [out[0], out[1], out[2]]


def _imex1_primitive(grid, ys, cfg, params, sink=None):
    """Backward Euler on the equilibrium-linearized diffusion block of the
    primitive system, explicit remainder."""
    dt, k2 = cfg.dt, grid.k2
    cs = params.c_p + params.c_n
    kh = (params.k + params.D_p + params.D_n) / cs
    spec_y = grid.fft(np.stack(ys))
    spec_f = _rhs_primitive_core(grid, spec_y, ys[0], ys[1], ys[2], params, cfg.dealias, sink)
    nh, ph, th = spec_y[0], spec_y[1], spec_y[2]
    lin_n = -k2 * params.D_n * (nh + th)
    lin_p = -k2 * params.D_p * (ph + th)
    lin_t = -k2 * (params.D_n * nh + params.D_p * ph) / cs - k2 * kh * th
    bn = nh + dt * (spec_f[0] - lin_n)
    bp = ph + dt * (spec_f[1] - lin_p)
    bt = th + dt * (spec_f[2] - lin_t)

    an = dt * k2 * params.D_n
    ap = dt * k2 * params.D_p
    g = dt * k2 / cs
    # eliminate n and p rows, solve for theta, back substitute
    denom = 1.0 + dt * k2 * kh - g * params.D_n * an / (1.0 + an) - g * params.D_p * ap / (1.0 + ap)
    rhs_t = bt - g * params.D_n * bn / (1.0 + an) - g * params.D_p * bp / (1.0 + ap)
    new_t = rhs_t / denom
    new_n = (bn - an * new_t) / (1.0 + an)
    new_p = (bp - ap * new_t) / (1.0 + ap)
    if cfg.dealias:
        mask = grid.dealias_mask
        # the k = 0 mode is untouched by the mask's True entry there
        new_n, new_p, new_t = mask * new_n, mask * new_p, mask * new_t
    out = grid.ifft(np.stack([new_n, new_p, new_t]))
    return [out[0], out[1], out[2]]


def integrate(state, cfg: StepperConfig, params: PhysParams, n_steps: int | None = None):
    """
    Generator driving `step`: yields (index, t, state) with index 0 being
    the initial state.  A StepAbort propagates to the caller after the
    already-yielded prefix (partial trajectories keep their audit trail).
    """
    total = cfg.n_steps if n_steps is None else n_steps
    t = 0.0
    yield 0, t, state
    for i in range(1, total + 1):
        state = step(state, cfg, params)
        t = i * cfg.dt
        yield i, t, state
