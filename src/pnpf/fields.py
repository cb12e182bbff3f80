"""
State containers and pointwise constitutive quantities.

Charge transport follows Darcy-law ion fluxes and heat follows Fourier's
law; the energy flux collects internal-energy transport, pressure work,
electrostatic transport and the nonlocal electrostatic exchange term.
This module also exposes the linear-response (Onsager) coefficient block
relating fluxes to gradients of mu/theta and 1/theta, with the reciprocal
symmetries built in, plus the reconstruction residual the audits use.

Gradients and fluxes are built in one place, the raw-array helpers
darcy_axes, exchange_arrays and energy_weights.  The ion fluxes are
assembled in expanded form

    j_p = -D_p (theta*grad p + p*grad theta + p*grad phi)

with every spectral derivative acting on a primitive field (phi slaved to
n - p) and all products pointwise.  The time stepper, the audits and the
variational checks share these helpers, so the stepper's fluxes are the
audited fluxes bit for bit; that is what makes the discrete energy audit
an identity rather than an approximation.

darcy_axes streams the gradients one axis at a time: per axis one 4-field
inverse transform gives d_i n, d_i p, d_i theta and d_i phi, and the
consumer uses them before the next axis is built, so only one axis's
gradients are alive at once, and none of the kernel's spectral arrays
while the consumer runs.  The Laplacians are not part of the kernel:
only the primitive RHS needs them, and it builds them after its axis
loop from the same forward transform.

AuditSink is the body of one audit sample, in three parts that any pass
over darcy_axes can feed: the |q|^2, |j_p|^2 and |j_n|^2 sums per axis,
the production density from them, and the reconstruction residual
over the pass's j_p and j_n rows after the axis loop.  A step fed a sink
makes its first RHS evaluation that pass, and the sample adds 3 + 3*dim
transforms to the step; flux_audit makes the pass itself, 6 + 7*dim
transforms (tests/test_dynamics.py TestSpectralCore::test_transform_count
pins both at dim 3).  Either way the sample takes from the
axes only what it reads and builds nothing else.  The definitions stay
as they are: constitutive_fluxes (used by varcheck),
entropy_production_density, reconstruct_fluxes and
flux_reconstruction_residual.  The residual, reconstruct_fluxes and
AuditSink rebuild an ion flux with one row formula, _ion_row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import poisson
from .grid import GridSpec, ScalarField, VectorField

POSITIVITY_FLOOR = 1e-8


class PositivityError(ValueError):
    """A density or temperature dropped below the positivity floor."""


@dataclass(frozen=True)
class PhysParams:
    """
    Physical coefficients: heat capacities c_p, c_n (> 0), ion mobilities
    D_p, D_n (> 0) and heat conduction rate k (> 0).
    """

    c_p: float = 1.5
    c_n: float = 1.5
    D_p: float = 1.0
    D_n: float = 1.0
    k: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c_p", "c_n", "D_p", "D_n", "k"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"PhysParams.{name} must be > 0")

    @property
    def c(self) -> float:
        """Common heat capacity; requires c_p == c_n (decay experiments
        additionally need c > 1)."""
        if self.c_p != self.c_n:
            raise ValueError("c is only defined when c_p == c_n")
        return self.c_p


def _check_positive(name: str, values: np.ndarray, floor: float = POSITIVITY_FLOOR):
    m = float(values.min())
    if m < floor:
        raise PositivityError(f"min({name}) = {m:.3e} below floor {floor:.0e}")


@dataclass(frozen=True)
class State:
    """
    Primitive fields (n, p, theta, phi) on one grid.

    Invariants: n, p, theta above the positivity floor; mean(n - p) = 0
    (neutrality); phi is the zero-mean solution of Delta(phi) = n - p.
    """

    n: ScalarField
    p: ScalarField
    theta: ScalarField
    phi: ScalarField

    def __post_init__(self) -> None:
        g = self.grid
        for f in (self.p, self.theta, self.phi):
            if f.grid is not g and f.grid != g:
                raise ValueError("all State fields must share one grid")
        _check_positive("n", self.n.values)
        _check_positive("p", self.p.values)
        _check_positive("theta", self.theta.values)

    @property
    def grid(self) -> GridSpec:
        return self.n.grid

    @classmethod
    def from_primitives(cls, n: ScalarField, p: ScalarField, theta: ScalarField) -> "State":
        """Build a State, solving the Poisson equation for phi.

        Raises NonNeutralSource if mean(n - p) exceeds tolerance and
        PositivityError below the floor; never repairs the input.
        """
        _check_positive("n", n.values)
        _check_positive("p", p.values)
        _check_positive("theta", theta.values)
        rho = ScalarField(n.grid, n.values - p.values)
        return cls(n, p, theta, poisson.solve(rho))

    @classmethod
    def equilibrium(cls, grid: GridSpec) -> "State":
        one = ScalarField.constant(grid, 1.0)
        return cls(one, one, ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 0.0))


def darcy_axes(grid: GridSpec, spec, n, p, th, params: PhysParams, j):
    """
    Gradients and Darcy ion fluxes of raw (n, p, theta) arrays, one axis
    at a time, with phi slaved to n - p (phi_hat = -(n_hat - p_hat)/|k|^2).

    spec is the batched forward transform of (n, p, theta) and j a
    (2*dim)-field buffer.  For each axis i in turn the generator makes one
    4-field inverse transform and yields (d_i n, d_i p, d_i theta,
    d_i phi, j_p,i, j_n,i), with the fluxes written into j[i] and
    j[dim + i].  Each axis fills a fresh spectral array and drops it once
    its inverse transform returns, and phi_hat is rebuilt in that array's
    last row, so while the consumer runs only that axis's gradients are
    alive.  The gradients are views into the inverse transform and the
    generator keeps no reference to them, so a consumer that drops them
    frees that transform at once.
    """
    neg_inv_k2 = -grid.inv_k2
    for i, m in enumerate(grid.grad_mult):
        yield _darcy_axis(grid, _axis_spectrum(spec, m, neg_inv_k2), n, p, th, params, j, i)


def _axis_spectrum(spec, m, neg_inv_k2):
    """The spectra of (d_i n, d_i p, d_i theta, d_i phi) for the gradient
    multiplier m of axis i, filled into one fresh array."""
    four = np.empty((4,) + spec.shape[1:], dtype=complex)
    for k in range(3):
        np.multiply(m, spec[k], out=four[k])
    phih = four[3]
    np.subtract(spec[0], spec[1], out=phih)
    np.multiply(neg_inv_k2, phih, out=phih)
    np.multiply(m, phih, out=phih)
    return four


def _darcy_axis(grid: GridSpec, four, n, p, th, params: PhysParams, j, i):
    gn, gp, gth, gphi = grid.ifft(four)
    del four  # the only reference: frees the spectra before the fluxes
    jp = np.multiply(-params.D_p, th * gp + p * gth + p * gphi, out=j[i])
    jn = np.multiply(-params.D_n, th * gn + n * gth - n * gphi, out=j[grid.dim + i])
    return gn, gp, gth, gphi, jp, jn


def exchange_arrays(grid: GridSpec, phi, gphi, j_p, j_n):
    """(phi_t, exchange flux): the potential rate solving
    Delta(phi_t) = div(j_p - j_n) and the electrostatic exchange flux
    (phi_t grad(phi) - phi grad(phi_t))/2 of the energy balance.

    phi_t and grad(phi_t) come from the one spectrum
    -div(j_p - j_n)^/|k|^2: one batched forward transform of the dim
    components of j_p - j_n and one batched inverse transform of
    (phi_t, grad phi_t), filled into a single preallocated spectral array.
    The exchange flux overwrites grad(phi_t) in the inverse transform's
    output, so phi_t and the flux are views into that one array.
    """
    d = grid.dim
    jh = grid.fft(np.stack([j_p[i] - j_n[i] for i in range(d)]))
    spec = np.empty((d + 1,) + grid.spectral_shape, dtype=complex)
    np.multiply(grid.grad_mult[0], jh[0], out=spec[0])
    for i in range(1, d):
        spec[0] += grid.grad_mult[i] * jh[i]
    del jh  # keep it out of the inverse transform's peak
    spec[0] *= -grid.inv_k2
    for i, m in enumerate(grid.grad_mult):
        np.multiply(m, spec[0], out=spec[1 + i])
    out = grid.ifft(spec)
    phi_t, exchange = out[0], list(out[1:])
    for i, ex in enumerate(exchange):
        np.multiply(phi, ex, out=ex)
        np.subtract(phi_t * gphi[i], ex, out=ex)
        ex *= 0.5
    return phi_t, exchange


def energy_weights(th, phi, params: PhysParams):
    """Energy carried per unit ion flux: ((c_p+1) theta + phi, (c_n+1) theta - phi)."""
    return (params.c_p + 1.0) * th + phi, (params.c_n + 1.0) * th - phi


@dataclass(frozen=True)
class FluxSet:
    """Constitutive fluxes of one State.

    q = -k*grad(theta) by construction; j_e additionally carries the
    electrostatic exchange flux, built from phi_t, the potential rate
    obtained by solving Delta(phi_t) = div(j_p - j_n).
    """

    j_p: VectorField
    j_n: VectorField
    q: VectorField
    j_e: VectorField
    exchange: VectorField
    phi_t: ScalarField


def constitutive_fluxes(s: State, params: PhysParams) -> FluxSet:
    """
    Darcy ion fluxes, Fourier heat flux, and the total energy flux.

        j_p = -D_p [grad(p theta) + p grad(phi)]
        j_n = -D_n [grad(n theta) - n grad(phi)]
        q   = -k grad(theta)
        j_e = [(c_p+1) theta + phi] j_p + [(c_n+1) theta - phi] j_n
              + (phi_t grad(phi) - phi grad(phi_t))/2 + q
    """
    g, d = s.grid, s.grid.dim
    n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    j, q, gphi = np.empty((2 * d,) + g.shape), [], []
    spec = g.fft(np.stack([n, p, th]))
    for axis in darcy_axes(g, spec, n, p, th, params, j):
        q.append(-params.k * axis[2])
        gphi.append(axis[3].copy())
        del axis  # lets the kernel free this axis's transform
    del spec
    j_p, j_n = list(j[:d]), list(j[d:])
    phi_t, exchange = exchange_arrays(g, phi, gphi, j_p, j_n)
    a, b = energy_weights(th, phi, params)
    j_e = [a * j_p[i] + b * j_n[i] + exchange[i] + q[i] for i in range(d)]
    vec = lambda comps: VectorField(g, tuple(comps))
    return FluxSet(
        j_p=vec(j_p), j_n=vec(j_n), q=vec(q), j_e=vec(j_e), exchange=vec(exchange),
        phi_t=ScalarField(g, phi_t),
    )


def energy_density(s: State, params: PhysParams) -> ScalarField:
    """e = (c_p p + c_n n) theta + ((p - n)/2) phi."""
    e = (params.c_p * s.p.values + params.c_n * s.n.values) * s.theta.values
    e = e + 0.5 * (s.p.values - s.n.values) * s.phi.values
    return ScalarField(s.grid, e)


def entropy_density(s: State, params: PhysParams) -> ScalarField:
    """eta = -p (log p - c_p log theta) - n (log n - c_n log theta)."""
    logth = np.log(s.theta.values)
    eta = -s.p.values * (np.log(s.p.values) - params.c_p * logth)
    eta -= s.n.values * (np.log(s.n.values) - params.c_n * logth)
    return ScalarField(s.grid, eta)


def entropy_production_density(fl: FluxSet, s: State, params: PhysParams) -> ScalarField:
    """
    Pointwise entropy production rate, a weighted sum of squares:

        |j_p|^2/(D_p p theta) + |j_n|^2/(D_n n theta) + |q/theta|^2/k.

    Nonnegative by construction for every admissible state and flux set.
    """
    sq = lambda v: sum(c**2 for c in v.components)
    return _production_density(s, params, sq(fl.j_p), sq(fl.j_n), sq(fl.q))


def _production_density(s: State, params: PhysParams, jp2, jn2, q2) -> ScalarField:
    """The production density from the squared magnitudes |j_p|^2, |j_n|^2, |q|^2."""
    th = s.theta.values
    out = jp2 / (params.D_p * s.p.values * th)
    out += jn2 / (params.D_n * s.n.values * th)
    out += q2 / (params.k * th**2)
    return ScalarField(s.grid, out)


@dataclass(frozen=True)
class OnsagerBlock:
    """
    Pointwise linear-response coefficients and chemical potentials.

    The reciprocal relations hold by construction: each reciprocal pair is
    one array that serves both rows of the flux form (L_ptheta is also
    L_thetap, L_ntheta is also L_thetan), and the cross block
    L_pn = L_np is zero, so it is not stored.
    """

    L_pp: ScalarField
    L_nn: ScalarField
    L_ptheta: ScalarField
    L_ntheta: ScalarField
    L_thetatheta: ScalarField
    mu_p: ScalarField
    mu_n: ScalarField


def _ion_coefficients(s: State, params: PhysParams):
    """(L_pp, L_nn, L_ptheta, L_ntheta, mu_p, mu_n) of onsager_block as raw
    arrays: everything but L_thetatheta."""
    n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    L_pp = params.D_p * p * th
    L_nn = params.D_n * n * th
    a, b = energy_weights(th, phi, params)
    logth = np.log(th)
    return (
        L_pp, L_nn, L_pp * a, L_nn * b,
        th * (np.log(p) - params.c_p * logth) + phi,
        th * (np.log(n) - params.c_n * logth) - phi,
    )


def onsager_block(s: State, params: PhysParams) -> OnsagerBlock:
    """
    Coefficients of the flux form

        j_p = -L_pp grad(mu_p/theta) + L_ptheta grad(1/theta)
        j_n = -L_nn grad(mu_n/theta) + L_ntheta grad(1/theta)
        j_e = -L_ptheta grad(mu_p/theta) - L_ntheta grad(mu_n/theta)
              + L_thetatheta grad(1/theta) + exchange flux

    with the paper-level coefficients

        L_pp = D_p p theta,   L_ptheta = D_p p theta [(c_p+1) theta + phi],
        L_nn = D_n n theta,   L_ntheta = D_n n theta [(c_n+1) theta - phi],

    and L_thetatheta derived so the energy-flux reconstruction is exact
    given the others:

        L_thetatheta = D_p p theta [(c_p+1) theta + phi]^2
                     + D_n n theta [(c_n+1) theta - phi]^2 + k theta^2.

    Chemical potentials: mu_p = theta (log p - c_p log theta) + phi and
    mu_n = theta (log n - c_n log theta) - phi.
    """
    g, th = s.grid, s.theta.values
    L_pp, L_nn, L_pth, L_nth, mu_p, mu_n = _ion_coefficients(s, params)
    a, b = energy_weights(th, s.phi.values, params)
    f = lambda v: ScalarField(g, v)
    return OnsagerBlock(
        L_pp=f(L_pp), L_nn=f(L_nn), L_ptheta=f(L_pth), L_ntheta=f(L_nth),
        L_thetatheta=f(L_pp * a**2 + L_nn * b**2 + params.k * th**2),
        mu_p=f(mu_p), mu_n=f(mu_n),
    )


def _quotient_spectrum(grid: GridSpec, th, mu_p, mu_n):
    """Batched forward transform of (mu_p/theta, mu_n/theta, 1/theta): the
    potentials whose gradients the flux form takes.  Axis i's gradients
    are one 3-field inverse transform of grad_mult[i] times it."""
    return grid.fft(np.stack([mu_p / th, mu_n / th, 1.0 / th]))


def _ion_row(L, L_theta, g_mu, g_inv):
    """Component i of an ion flux rebuilt from the coefficient block:
    -L d_i(mu/theta) + L_theta d_i(1/theta)."""
    return -L * g_mu + L_theta * g_inv


def _deviation(dev: float, scale: float, rec, ref) -> tuple[float, float]:
    """The residual's running maxima of |rec - ref| and |ref|."""
    return max(dev, float(np.abs(rec - ref).max())), max(scale, float(np.abs(ref).max()))


def reconstruct_fluxes(
    s: State, params: PhysParams, block: OnsagerBlock | None = None,
    fl: FluxSet | None = None,
) -> tuple[VectorField, VectorField, VectorField]:
    """
    Rebuild (j_p, j_n, j_e) from the coefficient block and the gradients of
    mu/theta and 1/theta (quotients pointwise, then spectral gradients).
    j_e additionally restores the electrostatic exchange flux of fl, which
    is not expressible through the local coefficient block.
    """
    g = s.grid
    if block is None:
        block = onsager_block(s, params)
    if fl is None:
        fl = constitutive_fluxes(s, params)
    L_pp, L_nn = block.L_pp.values, block.L_nn.values
    L_pth, L_nth = block.L_ptheta.values, block.L_ntheta.values
    spec = _quotient_spectrum(g, s.theta.values, block.mu_p.values, block.mu_n.values)
    j_p, j_n, j_e = [], [], []
    for m, ex in zip(g.grad_mult, fl.exchange.components):
        gmp, gmn, ginv = g.ifft(m * spec)
        j_p.append(_ion_row(L_pp, L_pth, gmp, ginv))
        j_n.append(_ion_row(L_nn, L_nth, gmn, ginv))
        j_e.append(-L_pth * gmp - L_nth * gmn + block.L_thetatheta.values * ginv + ex)
    vec = lambda comps: VectorField(g, tuple(comps))
    return vec(j_p), vec(j_n), vec(j_e)


def flux_reconstruction_residual(
    s: State, params: PhysParams, block: OnsagerBlock | None = None
) -> float:
    """
    Max absolute deviation between the Darcy fluxes and their
    linear-response reconstruction (j_p plus j_n), normalized by the
    largest flux magnitude; returns 0 when all fluxes vanish.  block
    replaces onsager_block(s) (fault injection).  This is the definition;
    flux_audit computes the same number in its streamed pass.
    """
    fl = constitutive_fluxes(s, params)
    j_p_rec, j_n_rec, _ = reconstruct_fluxes(s, params, block, fl)
    dev = scale = 0.0
    for rec, ref in ((j_p_rec, fl.j_p), (j_n_rec, fl.j_n)):
        for cr, cf in zip(rec.components, ref.components):
            dev, scale = _deviation(dev, scale, cr, cf)
    return dev / scale if scale else 0.0


class FluxAudit(NamedTuple):
    """What one audit sample needs of the fluxes."""

    production: ScalarField  # entropy_production_density of the state
    residual: float  # flux_reconstruction_residual of the state


class AuditSink:
    """
    The FluxAudit of one state s, fed by a pass over darcy_axes of s:
    flux_audit's own pass, or the first RHS evaluation of a step from s.
    The body has three parts, called in this order:

    * axis(d_i theta, j_p,i, j_n,i) for each axis i in order adds
      |q_i|^2 = (-k d_i theta)^2, j_p,i^2 and j_n,i^2 to three running
      sums;
    * production() builds the production density from those sums after
      the axis loop;
    * residual(j) takes the reconstruction residual over the (2*dim)-row
      flux buffer j (the j_p rows, then the j_n rows) and completes the
      sample in audit.

    The sample keeps the |j_p|^2 and |j_n|^2 sums itself: the RHS's heat
    rate folds its Joule terms into -j_p.(grad theta + grad phi) and
    -j_n.(grad theta - grad phi) (see dynamics._fluxes_and_heat_rate), so
    only the production density reads the squares.  The residual builds
    the coefficient block and the batched spectrum of (mu_p/theta,
    mu_n/theta, 1/theta) only when it runs, so no array of it is alive
    during the pass's axis loop: 3 + 3*dim transforms.  It builds no phi_t,
    exchange flux, j_e or L_thetatheta.
    """

    def __init__(self, s: State, params: PhysParams):
        self.state, self.params = s, params
        self.audit: FluxAudit | None = None
        self._sums = self._production = None

    def axis(self, gth, jp, jn) -> None:
        if self._sums is None:
            self._sums = np.zeros((3,) + gth.shape)
        q2, jp2, jn2 = self._sums
        q2 += (-self.params.k * gth) ** 2
        jp2 += jp**2
        jn2 += jn**2

    def production(self) -> None:
        q2, jp2, jn2 = self._sums
        self._production = _production_density(self.state, self.params, jp2, jn2, q2)
        self._sums = None

    def residual(self, j) -> None:
        s, g = self.state, self.state.grid
        L_pp, L_nn, L_pth, L_nth, mu_p, mu_n = _ion_coefficients(s, self.params)
        qspec = _quotient_spectrum(g, s.theta.values, mu_p, mu_n)
        del mu_p, mu_n
        dev = scale = 0.0
        for i, m in enumerate(g.grad_mult):
            gmp, gmn, ginv = g.ifft(m * qspec)
            dev, scale = _deviation(dev, scale, _ion_row(L_pp, L_pth, gmp, ginv), j[i])
            dev, scale = _deviation(dev, scale, _ion_row(L_nn, L_nth, gmn, ginv), j[g.dim + i])
            del gmp, gmn, ginv  # before the next axis's transform
        self.audit = FluxAudit(self._production, dev / scale if scale else 0.0)


def flux_audit(s: State, params: PhysParams) -> FluxAudit:
    """
    The entropy production density and the flux-reconstruction residual
    of s, bit for bit equal to
    entropy_production_density(constitutive_fluxes(s)) and
    flux_reconstruction_residual(s): the AuditSink body fed by its own
    pass over darcy_axes, which writes the fluxes into one (2*dim)-row
    buffer; the sink keeps the |q|^2, |j_p|^2 and |j_n|^2 sums in axis
    order, as it does when it rides on an RHS evaluation.

    This is the standalone sample, 6 + 7*dim transforms:
    the forward transform of (n, p, theta) and one 4-field inverse per
    axis for the pass, 3 + 3*dim for the residual.  A step fed the sink
    shares its first RHS evaluation's pass instead, so the sample adds
    only the residual's 3 + 3*dim to the step.
    """
    g = s.grid
    n, p, th = s.n.values, s.p.values, s.theta.values
    sink = AuditSink(s, params)
    j = np.empty((2 * g.dim,) + g.shape)
    spec = g.fft(np.stack([n, p, th]))
    for gn, gp, gth, gphi, jp, jn in darcy_axes(g, spec, n, p, th, params, j):
        sink.axis(gth, jp, jn)
        del gn, gp, gth, gphi  # frees this axis's Darcy transform
    del spec
    sink.production()
    sink.residual(j)
    return sink.audit
