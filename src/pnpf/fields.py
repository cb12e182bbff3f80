"""
State containers and pointwise constitutive quantities.

Charge transport follows Darcy-law ion fluxes and heat follows Fourier's
law; the energy flux collects internal-energy transport, pressure work,
electrostatic transport and the nonlocal electrostatic exchange term.
The audits rebuild the ion fluxes from the linear-response (Onsager)
coefficients relating them to gradients of mu/theta and 1/theta
(_ion_coefficients, with the reciprocal symmetries built in) and measure
the deviation, the reconstruction residual.

Gradients and fluxes are built in one place, the raw-array helpers
darcy_axes and energy_weight.  The ion fluxes are
assembled in expanded form

    j_p = -D_p (theta*grad p + p*grad theta + p*grad phi)

with every spectral derivative acting on a primitive field (phi slaved to
n - p) and all products pointwise.  The time stepper, the audits and the
variational checks share these helpers, so the stepper's fluxes are the
audited fluxes bit for bit; that is what makes the discrete energy audit
an identity rather than an approximation.

darcy_axes streams the gradients one axis at a time: per axis four
one-field inverse transforms give d_i n, d_i p, d_i theta and d_i phi,
the fluxes go into the axis's 2-row block (j_p,i, j_n,i), and the
consumer uses them before the next axis is built, so only one axis's
gradients are alive at once.  The gradients are written into a Slots
(new_slots): four real grids and one spectrum that every inverse
transform reads from and consumes (GridSpec.ifft), so the pass makes no
gradient or spectral array of its own.  A stepping loop
(dynamics.integrate, thermo_audit.audit_run) makes one Slots and hands it
to every step, whose RHS evaluations write their gradients, Laplacians
and audit-residual gradients into it, so a 64^3 run does not fault
those pages in again at every evaluation; a one-off call (flux_audit,
varcheck) makes its own.  A caller that keeps the fluxes passes one
(dim, 2) block array (flux_audit, varcheck's Darcy pass); the primitive
RHS, which uses each axis's pair inside its loop, passes one 2-row block
for every axis.  The Laplacians are not part of the kernel: only the
primitive RHS needs them, and it builds them after its axis loop from
the same forward transform.  With band, every inverse transform of the
pass is a band transform (GridSpec.ifft), which needs a spectrum that
vanishes outside the 2/3 band: the dealiased stepper passes it for the
spectrum it carries, and every other caller keeps band False.

A State carries the spectrum of (n, p, theta) once a stepper has given it
one (State.spec, set by dynamics.carried): the fields are its inverse
transform.  spectrum(s) is that spectrum, or else the forward transform
of the fields, and flux_audit and varcheck's Darcy pass (_darcy_pass)
read it, so the standalone sample of a carried State makes no forward
transform.

AuditSink is the body of one audit sample, in three parts that any pass
over darcy_axes can feed: the |j_p|^2, |j_n|^2 and |q|^2 sums per axis,
the production density from them, and the reconstruction residual over
each axis's j_p and j_n, inside the pass's axis loop (the primitive RHS,
whose 2-row flux block holds only the current axis) or after it
(flux_audit, once the state's spectrum and the sums are gone).  A step
fed a sink makes its first RHS evaluation that pass, and the sample adds
3 + 3*dim transforms to the step; flux_audit makes the pass itself, 6 + 7*dim
transforms, 3 + 7*dim for a State that carries its spectrum
(tests/test_dynamics.py TestSpectralCore::test_transform_count pins both
at dim 3, tests/test_thermo_audit.py TestAuditSample the carried one).
Either way the sample takes from the axes only what it reads and builds
nothing else: no phi_t, exchange flux or energy flux.  The entropy
density eta has one definition, _entropy_arrays on raw arrays:
entropy_density (the audit's total entropy) and varcheck's entropy
functional both evaluate it.  So does the entropy production density,
_production_density of the three sums of squares: the sink divides its
running sums, and varcheck's dissipative scan the sums of its moved
fluxes, each built as the density asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import poisson
from .grid import GridSpec, ScalarField

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


def _check_positive(name: str, values: np.ndarray):
    m = float(values.min())
    if m < POSITIVITY_FLOOR:
        raise PositivityError(f"min({name}) = {m:.3e} below floor {POSITIVITY_FLOOR:.0e}")


@dataclass(frozen=True)
class State:
    """
    Primitive fields (n, p, theta, phi) on one grid.

    Invariants: n, p, theta above the positivity floor; mean(n - p) = 0
    (neutrality); phi is the zero-mean solution of Delta(phi) = n - p.

    spec is the spectrum of (n, p, theta), three rows, that the stepper
    carries from step to step, the fields being its inverse transform;
    None until dynamics.carried sets it (dynamics.integrate,
    thermo_audit.audit_run and dynamics.step call it).  The kernels that
    need the forward transform of (n, p, theta) read it instead
    (spectrum).
    """

    n: ScalarField
    p: ScalarField
    theta: ScalarField
    phi: ScalarField
    spec: object = field(default=None, repr=False, compare=False)

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


class Slots(NamedTuple):
    """The buffers the primitive kernels write into instead of making
    temporaries: darcy_axes puts one axis's four gradients in rows, the
    primitive RHS then its Laplacians, and an AuditSink's residual its
    gradients.  spec is the input of each one-field inverse transform
    (GridSpec.ifft consumes it), and tmp, the same memory seen as one real
    grid, is the arithmetic's scratch once that transform has run.
    spectra, the whole buffer seen as four spectra, is the input of the
    primitive stepper's stage and closing inverse transforms, which run
    between the kernels.  A stepping loop makes one Slots and hands it to
    every step; a one-off call makes its own.  The perturbation form's
    counterpart is dynamics.new_perturbation_slots."""

    rows: np.ndarray  # (4,) + grid.shape, real
    spec: np.ndarray  # grid.spectral_shape, complex
    tmp: np.ndarray  # grid.shape, real: the memory of spec
    spectra: np.ndarray  # (4,) + grid.spectral_shape, complex: the whole buffer


def new_slots(grid: GridSpec) -> Slots:
    """Slots of grid, in one buffer: four real grids and one spectrum,
    which hold four spectra as well (n >= 8)."""
    size, spec_size = grid.n**grid.dim, math.prod(grid.spectral_shape)
    buf = np.empty(4 * size + 2 * spec_size)
    last = buf[4 * size :]
    return Slots(
        buf[: 4 * size].reshape((4,) + grid.shape),
        last.view(complex).reshape(grid.spectral_shape),
        last[:size].reshape(grid.shape),
        buf[: 8 * spec_size].view(complex).reshape((4,) + grid.spectral_shape),
    )


def spectrum(s: State) -> np.ndarray:
    """The spectrum s carries (State.spec), or else the batched forward
    transform of (n, p, theta)."""
    if s.spec is not None:
        return s.spec
    return s.grid.fft(np.stack([s.n.values, s.p.values, s.theta.values]))


def darcy_axes(grid: GridSpec, spec, n, p, th, params: PhysParams, j, slots=None,
               band=False):
    """
    Gradients and Darcy ion fluxes of raw (n, p, theta) arrays, one axis
    at a time, with phi slaved to n - p (phi_hat = -(n_hat - p_hat)/|k|^2).

    spec is the batched forward transform of (n, p, theta) and j[i] the
    2-row block that takes (j_p,i, j_n,i); blocks may repeat, so a caller
    that reads each axis's fluxes inside the loop can pass one block for
    every axis.  For each axis i in turn the generator makes four
    one-field inverse transforms, of d_i n, d_i p, d_i theta and d_i phi,
    each from slots.spec into a row of slots.rows (phi_hat is rebuilt in
    slots.spec), and yields (d_i n, d_i p, d_i theta, d_i phi, j_p,i,
    j_n,i); the fluxes' products use slots.tmp.  The gradients are those
    rows (slots is new_slots of the grid, or call-local when None): they
    stay valid only until the generator resumes, which overwrites them
    with the next axis's, and the consumer may use slots.tmp, and the row
    of a gradient it has done with, as scratch.

    band makes every inverse transform a band transform (GridSpec.ifft):
    a stepper whose carried spectrum vanishes outside the 2/3 band passes
    it, and any other spectrum needs band False.
    """
    if slots is None:
        slots = new_slots(grid)
    for i, m in enumerate(grid.grad_mult):
        yield _darcy_axis(grid, spec, m, n, p, th, params, j[i], slots, band)


def _darcy_axis(grid: GridSpec, spec, m, n, p, th, params: PhysParams, ji, slots, band):
    rows, sp, t = slots.rows, slots.spec, slots.tmp
    gn = grid.ifft(np.multiply(m, spec[0], out=sp), out=rows[0], band=band)
    gp = grid.ifft(np.multiply(m, spec[1], out=sp), out=rows[1], band=band)
    gth = grid.ifft(np.multiply(m, spec[2], out=sp), out=rows[2], band=band)
    # -1/|k|^2 goes into the start of the row that d_i phi then takes
    inv = grid.inv_k2
    neg_inv_k2 = np.negative(inv, out=rows[3].reshape(-1)[: inv.size].reshape(inv.shape))
    np.subtract(spec[0], spec[1], out=sp)
    np.multiply(neg_inv_k2, sp, out=sp)
    gphi = grid.ifft(np.multiply(m, sp, out=sp), out=rows[3], band=band)
    # -D_p (th gp + p gth + p gphi) and -D_n (th gn + n gth - n gphi), in
    # that order, with t for each product
    jp = np.multiply(th, gp, out=ji[0])
    jp += np.multiply(p, gth, out=t)
    jp += np.multiply(p, gphi, out=t)
    jp *= -params.D_p
    jn = np.multiply(th, gn, out=ji[1])
    jn += np.multiply(n, gth, out=t)
    jn -= np.multiply(n, gphi, out=t)
    jn *= -params.D_n
    return gn, gp, gth, gphi, jp, jn


def energy_weight(th, phi, params: PhysParams, species: int, out=None):
    """Energy carried per unit ion flux of one species: (c_p+1) theta + phi
    for species 0 (p), (c_n+1) theta - phi for species 1 (n), written into
    out when given."""
    c, combine = ((params.c_p, np.add), (params.c_n, np.subtract))[species]
    w = np.multiply(c + 1.0, th, out=out)
    return combine(w, phi, out=w)


def _darcy_pass(s: State, params: PhysParams):
    """(j, q, grad phi) of one darcy_axes pass over s: the (dim, 2) block
    of the Darcy fluxes (j_p,i, j_n,i), the Fourier heat flux
    q = -k grad(theta) and grad(phi), the last two as component lists.
    varcheck_report takes its fluxes from it."""
    g = s.grid
    j, q, gphi = np.empty((g.dim, 2) + g.shape), [], []
    spec = spectrum(s)
    for axis in darcy_axes(g, spec, s.n.values, s.p.values, s.theta.values, params, j):
        q.append(-params.k * axis[2])
        gphi.append(axis[3].copy())
        del axis  # lets the kernel free this axis's transforms
    return j, q, gphi


def energy_density(s: State, params: PhysParams) -> ScalarField:
    """e = (c_p p + c_n n) theta + ((p - n)/2) phi."""
    e = (params.c_p * s.p.values + params.c_n * s.n.values) * s.theta.values
    e = e + 0.5 * (s.p.values - s.n.values) * s.phi.values
    return ScalarField(s.grid, e)


def entropy_density(s: State, params: PhysParams) -> ScalarField:
    """eta = -p (log p - c_p log theta) - n (log n - c_n log theta)."""
    return ScalarField(s.grid, _entropy_arrays(s.p.values, s.n.values, s.theta.values, params))


def _entropy_arrays(p, n, theta, params: PhysParams) -> np.ndarray:
    """The entropy density eta of the raw arrays p, n and theta."""
    logth = np.log(theta)
    eta = -p * (np.log(p) - params.c_p * logth)
    eta -= n * (np.log(n) - params.c_n * logth)
    return eta


def _production_density(s: State, params: PhysParams, sums) -> ScalarField:
    """The entropy production density

        |j_p|^2/(D_p p theta) + |j_n|^2/(D_n n theta) + |q|^2/(k theta^2)

    of sums, an iterable that yields the squared magnitudes |j_p|^2,
    |j_n|^2 and |q|^2 in that order.  Each is divided in place as soon as
    it arrives and added into the first, which becomes the density, so an
    iterable that builds its sums lazily keeps one alive next to it."""
    th = s.theta.values
    sums = iter(sums)
    out = next(sums)
    out /= params.D_p * s.p.values * th
    term = next(sums)
    term /= params.D_n * s.n.values * th
    out += term
    del term
    term = next(sums)
    term /= params.k * th**2
    out += term
    return ScalarField(s.grid, out)


def _ion_coefficients(s: State, params: PhysParams, scratch):
    """(L_pp, L_nn, L_ptheta, L_ntheta) as raw arrays: the ion rows of the
    linear-response (Onsager) block of the flux form

        j_p = -L_pp grad(mu_p/theta) + L_ptheta grad(1/theta)
        j_n = -L_nn grad(mu_n/theta) + L_ntheta grad(1/theta)

    with L_pp = D_p p theta, L_ptheta = L_pp [(c_p+1) theta + phi],
    L_nn = D_n n theta, L_ntheta = L_nn [(c_n+1) theta - phi] and the
    chemical potentials mu_p = theta (log p - c_p log theta) + phi,
    mu_n = theta (log n - c_n log theta) - phi (_quotients).  Each
    reciprocal pair is one array (L_ptheta is also L_thetap), and L_pn =
    L_np is zero.  The energy weights go into scratch, two real grids."""
    n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    L_pp = params.D_p * p * th
    L_nn = params.D_n * n * th
    L_pth = L_pp * energy_weight(th, phi, params, 0, out=scratch[0])
    L_nth = L_nn * energy_weight(th, phi, params, 1, out=scratch[1])
    return L_pp, L_nn, L_pth, L_nth


def _quotients(s: State, params: PhysParams, out, tmp):
    """(mu_p/theta, mu_n/theta, 1/theta), the potentials whose gradients
    the flux form takes, built in place in out, three real grids, with tmp
    as scratch, in the operation order of theta (log p - c_p log theta) +
    phi over theta, and likewise for n with - phi (_ion_coefficients), so
    with the bits of the quotients of those expressions.  Axis i's
    gradients are grad_mult[i] times their batched forward transform,
    inverse transformed."""
    n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    logth = np.log(th, out=out[2])
    for row, x, c, combine in ((out[0], p, params.c_p, np.add),
                               (out[1], n, params.c_n, np.subtract)):
        np.log(x, out=row)
        row -= np.multiply(c, logth, out=tmp)
        row *= th
        combine(row, phi, out=row)
        row /= th
    np.divide(1.0, th, out=out[2])
    return out


def _ion_row(L, L_theta, g_mu, g_inv, out, tmp):
    """Component i of an ion flux rebuilt from the coefficient block,
    -L d_i(mu/theta) + L_theta d_i(1/theta), as L_theta d_i(1/theta) -
    L d_i(mu/theta) (the same bits), written into out with tmp as
    scratch."""
    np.multiply(L_theta, g_inv, out=out)
    out -= np.multiply(L, g_mu, out=tmp)
    return out


def _deviation(dev: float, scale: float, rec, ref, tmp=None) -> tuple[float, float]:
    """The residual's running maxima of |rec - ref| and |ref|, with tmp as
    scratch when it is given."""
    d = float(np.abs(np.subtract(rec, ref, out=tmp), out=tmp).max())
    return max(dev, d), max(scale, float(np.abs(ref, out=tmp).max()))


class FluxAudit(NamedTuple):
    """What one audit sample needs of the fluxes."""

    production: ScalarField  # the entropy production density of the state
    residual: float  # the flux-reconstruction residual of the state


class AuditSink:
    """
    The FluxAudit of one state s, fed by a pass over darcy_axes of s:
    flux_audit's own pass, or the first RHS evaluation of a step from s.
    The body has three parts:

    * axis(d_i theta, j_p,i, j_n,i, tmp) for each axis i in order adds
      j_p,i^2, j_n,i^2 and |q_i|^2 = (-k d_i theta)^2 to three running
      sums, three grids, squaring in the scratch grid tmp;
    * production() hands those sums, in that order, to
      _production_density after the axis loop, which divides them in
      place and keeps the first as the density;
    * residual(i, j_p,i, j_n,i, slots) for each axis i in order, inside
      the pass's axis loop or after it, takes the reconstruction
      residual's axis i: the gradients of (mu_p/theta, mu_n/theta,
      1/theta) along axis i, each from a one-field inverse transform into
      a row of slots (inside the loop, the rows of the pass's axis-i
      gradients, which the caller has read by then), the two rebuilt
      fluxes, and their running deviation from j_p,i and j_n,i.  Inside
      the loop, no axis's fluxes need outlive its turn, so the RHS keeps
      no (dim, 2) flux block for the residual.

    audit is the sample once the production density and the last axis's
    residual are both in, else None.  The sample keeps the |j_p|^2 and
    |j_n|^2 sums itself: the RHS's heat rate folds its Joule terms into
    -j_p.(grad theta + grad phi) and -j_n.(grad theta - grad phi) (see
    dynamics._fluxes_and_heat_rate), so only the production density reads
    the squares.  The residual's first axis builds the coefficient block
    and the batched spectrum of the quotients (_ion_coefficients,
    _quotients, both in slots), and its last axis frees them: 3 + 3*dim
    transforms.  It builds no phi_t, exchange flux, j_e or L_thetatheta.
    """

    def __init__(self, s: State, params: PhysParams):
        self.state, self.params = s, params
        self._sums = self._production = self._block = self._residual = None
        self._dev = self._scale = 0.0

    @property
    def audit(self) -> FluxAudit | None:
        if self._production is None or self._residual is None:
            return None
        return FluxAudit(self._production, self._residual)

    def axis(self, gth, jp, jn, tmp) -> None:
        if self._sums is None:
            self._sums = [np.zeros(gth.shape) for _ in range(3)]
        jp2, jn2, q2 = self._sums
        q2 += np.square(np.multiply(-self.params.k, gth, out=tmp), out=tmp)
        jp2 += np.square(jp, out=tmp)
        jn2 += np.square(jn, out=tmp)

    def production(self) -> None:
        self._production = _production_density(self.state, self.params, self._sums)
        self._sums = None

    def residual(self, i, jp, jn, slots) -> None:
        s, g, tmp = self.state, self.state.grid, slots.tmp
        if self._block is None:
            coefs = _ion_coefficients(s, self.params, slots.rows)
            self._block = coefs + (g.fft(_quotients(s, self.params, slots.rows[:3], tmp)),)
        L_pp, L_nn, L_pth, L_nth, qspec = self._block
        gmp, gmn, ginv, rec = slots.rows
        m = g.grad_mult[i]
        for k, row in enumerate((gmp, gmn, ginv)):
            g.ifft(np.multiply(m, qspec[k], out=slots.spec), out=row)
        _ion_row(L_pp, L_pth, gmp, ginv, rec, tmp)
        dev, scale = _deviation(self._dev, self._scale, rec, jp, tmp)
        _ion_row(L_nn, L_nth, gmn, ginv, rec, tmp)
        self._dev, self._scale = _deviation(dev, scale, rec, jn, tmp)
        if i == g.dim - 1:
            self._block = None
            self._residual = self._dev / self._scale if self._scale else 0.0


def flux_audit(s: State, params: PhysParams, slots=None) -> FluxAudit:
    """
    The entropy production density

        |j_p|^2/(D_p p theta) + |j_n|^2/(D_n n theta) + |q/theta|^2/k

    and the flux-reconstruction residual of s, the largest deviation of
    the Darcy fluxes (j_p, j_n) from their rebuild through the coefficient
    block (_ion_coefficients), relative to the largest flux component; 0
    when every flux vanishes.  It is the AuditSink body fed by its own
    pass over darcy_axes, which writes the fluxes into one (dim, 2)
    block array; the sink keeps the |q|^2, |j_p|^2 and |j_n|^2 sums in
    axis order, as it does when it rides on an RHS evaluation, and takes
    the residual axis by axis after the pass, once the state's spectrum
    and the sums are gone.  The textbook definitions of both quantities,
    which the tests compare it with bit for bit, are in tests/oracles.py.

    This is the standalone sample, 6 + 7*dim transforms: the forward
    transform of (n, p, theta), which a State that carries its spectrum
    skips (spectrum), and four one-field inverses per axis for the pass,
    3 + 3*dim for the residual.  A step fed the sink shares its first RHS
    evaluation's pass instead, so the sample adds only the residual's
    3 + 3*dim to the step.  slots are a run's (new_slots), which the run
    does not use meanwhile, or None for call-local ones.
    """
    g = s.grid
    n, p, th = s.n.values, s.p.values, s.theta.values
    sink = AuditSink(s, params)
    j = np.empty((g.dim, 2) + g.shape)
    slots = new_slots(g) if slots is None else slots
    spec = spectrum(s)
    for _, _, gth, _, jp, jn in darcy_axes(g, spec, n, p, th, params, j, slots):
        sink.axis(gth, jp, jn, slots.tmp)
    del spec
    sink.production()
    for i, (jp, jn) in enumerate(j):
        sink.residual(i, jp, jn, slots)
    return sink.audit
