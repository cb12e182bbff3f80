"""Independent oracles and reference definitions that the package's
streamed computations are checked against.

Dense oracles freeze expected values without the library's FFT code path:
differentiation matrices are assembled from explicitly constructed DFT
matrices, the constrained Poisson solve goes through a dense KKT system,
and quadratures use math.fsum over plain Python loops (dft_matrix through
fsum_integral).

Reference definitions are the textbook forms of the audited quantities,
which no command runs; the tests compare the package's one-pass versions
with them, most of them bit for bit:

* VectorField, the container of dim components on a shared GridSpec that
  the flux sets hold;
* energy_weights: the energy carried per unit flux of both ions, the
  pair of fields.energy_weight that the energy flux and the Onsager block
  read;
* FluxSet and constitutive_fluxes: the Darcy ion fluxes, the Fourier heat
  flux, the exchange flux and the total energy flux of a State, from the
  package's Darcy pass (fields._darcy_pass) and the exchange solve
  (exchange_arrays);
* entropy_production_density: the pointwise production rate of a FluxSet,
  which fields.flux_audit and an audited step's AuditSink equal bit for
  bit;
* lyapunov: the Lyapunov functional of a PerturbationState from the
  transforms of its four fields, which decay.lyapunov and the audit's
  lyapunov column equal to rounding;
* OnsagerBlock, onsager_block and reconstruct_fluxes: the linear-response
  block with its reciprocal symmetries built in, and the fluxes rebuilt
  from it;
* flux_reconstruction_residual: the reciprocity residual of a State,
  which the onsager_residual column of audit.csv equals bit for bit;
* entropy_functional: the total entropy of (p, n, e) with the temperature
  derived, the correctly rounded quadrature of varcheck._entropy_density,
  whose differences between the moved states varcheck's conservative scan
  integrates instead;
* eliminate_heat_flux and dissipation_functional: the heat flux
  eliminated from an arbitrary flux triple, and the quadratic entropy
  production of the triple, which varcheck's dissipative scan evaluates
  split linearly, with the probe's heat flux eliminated from its
  coefficients (varcheck._probe_heat_flux);
* dissipative_forces, pairing and balance: the closed-form dissipative
  force set built whole, sum over the flows of <f, dJ>, and the force
  balance of two whole force sets, which varcheck's streamed forces
  (varcheck._dissipative_flows, varcheck._force_pairings) equal bit for
  bit.

The remaining helpers compose the package's kernels the textbook way
(nine_sum_rhs, batched_rhs_core and the one-step RK4 and IMEX1 oracles).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from pnpf import decay, varcheck
from pnpf.dynamics import (
    PerturbationState, _linear_block, _rhs_perturbation_core, rhs_perturbation,
)
from pnpf.fields import (
    PhysParams, State, _darcy_pass, _deviation, _ion_row, _production_density, darcy_axes,
    energy_weight, new_slots,
)
from pnpf.grid import GridSpec, ScalarField, divergence_arrays, grad_arrays, integrate
from pnpf.poisson import greens_apply, solve_array


def dft_matrix(n: int) -> np.ndarray:
    """Explicit DFT matrix F[j, l] = exp(-2*pi*i*j*l/n)."""
    j, l = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * l / n)


def diff_matrix_1d(n: int, length: float, order: int = 1) -> np.ndarray:
    """Dense spectral differentiation matrix (same conventions as the
    library: Nyquist zeroed for odd orders, kept for even orders)."""
    F = dft_matrix(n)
    Finv = np.conj(F).T / n
    m = np.fft.fftfreq(n) * n
    k = 2.0 * np.pi * m / length
    if order % 2 == 1:
        k = np.where(np.abs(m) == n // 2, 0.0, k)
    mult = (1j * k) ** order
    D = Finv @ np.diag(mult) @ F
    return np.real(D)


def apply_axis(mat: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(values, axis, 0)
    out = np.tensordot(mat, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def dense_gradient(grid: GridSpec, values: np.ndarray) -> list:
    D = diff_matrix_1d(grid.n, grid.length, 1)
    return [apply_axis(D, values, ax) for ax in range(grid.dim)]


def dense_derivative(grid: GridSpec, values: np.ndarray, alpha) -> np.ndarray:
    """Apply the multi-index derivative d^alpha via dense 1D matrices."""
    out = values
    for ax, order in enumerate(alpha):
        for _ in range(order):
            D = diff_matrix_1d(grid.n, grid.length, 1)
            out = apply_axis(D, out, ax)
    return out


def multi_indices(dim: int, order: int):
    """All multi-indices alpha with |alpha| == order."""
    for combo in itertools.combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for ax in combo:
            alpha[ax] += 1
        yield tuple(alpha)


def dense_hk_norm(grid: GridSpec, values: np.ndarray, k: int) -> float:
    """H^k norm via dense derivatives and fsum quadrature."""
    total = 0.0
    for order in range(k + 1):
        for alpha in multi_indices(grid.dim, order):
            d = dense_derivative(grid, values, alpha)
            total += fsum_integral(grid, d * d)
    return math.sqrt(total)


def dense_laplacian_matrix(grid: GridSpec) -> np.ndarray:
    """Dense Laplacian on the flattened grid (sum of 1D second-derivative
    matrices Kronecker-lifted along each axis)."""
    n, d = grid.n, grid.dim
    D2 = diff_matrix_1d(n, grid.length, 2)
    eye = np.eye(n)
    total = np.zeros((n**d, n**d))
    for ax in range(d):
        mats = [eye] * d
        mats[ax] = D2
        acc = mats[0]
        for m in mats[1:]:
            acc = np.kron(acc, m)
        total += acc
    return total


def dense_poisson_solve(grid: GridSpec, source: np.ndarray) -> np.ndarray:
    """Solve Delta(phi) = source with the zero-mean constraint through a
    dense KKT system."""
    npts = grid.n**grid.dim
    A = dense_laplacian_matrix(grid)
    kkt = np.zeros((npts + 1, npts + 1))
    kkt[:npts, :npts] = A
    kkt[:npts, npts] = 1.0
    kkt[npts, :npts] = 1.0
    rhs = np.concatenate([source.ravel(), [0.0]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:npts].reshape(grid.shape)


def fsum_integral(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature via math.fsum over a plain Python loop."""
    return math.fsum(float(x) for x in values.ravel()) * grid.cell_volume


# -- reference definitions ------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """dim real scalar components on a shared GridSpec."""

    grid: GridSpec
    components: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        comps = tuple(np.asarray(c, dtype=np.float64) for c in self.components)
        if len(comps) != self.grid.dim:
            raise ValueError(f"need {self.grid.dim} components, got {len(comps)}")
        for c in comps:
            if c.shape != self.grid.shape:
                raise ValueError("component shape mismatch")
            if not np.all(np.isfinite(c)):
                raise ValueError("VectorField components must be finite")
        object.__setattr__(self, "components", comps)


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


def energy_weights(th, phi, params: PhysParams):
    """Energy carried per unit ion flux: ((c_p+1) theta + phi, (c_n+1) theta
    - phi), fields.energy_weight of each species."""
    return energy_weight(th, phi, params, 0), energy_weight(th, phi, params, 1)


def exchange_arrays(grid: GridSpec, phi, gphi, j_p, j_n):
    """(phi_t, exchange flux): the potential rate solving
    Delta(phi_t) = div(j_p - j_n) and the electrostatic exchange flux
    (phi_t grad(phi) - phi grad(phi_t))/2 of the energy balance.

    phi_t and grad(phi_t) come from the one spectrum
    -div(j_p - j_n)^/|k|^2: one batched forward transform of the dim
    components of j_p - j_n, written in place into one preallocated
    batch, and one batched inverse transform of (phi_t, grad phi_t),
    filled into a single preallocated spectral array.  The exchange flux
    overwrites grad(phi_t) in the inverse transform's output, so phi_t and
    the flux are views into that one array.
    """
    d = grid.dim
    diff = np.empty((d,) + grid.shape)
    for i in range(d):
        np.subtract(j_p[i], j_n[i], out=diff[i])
    jh = grid.fft(diff)
    del diff
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
    th, phi = s.theta.values, s.phi.values
    j, q, gphi = _darcy_pass(s, params)
    j_p, j_n = list(j[:, 0]), list(j[:, 1])
    phi_t, exchange = exchange_arrays(g, phi, gphi, j_p, j_n)
    a, b = energy_weights(th, phi, params)
    j_e = [a * j_p[i] + b * j_n[i] + exchange[i] + q[i] for i in range(d)]
    vec = lambda comps: VectorField(g, tuple(comps))
    return FluxSet(
        j_p=vec(j_p), j_n=vec(j_n), q=vec(q), j_e=vec(j_e), exchange=vec(exchange),
        phi_t=ScalarField(g, phi_t),
    )


def entropy_production_density(fl: FluxSet, s: State, params: PhysParams) -> ScalarField:
    """
    Pointwise entropy production rate, a weighted sum of squares:

        |j_p|^2/(D_p p theta) + |j_n|^2/(D_n n theta) + |q/theta|^2/k.

    Nonnegative by construction for every admissible state and flux set.
    """
    sq = lambda v: sum(c**2 for c in v.components)
    return _production_density(s, params, (sq(fl.j_p), sq(fl.j_n), sq(fl.q)))


def lyapunov(ps: PerturbationState, params: PhysParams) -> float:
    """Lambda of ps from one batched forward transform of its four fields,
    phi's own included, added as decay adds it: the definition that
    decay.lyapunov evaluates from the spectra of (u_tilde, v, theta_tilde)
    alone, with phi_hat = -v_hat/|k|^2, and thermo_audit from the spectrum
    of (n, p, theta)."""
    g = ps.grid
    su, sv, st, sphi = g.fft(
        np.stack([ps.u_tilde.values, ps.v.values, ps.theta_tilde.values, ps.phi.values])
    )
    h2 = lambda spec: g.spectral_l2_sum(spec, g.h2_norm_weight)
    sums = h2(su), h2(sv), h2(st), g.spectral_l2_sum(sphi, g.h1_weight)
    return decay._lyapunov(sums, params)


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
    g, n, p, th, phi = s.grid, s.n.values, s.p.values, s.theta.values, s.phi.values
    L_pp = params.D_p * p * th
    L_nn = params.D_n * n * th
    a, b = energy_weights(th, phi, params)
    logth = np.log(th)
    mu_p = th * (np.log(p) - params.c_p * logth) + phi
    mu_n = th * (np.log(n) - params.c_n * logth) - phi
    f = lambda v: ScalarField(g, v)
    return OnsagerBlock(
        L_pp=f(L_pp), L_nn=f(L_nn), L_ptheta=f(L_pp * a), L_ntheta=f(L_nn * b),
        L_thetatheta=f(L_pp * a**2 + L_nn * b**2 + params.k * th**2),
        mu_p=f(mu_p), mu_n=f(mu_n),
    )


def reconstruct_fluxes(
    s: State, params: PhysParams, block: OnsagerBlock, fl: FluxSet
) -> tuple[VectorField, VectorField, VectorField]:
    """
    Rebuild (j_p, j_n, j_e) from the coefficient block and the gradients of
    mu/theta and 1/theta (quotients pointwise, then spectral gradients).
    j_e additionally restores the electrostatic exchange flux of fl, which
    is not expressible through the local coefficient block.  The rows are
    fields._ion_row's, written into new arrays.
    """
    g = s.grid
    L_pp, L_nn = block.L_pp.values, block.L_nn.values
    L_pth, L_nth = block.L_ptheta.values, block.L_ntheta.values
    th = s.theta.values
    spec = g.fft(np.stack([block.mu_p.values / th, block.mu_n.values / th, 1.0 / th]))
    tmp = np.empty(g.shape)
    j_p, j_n, j_e = [], [], []
    for m, ex in zip(g.grad_mult, fl.exchange.components):
        gmp, gmn, ginv = g.ifft(m * spec)
        j_p.append(_ion_row(L_pp, L_pth, gmp, ginv, np.empty(g.shape), tmp))
        j_n.append(_ion_row(L_nn, L_nth, gmn, ginv, np.empty(g.shape), tmp))
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
    replaces onsager_block(s) (fault injection).  fields.flux_audit
    computes the same number in its streamed pass.
    """
    fl = constitutive_fluxes(s, params)
    if block is None:
        block = onsager_block(s, params)
    j_p_rec, j_n_rec, _ = reconstruct_fluxes(s, params, block, fl)
    dev = scale = 0.0
    for rec, ref in ((j_p_rec, fl.j_p), (j_n_rec, fl.j_n)):
        for cr, cf in zip(rec.components, ref.components):
            dev, scale = _deviation(dev, scale, cr, cf)
    return dev / scale if scale else 0.0


def entropy_functional(p: ScalarField, n: ScalarField, e: ScalarField,
                       params: PhysParams) -> float:
    """Total entropy with the temperature derived from (p, n, e); this
    hidden dependency is what makes the flow-map derivative nontrivial.
    p - n is formed once and serves the neutrality guard and the derived
    temperature.  fsum is correctly rounded, so reading the density's
    buffer directly (no list) keeps the bits.

    Raises ValueError if (p, n) is not neutral and PositivityError if the
    derived temperature is not positive.
    """
    rho = p.values - n.values
    phi = greens_apply(p.grid, rho)
    eta = varcheck._entropy_density(p.values, n.values, e.values, rho, phi, params)
    return math.fsum(memoryview(eta.ravel())) * p.grid.cell_volume


def eliminate_heat_flux(s: State, params: PhysParams, j_p, j_n, j_e, gphi):
    """q from (j_e, j_p, j_n) by the energy-flux bookkeeping, with the
    potential rate solved from the continuity equations; gphi is
    grad(phi) of s."""
    g = s.grid
    a, b = energy_weights(s.theta.values, s.phi.values, params)
    _, exchange = exchange_arrays(g, s.phi.values, gphi, j_p, j_n)
    return [j_e[i] - a * j_p[i] - b * j_n[i] - exchange[i] for i in range(g.dim)]


def dissipation_functional(s, params, j_p, j_n, j_e) -> float:
    """The quadratic entropy production of arbitrary fluxes, with q
    eliminated through the energy-flux relation (grad(phi) built here):
    the definition that varcheck's linearly split scan evaluates."""
    gphi = grad_arrays(s.grid, s.phi.values)
    q = eliminate_heat_flux(s, params, j_p, j_n, j_e, gphi)
    sums = (varcheck._sum_sq(f) for f in (j_p, j_n, q))
    return integrate(_production_density(s, params, sums))


def dissipative_forces(s: State, params: PhysParams, j_p, j_n, gphi, q):
    """The closed-form dissipative forces (f_p, f_n, R) of the fluxes
    (j_p, j_n) and the eliminated heat flux q, as component lists, each
    force built whole: the half-derivatives of the entropy production,
    linear in the fluxes.  gphi is grad(phi) of s."""
    g = s.grid
    th, phi = s.theta.values, s.phi.values
    R = [q[i] / (params.k * th**2) for i in range(g.dim)]
    r_dot_gphi = sum(R[i] * gphi[i] for i in range(g.dim))
    div_phi_r = divergence_arrays(g, [phi * R[i] for i in range(g.dim)])
    kernel = grad_arrays(g, solve_array(g, div_phi_r + r_dot_gphi))
    a, b = energy_weights(th, phi, params)
    f_p = [
        j_p[i] / (params.D_p * s.p.values * th) - a * R[i] + 0.5 * kernel[i]
        for i in range(g.dim)
    ]
    f_n = [
        j_n[i] / (params.D_n * s.n.values * th) - b * R[i] - 0.5 * kernel[i]
        for i in range(g.dim)
    ]
    return f_p, f_n, R


def pair(grid: GridSpec, force, probe) -> float:
    """<force, probe> of one flow, over its components."""
    return float(sum((fc * pc).sum() for fc, pc in zip(force, probe)) * grid.cell_volume)


def pairing(grid: GridSpec, flows, probe_flows) -> float:
    """sum over the flows of <f, dJ>: the closed-form side of a scan."""
    return sum(pair(grid, f, dJ) for f, dJ in zip(flows, probe_flows))


def balance(con_flows, dis_flows) -> float:
    """Max deviation between the conservative and dissipative flows,
    relative to the largest conservative component; zero at equilibrium."""
    dev = scale = 0.0
    for fc, fd in zip(con_flows, dis_flows):
        for cc, cd in zip(fc, fd):
            dev, scale = _deviation(dev, scale, cd, cc)
    return dev / scale if scale else 0.0


def nine_sum_rhs(grid: GridSpec, n, p, th, params, dealias=True) -> np.ndarray:
    """(dn, dp, dtheta) of the primitive system with the temperature rate
    in its expanded form, nine dot products summed over the axes:

        (c_p p + c_n n) dtheta = k Delta(theta) + |j_p|^2/(D_p p)
            + |j_n|^2/(D_n n) - theta div(j_p) + (theta/p) j_p.grad(p)
            - theta div(j_n) + (theta/n) j_n.grad(n)
            - (c_p j_p + c_n j_n).grad(theta).

    The fluxes, the outer divergence and the dealiasing are the RHS's, so
    dn and dp have its bits; the folded three-sum heat rate of
    dynamics._fluxes_and_heat_rate differs from this one by rounding."""
    d = grid.dim
    Dp, Dn = params.D_p, params.D_n
    spec = grid.fft(np.stack([n, p, th]))
    out = np.empty((2 * d + 1,) + grid.shape)
    gp_gth, gn_gth, gp_gphi, gn_gphi, jp2, jn2, jp_gp, jn_gn, jheat_gth = np.zeros(
        (9,) + grid.shape
    )
    for gn, gp, gth, gphi, jp, jn in darcy_axes(grid, spec, n, p, th, params, _flux_blocks(out)):
        gp_gth += gp * gth
        gn_gth += gn * gth
        gp_gphi += gp * gphi
        gn_gphi += gn * gphi
        jp2 += jp**2
        jn2 += jn**2
        jp_gp += jp * gp
        jn_gn += jn * gn
        jheat_gth += (params.c_p * jp + params.c_n * jn) * gth

    lap_n, lap_p, lap_th = grid.ifft(-grid.k2 * spec)
    rho = n - p
    div_jp = -Dp * (p * lap_th + 2.0 * gp_gth + th * lap_p + gp_gphi + p * rho)
    div_jn = -Dn * (n * lap_th + 2.0 * gn_gth + th * lap_n - gn_gphi - n * rho)
    heat = params.k * lap_th + jp2 / (Dp * p) + jn2 / (Dn * n)
    heat -= th * div_jp - (th / p) * jp_gp
    heat -= th * div_jn - (th / n) * jn_gn
    heat -= jheat_gth
    np.divide(heat, params.c_p * p + params.c_n * n, out=out[2 * d])
    return grid.ifft(_outer_divergence(grid, out, dealias))


def _flux_blocks(out: np.ndarray) -> np.ndarray:
    """The (dim, 2) flux blocks of a (2*dim+1)-row buffer, as a view: rows
    2i and 2i+1 take (j_p,i, j_n,i), and the last row is left for
    dtheta."""
    d = (len(out) - 1) // 2
    return out[: 2 * d].reshape((d, 2) + out.shape[1:])


def _outer_divergence(grid: GridSpec, out, dealias) -> np.ndarray:
    """Spectrum of (dn, dp, dtheta) from the (2*dim+1)-row buffer of
    _flux_blocks and dtheta, in one forward transform of every row."""
    d = grid.dim
    spec_j = grid.fft(out)
    dp_hat = -sum(grid.grad_mult[i] * spec_j[2 * i] for i in range(d))
    dn_hat = -sum(grid.grad_mult[i] * spec_j[2 * i + 1] for i in range(d))
    dth_hat = spec_j[2 * d]
    if dealias:
        mask = grid.dealias_mask
        dn_hat, dp_hat, dth_hat = mask * dn_hat, mask * dp_hat, mask * dth_hat
    return np.stack([dn_hat, dp_hat, dth_hat])


def _batched_darcy_axes(grid: GridSpec, spec, n, p, th, params, j):
    """fields.darcy_axes with one 4-field inverse transform per axis, of
    (d_i n, d_i p, d_i theta, d_i phi)."""
    neg_inv_k2 = -grid.inv_k2
    for i, m in enumerate(grid.grad_mult):
        four = np.empty((4,) + spec.shape[1:], dtype=complex)
        for k in range(3):
            np.multiply(m, spec[k], out=four[k])
        phih = four[3]
        np.subtract(spec[0], spec[1], out=phih)
        np.multiply(neg_inv_k2, phih, out=phih)
        np.multiply(m, phih, out=phih)
        gn, gp, gth, gphi = grid.ifft(four)
        jp = np.multiply(-params.D_p, th * gp + p * gth + p * gphi, out=j[i, 0])
        jn = np.multiply(-params.D_n, th * gn + n * gth - n * gphi, out=j[i, 1])
        yield gn, gp, gth, gphi, jp, jn


def batched_rhs_core(grid: GridSpec, spec, n, p, th, params, dealias=True, sink=None):
    """dynamics._rhs_primitive_core with its transforms batched and full:
    one 4-field inverse transform per axis and the three Laplacians in
    one.  With dealias, as the core with band: one forward transform of
    the pointwise (-div j_n, -div j_p, dtheta), dealias_mask, and the k = 0
    entries of dn and dp set to 0.  Without it, one forward transform of a
    (2*dim+1)-row buffer of the fluxes and dtheta, and the spectral
    divergences.  The arithmetic is the core's, so the output spectrum and
    an AuditSink's sample are the core's bit for bit."""
    d = grid.dim
    Dp, Dn = params.D_p, params.D_n
    wp, wn = params.c_p + 1.0, params.c_n + 1.0
    out = np.empty((2 * d + 1,) + grid.shape)
    j = _flux_blocks(out)
    a_p, a_n, b = np.zeros((3,) + grid.shape)
    slots = new_slots(grid)  # the sink's scratch
    axes = _batched_darcy_axes(grid, spec, n, p, th, params, j)
    for i, (gn, gp, gth, gphi, jp, jn) in enumerate(axes):
        a_p += gp * (2.0 * gth + gphi)
        a_n += gn * (2.0 * gth - gphi)
        b += jp * (wp * gth + gphi) + jn * (wn * gth - gphi)
        if sink is not None:
            sink.axis(gth, jp, jn, slots.tmp)
            sink.residual(i, jp, jn, slots)
    if sink is not None:
        sink.production()

    lap_n, lap_p, lap_th = grid.ifft(-grid.k2 * spec)
    rho = n - p
    neg_div_p = Dp * (p * lap_th + th * lap_p + p * rho + a_p)
    neg_div_n = Dn * (n * lap_th + th * lap_n - n * rho + a_n)
    heat = neg_div_p + neg_div_n
    heat *= th
    heat += params.k * lap_th
    heat -= b
    np.divide(heat, params.c_p * p + params.c_n * n, out=out[2 * d])
    if not dealias:
        return _outer_divergence(grid, out, False)
    rates = grid.dealias_mask * grid.fft(np.stack([neg_div_n, neg_div_p, out[2 * d]]))
    rates[(slice(0, 2),) + (0,) * d] = 0.0
    return rates


def primitive_rk4_step(grid: GridSpec, ys, params, dt, dealias=True) -> np.ndarray:
    """One RK4 step of the primitive form composed the textbook way on its
    spectrum, with full transforms: y_hat, the forward transform of ys
    (times dealias_mask when dealias, ys then being its inverse
    transform); k1 ... k4 of batched_rhs_core on y_hat with ys and on each
    stage spectrum with its inverse transform; y_hat + dt/6 (k1 + 2 k2 +
    2 k3 + k4).  Returns (n, p, theta, phi) of the new spectrum, phi_hat =
    -(n_hat - p_hat)/|k|^2, in one array."""
    y = grid.fft(np.stack(ys))
    if dealias:
        y = grid.dealias_mask * y
        ys = grid.ifft(y.copy())
    f = lambda z, fields: batched_rhs_core(grid, z, *fields, params, dealias)
    stage = lambda k, h: (lambda z: f(z, grid.ifft(z.copy())))(y + h * k)
    k1 = f(y, ys)
    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)
    new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return grid.ifft(np.concatenate([new, [-grid.inv_k2 * (new[0] - new[1])]]))


def perturbation_rk4_step(grid: GridSpec, ys, params, dt, dealias=True) -> list:
    """One RK4 step of the perturbation form composed in real space, the
    textbook way: k1 ... k4 of dynamics.rhs_perturbation (each a forward
    transform of its stage, the RHS and an inverse transform) and y + dt/6
    (k1 + 2 k2 + 2 k3 + k4)."""

    def f(ys):
        ps = PerturbationState.from_fields(*(ScalarField(grid, a) for a in ys))
        return [r.values for r in rhs_perturbation(ps, params, dealias)]

    k1 = f(ys)
    k2 = f([a + 0.5 * dt * k for a, k in zip(ys, k1)])
    k3 = f([a + 0.5 * dt * k for a, k in zip(ys, k2)])
    k4 = f([a + dt * k for a, k in zip(ys, k3)])
    return [
        a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(ys, k1, k2, k3, k4)
    ]


def perturbation_imex1_step(grid: GridSpec, ys, params, dt, dealias=True) -> list:
    """One IMEX1 step of the perturbation form composed in real space: the
    forward transform of ys, the explicit rates f of
    dynamics._rhs_perturbation_core with full transforms, the system (I +
    dt |k|^2 M) y_new = y + dt (f + |k|^2 M y), M = _linear_block(params,
    False), solved mode by mode with numpy.linalg.solve, the mask when
    dealias, and the inverse transform."""
    spec_y = grid.fft(np.stack(ys))
    f = _rhs_perturbation_core(grid, spec_y, params, values=ys)
    m = _linear_block(params, False)
    k2 = grid.k2.reshape(-1, 1)
    y = spec_y.reshape(3, -1).T
    b = y + dt * (f.reshape(3, -1).T + k2 * (y @ m.T))
    lhs = np.eye(3) + (dt * k2)[:, :, None] * m
    new = np.linalg.solve(lhs, b[:, :, None])[:, :, 0]
    if dealias:
        new *= grid.dealias_mask.reshape(-1, 1)
    return list(grid.ifft(np.ascontiguousarray(new.T).reshape(spec_y.shape)))
