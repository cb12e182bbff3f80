"""
Numerical verification of the variational structure.

The entropy functional S, viewed through the accumulated-flux variables
(state changes enter as delta_field = -div(delta_J)), has closed-form
functional derivatives: the conservative forces

    f_p = -grad[log p - c_p log theta + phi/(2 theta) + G((p-n)/(2 theta))],
    f_n = -grad[log n - c_n log theta - phi/(2 theta) - G((p-n)/(2 theta))],
    f_e =  grad(1/theta),

with G the torus Green's operator of -Delta (zero-mean gauge, constant
mode filtered).  The quadratic entropy-production functional, with the
heat flux eliminated in favor of the energy flux, yields the dissipative
forces

    f_p = j_p/(D_p p theta) - [(c_p+1) theta + phi] R + grad(P)/...,
    f_n = j_n/(D_n n theta) - [(c_n+1) theta - phi] R - ...,
    f_e = R = q/(k theta^2),

whose nonlocal part is (1/2) grad(solve(div(phi R) + R.grad(phi))) with
alternating sign between the two species.  Both closed forms are built
here as the *exact* adjoints of the discretized functionals (spectral
derivatives, pointwise algebra, self-adjoint Green's operator), so the
central-difference checks converge to them at second order in the probe
size all the way down to rounding.

Inserting the Darcy/Fourier constitutive fluxes makes conservative and
dissipative forces coincide identically; the report's
force_balance_residual measures the discrete remainder of that identity.
A force set is the component lists of its three flows, in the probe's
flow order (p, n, e): _conservative_flows yields them one at a time, and
so does _dissipative_flows, which writes each force over its flux.

varcheck_report builds each quantity once, from data it already holds,
and no full grid lives longer than the phase that reads it.  The probe
(FlowMapProbe) is drawn in its band |m_i| <= kmax: white noise on the
smallest grid whose Nyquist mode lies above the band (8^3 at kmax 1 and
2: 4608 normals per probe in 3-D, at any n), cut to the band and
scattered into the n-grid's band (random_probe).  It keeps each
vector's in-band coefficients, 162 complex numbers at kmax 1 in 3-D, and
rebuilds a component on demand with one band inverse transform
(GridSpec band transforms with band=kmax).  The phases, in order, with
their tracemalloc peaks in full grids above the report's entry at 32^3
(at 64^3 none is higher, and none lower by more than 0.55):

* the Darcy pass (fields._darcy_pass), 20.3: the flux block (j_p, j_n),
  grad(phi) and q0 = -k grad(theta); eliminating the heat flux from the
  constitutive j_e returns q0 by construction, so the report takes it as
  it is and solves no exchange flux for it;
* the kernel source div(phi R) + R.grad(phi), R = q0/(k theta^2), one
  component of R at a time (_kernel_source), 17.7;
* the probe (random_probe), 19.35: the n-grid band spectrum of a vector
  and its inverse, which gives the component peaks;
* the probe's ion directions dJ_p and dJ_n, rebuilt once for the scan,
  and its heat flux q1 eliminated from the coefficients over grad(phi)'s
  memory (_probe_heat_flux), 22.3;
* the dissipative scan, which sums |j_p|^2, |j_n|^2 and |q|^2 one moved
  component at a time, 23.05, the report's peak: j0, q0, q1, the kernel
  source and the two directions are alive (19 grids);
* the kernel's solve and gradient, then the forces one flow at a time
  (_force_pairings), 20.2: each flow's conservative force, then its
  dissipative force over its flux (R over q0 first), then each probe
  component rebuilt once adds its terms to both pairings and the
  balance maxima, in the order and with the bits of pairing and
  balancing whole force sets;
* the conservative scan, 17.1: the entropy density at +eps is alive
  while the one at -eps is built.

A report transforms 85 real fields (tests/test_varcheck.py
TestSharedWork::test_report_cost): the probe 18, the Darcy pass 15, the
dissipative kernel 10, the scan's directions 6, the probe's heat-flux
elimination 7, the conservative forces 14, the components the forces
pair with 9 and the conservative scan 6.  Every probe inverse scatters
in-band coefficients into a zero spectrum first (_band_inverse).  The
probe's 9 forward transforms are of its draw grid's noise (8^3 at kmax
1 and 2), the other 76 of n-grid fields.  The probe's 9 inverses, the
18 rebuilt components and phi_t and grad(phi_t) are kmax band inverses,
about half a full transform each at kmax 1.

Both scans split what is linear in the probe.  The eliminated heat flux

    q = j_e - a j_p - b j_n - X(j_p - j_n),   a, b = energy weights,

is linear in the flux triple: a, b and grad(phi) are fixed by the state,
and the exchange flux X(w) = (phi_t grad(phi) - phi grad(phi_t))/2 with
phi_t = Delta^{-1} div(w) is linear in w.  So the report eliminates q1
for the probe dJ once, with phi_t = -G(div dJ_p - div dJ_n) and
grad(phi_t) from the probe's coefficients, and the dissipative scan
evaluates the functional at (j0 + eps dJ, q0 + eps q1).  This split is
exact, not an approximation:
q0 + eps q1 and the elimination of j0 + eps dJ are the same discrete
quantity and differ only in rounding, and the functional is then
evaluated by the same quadratic density.  The conservative scan moves
(p, n, e) by -eps (div dJ_p, div dJ_n, div dJ_e), and the potential
phi = G(p - n) that the entropy functional derives is linear in the
move: phi0 = G(p - n) once and phi0 - eps G(div dJ_p - div dJ_n) at
every eps.  The three divergences and G(div dJ_p - div dJ_n) come from
the probe's coefficients in one 4-row band inverse transform.  Each
evaluation works on raw arrays through _entropy_density, the entropy
density with the functional's neutrality and temperature guards, and the
scan integrates the pointwise difference eta(+eps) - eta(-eps) with one
correctly rounded sum per eps, not two totals that it then subtracts.
Two nearby densities subtract exactly (Sterbenz); elsewhere the
subtraction rounds by at most an ulp of the two densities, no more than
their own pointwise rounding.  The one sum then rounds at an ulp of the
difference instead of an ulp of each total, so the central difference
keeps the accuracy of the difference of two totals (at 64^3 the fds
moved by 2e-16 to 1.4e-13 relative, the larger at the smaller eps).

Sign bookkeeping, fixed once and unit-tested: the published closed-form
forces pair as  sum_flows <f, dJ> = d/d_eps S(perturbed)  (equivalently
they are the derivatives of +S along the flow maps); this is the unique
convention under which force balance reproduces q = -k grad(theta) and
the Darcy fluxes.  The heat-flux elimination and the kernel signs follow
the energy-flux bookkeeping (the first law), whose species coefficients
are [(c_p+1) theta + phi] on j_p and [(c_n+1) theta - phi] on j_n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    PhysParams,
    PositivityError,
    State,
    _darcy_pass,
    _deviation,
    _entropy_arrays,
    energy_density,
    energy_weight,
)
from .grid import GridSpec, ScalarField, divergence_arrays, grad_arrays, integrate
from .poisson import greens_apply, solve_array

DEFAULT_EPS_SCAN = (1e-3, 1e-4, 1e-5)


def _band_inverse(grid: GridSpec, kmax: int, coefs, out=None, spec=None) -> np.ndarray:
    """The fields whose spectrum is coefs on the modes of band_mask(kmax),
    in its order along the last axis of coefs, and zero elsewhere: coefs
    scattered into a zero spectrum, then one band inverse transform
    (GridSpec.ifft with band=kmax) into out.  spec is a spectral scratch
    of that shape, which the call overwrites; None makes a new one."""
    if spec is None:
        spec = np.zeros(coefs.shape[:-1] + grid.spectral_shape, dtype=complex)
    else:
        spec.fill(0.0)
    spec[..., grid.band_mask(kmax)] = coefs
    return grid.ifft(spec, out=out, band=kmax)


@dataclass(frozen=True)
class FlowMapProbe:
    """Perturbation directions dJ_p, dJ_n and dJ_e for the three flow maps
    (flows 0, 1 and 2); the central differences along them step by
    DEFAULT_EPS_SCAN.

    The probe holds no grid of values.  kmax is the band the directions
    are drawn in, coefs[k] holds flow k's unscaled in-band coefficients,
    one (dim, m) array for the m modes of band_mask(kmax) in its order,
    and scales[k][i] is the factor that brings component i of flow k to
    the probe's amplitude on grid.  component() rebuilds a direction from
    them.  random_probe draws the coefficients on a grid that may be
    smaller than grid; they are those of grid's band all the same."""

    grid: GridSpec = field(repr=False)
    kmax: int
    coefs: tuple = field(repr=False, compare=False)
    scales: tuple

    def component(self, k: int, i: int, out=None, spec=None) -> np.ndarray:
        """Component i of flow k: one band inverse transform (GridSpec.ifft
        with band=kmax) of its coefficients, scattered into a spectrum that
        vanishes outside the band, then scaled in place.  These are the
        bits of the batched band inverse of the flow's coefficients, scaled,
        which is how random_probe drew it.  out is the grid it is written
        into, and spec a spectral scratch that the call overwrites; None
        makes a new one."""
        vals = _band_inverse(self.grid, self.kmax, self.coefs[k][i], out, spec)
        vals *= self.scales[k][i]
        return vals

    @cached_property
    def grad_mult(self) -> list[np.ndarray]:
        """The rows of grid.grad_mult on the modes of band_mask(kmax), in
        its order."""
        g = self.grid
        mask = g.band_mask(self.kmax)
        return [np.broadcast_to(m, g.spectral_shape)[mask] for m in g.grad_mult]

    def divergences(self) -> list[np.ndarray]:
        """The in-band coefficients of div(dJ_p), div(dJ_n) and div(dJ_e),
        in the order of band_mask(kmax), from the scaled coefficients."""
        mult = self.grad_mult
        divs = []
        for coef, scales in zip(self.coefs, self.scales):
            scaled = [c * scale for c, scale in zip(coef, scales)]
            div = mult[0] * scaled[0]
            for m, c in zip(mult[1:], scaled[1:]):
                div += m * c
            divs.append(div)
        return divs


def random_probe(grid: GridSpec, seed: int, kmax: int = 2, amplitude: float = 0.1) -> FlowMapProbe:
    """Band-limited, dealiased probe directions from Philox(seed).  Each
    vector is white noise on the draw grid, the smallest GridSpec that
    resolves the band strictly below its Nyquist mode: size m = max(8, the
    smallest power of two above 2 kmax), capped at n.  Its components are
    drawn in one call, which gives the same numbers as drawing them one at
    a time, and forward transformed in its band (GridSpec.fft with
    band=kmax).  Its band_mask(kmax) coefficients are the vector's,
    scattered into the band of grid: band_mask lists the modes in the same
    order on both grids, and the band lies below the draw grid's Nyquist
    mode, so the scattered spectrum is Hermitian.  When m = n this is the
    draw of grid itself.  The probe keeps each vector's unscaled in-band
    coefficients and each component's scale, amplitude over its peak on
    grid, which one band inverse transform of the scattered spectrum gives
    and which then dies."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    m = max(8, 1 << (2 * kmax).bit_length())
    draw = grid if m >= grid.n else GridSpec(grid.dim, m, grid.length)
    drawn = draw.band_mask(kmax)

    def vec():
        coefs = draw.fft(gen.standard_normal((grid.dim,) + draw.shape), band=kmax)[:, drawn]
        comps = _band_inverse(grid, kmax, coefs)
        peaks = np.abs(comps, out=comps).reshape(grid.dim, -1).max(axis=1)
        return coefs, tuple(float(amplitude / peak) if peak > 0 else 1.0 for peak in peaks)

    coefs, scales = zip(*(vec() for _ in range(3)))
    return FlowMapProbe(grid, kmax, coefs, scales)


# -- entropy functional and conservative forces -------------------------------


def _temperature(p, n, e, rho, phi, params: PhysParams):
    """theta = (e - rho phi/2)/(c_p p + c_n n), from the raw arrays of the
    extensive variables, rho = p - n and phi = G(rho)."""
    return (e - 0.5 * rho * phi) / (params.c_p * p + params.c_n * n)


def _entropy_density(p, n, e, rho, phi, params: PhysParams) -> np.ndarray:
    """The entropy density of the raw arrays (p, n, e) with rho = p - n and
    phi = G(rho), the temperature derived from them: the integrand of the
    entropy functional that the conservative scan evaluates.

    Raises ValueError if rho is not neutral and PositivityError if the
    derived temperature is not positive.
    """
    if abs(float(rho.mean())) > 1e-10:
        raise ValueError("entropy functional requires a neutral (p, n) pair")
    theta = _temperature(p, n, e, rho, phi, params)
    if float(theta.min()) <= 0.0:
        raise PositivityError(f"derived temperature min {theta.min():.3e} <= 0")
    return _entropy_arrays(p, n, theta, params)


def _conservative_flows(s: State, params: PhysParams):
    """The closed-form conservative forces of s one flow at a time: the
    component lists of f_p, f_n and f_e, in that order."""
    g = s.grid
    n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    kernel = greens_apply(g, (p - n) / (2.0 * th))
    yield _neg_grad(g, np.log(p) - params.c_p * np.log(th) + phi / (2.0 * th) + kernel)
    yield _neg_grad(g, np.log(n) - params.c_n * np.log(th) - phi / (2.0 * th) - kernel)
    del kernel
    yield grad_arrays(g, 1.0 / th)


def _neg_grad(grid: GridSpec, values: np.ndarray) -> list[np.ndarray]:
    """-grad(values), negated in place."""
    comps = grad_arrays(grid, values)
    for c in comps:
        np.negative(c, out=c)
    return comps


# -- entropy production functional and dissipative forces ---------------------


def _kernel_source(s: State, params: PhysParams, q, gphi) -> np.ndarray:
    """div(phi R) + R.grad(phi) with R = q/(k theta^2): the source whose
    solve and gradient give the dissipative forces' nonlocal kernel; gphi
    is grad(phi) of s.  R is formed one component at a time, once for the
    divergence (divergence_arrays takes phi R lazily) and once for the dot
    product, with the bits of forming it whole."""
    g = s.grid
    phi = s.phi.values
    den = params.k * s.theta.values**2
    div = divergence_arrays(g, (phi * (q[i] / den) for i in range(g.dim)))
    return div + sum(q[i] / den * gphi[i] for i in range(g.dim))


def _probe_heat_flux(s: State, params: PhysParams, probe: FlowMapProbe, dJ_p, dJ_n, gphi):
    """The heat flux q1 eliminated from the probe's flux triple by the
    energy-flux bookkeeping,

        q1 = dJ_e - a dJ_p - b dJ_n - (phi_t grad(phi) - phi grad(phi_t))/2,

    with a, b the energy weights, written over gphi, grad(phi) of s, one
    component at a time.  The probe's potential rate
    phi_t = -G(div dJ_p - div dJ_n) and each component of grad(phi_t) come
    from its coefficients in band inverse transforms; dJ_e's component is
    rebuilt into gphi's once the exchange flux has read it.  One spectrum
    serves every transform, and between them its memory is the products'
    scratch."""
    g, kmax = s.grid, probe.kmax
    th, phi = s.theta.values, s.phi.values
    hat_p, hat_n, _ = probe.divergences()
    phi_t_hat = -g.inv_k2[g.band_mask(kmax)] * (hat_p - hat_n)
    spec = np.empty(g.spectral_shape, dtype=complex)
    tmp = spec.view(float).reshape(-1)[: th.size].reshape(g.shape)
    phi_t = _band_inverse(g, kmax, phi_t_hat, spec=spec)
    exchange = np.empty(g.shape)
    for i, m in enumerate(probe.grad_mult):
        _band_inverse(g, kmax, m * phi_t_hat, out=exchange, spec=spec)  # d_i phi_t
        exchange *= phi
        q1 = np.multiply(phi_t, gphi[i], out=gphi[i])
        np.subtract(q1, exchange, out=exchange)
        exchange *= 0.5
        probe.component(2, i, out=q1, spec=spec)
        for k, dJ in enumerate((dJ_p[i], dJ_n[i])):
            q1 -= np.multiply(energy_weight(th, phi, params, k, out=tmp), dJ, out=tmp)
        q1 -= exchange
    return gphi


def _sum_sq(comps):
    """The bits of sum(c**2 for c in comps), accumulated in place: comps
    may build its components lazily, and then one is alive at a time."""
    comps = iter(comps)
    acc = next(comps) ** 2
    for c in comps:
        acc += c**2
    return acc


def _dissipation(s: State, params: PhysParams, j_p, j_n, q) -> float:
    """The quadratic entropy production of (j_p, j_n) and the heat flux q,
    each an iterable of components: the integral of

        |j_p|^2/(D_p p theta) + |j_n|^2/(D_n n theta) + |q|^2/(k theta^2),

    summed in that order with the bits of fields._production_density.  Each
    term is divided as soon as its sum of squares is complete, so one sum
    is alive next to the density."""
    th = s.theta.values
    out = _sum_sq(j_p)
    out /= params.D_p * s.p.values * th
    term = _sum_sq(j_n)
    term /= params.D_n * s.n.values * th
    out += term
    del term
    term = _sum_sq(q)
    term /= params.k * th**2
    out += term
    return integrate(ScalarField(s.grid, out))


def _dissipative_flows(s: State, params: PhysParams, j_p, j_n, q, kernel):
    """The closed-form dissipative forces of the fluxes (j_p, j_n) and the
    eliminated heat flux q, one flow at a time in flow order, each written
    in place over its flux: R = q/(k theta^2) over q first, then f_p over
    j_p and f_n over j_n as they are yielded, then R.  They are the
    half-derivatives of the entropy production, linear in the fluxes:

        f_p = j_p/(D_p p theta) - a R + kernel/2,
        f_n = j_n/(D_n n theta) - b R - kernel/2,

    a, b the energy weights and kernel the gradient of the solved
    _kernel_source, with the bits of forming each force whole."""
    th, phi = s.theta.values, s.phi.values
    den = params.k * th**2
    for qi in q:
        qi /= den
    del den
    for k, (j, D, c, combine) in enumerate(((j_p, params.D_p, s.p.values, np.add),
                                            (j_n, params.D_n, s.n.values, np.subtract))):
        den = np.multiply(D, c)
        den *= th
        for ji in j:
            ji /= den
        w = energy_weight(th, phi, params, k, out=den)
        tmp = np.empty_like(th)
        for ji, ri, ki in zip(j, q, kernel):
            ji -= np.multiply(w, ri, out=tmp)
            combine(ji, np.multiply(0.5, ki, out=tmp), out=ji)
        del den, w, tmp  # the flow is yielded with no scratch alive
        yield j
    yield q


# -- closed forms against the probe --------------------------------------------


def _force_pairings(s: State, params: PhysParams, probe: FlowMapProbe, j_p, j_n, q, kernel):
    """(conservative pairing, dissipative pairing, force balance) of s.

    The forces stream one flow at a time, in flow order (p, n, e): the
    conservative force of a flow (_conservative_flows), then its
    dissipative force (_dissipative_flows, over its flux), then each probe
    component is rebuilt once and adds its terms to both pairings,
    sum over the flows of <f, dJ>, and its deviation to the balance's
    running maxima (fields._deviation), in the order of pairing and
    balancing whole force sets, so with their bits.  The flow dies before
    the next is built.  The balance is the max deviation between the
    dissipative and conservative forces relative to the largest
    conservative component, zero at equilibrium: with the constitutive
    fluxes inserted the two coincide identically, so it is the discrete
    remainder."""
    g = s.grid
    con_terms, dis_terms = [], []
    dev = scale = 0.0
    con_flows = _conservative_flows(s, params)
    dis_flows = _dissipative_flows(s, params, j_p, j_n, q, kernel)
    for k in range(3):
        # next() rather than zip: zip's result tuple would keep the last
        # flow alive while the next one is built
        fc, fd = next(con_flows), next(dis_flows)
        spec = np.empty(g.spectral_shape, dtype=complex)
        dJ, tmp = np.empty(g.shape), np.empty(g.shape)
        con = dis = 0
        for i, (cc, cd) in enumerate(zip(fc, fd)):
            d = probe.component(k, i, out=dJ, spec=spec)
            con = con + np.multiply(cc, d, out=tmp).sum()
            dis = dis + np.multiply(cd, d, out=tmp).sum()
            dev, scale = _deviation(dev, scale, cd, cc, tmp)
        con_terms.append(float(con * g.cell_volume))
        dis_terms.append(float(dis * g.cell_volume))
        del fc, fd, cc, cd, d, spec, dJ, tmp
    return sum(con_terms), sum(dis_terms), dev / scale if scale else 0.0


def _scan_result(pairing: float, fds) -> dict:
    """The scan table of the central differences fds, one per entry of
    DEFAULT_EPS_SCAN, against the probe's pairing with the closed-form
    forces, with the best error and the convergence order."""
    rows = [
        {"eps": eps, "fd": fd, "rel_err": abs(fd - pairing) / max(abs(pairing), 1e-300)}
        for eps, fd in zip(DEFAULT_EPS_SCAN, fds)
    ]
    errs = [r["rel_err"] for r in rows]
    # a quadratic functional is differentiated exactly by central
    # differences; every scan entry then sits at the rounding floor and a
    # convergence order is not observable (nor needed)
    quadratic_exact = max(errs) < 1e-8
    order = None
    if not quadratic_exact:
        e0, e1 = errs[0], errs[1]
        eps0, eps1 = rows[0]["eps"], rows[1]["eps"]
        if e0 > 0 and e1 > 0:
            order = math.log(e0 / e1) / math.log(eps0 / eps1)
    return {
        "pairing": pairing,
        "scan": rows,
        "best_rel_err": min(errs),
        "order_estimate": order,
        "quadratic_exact": quadratic_exact,
    }


def _conservative_scan(s: State, params: PhysParams, probe: FlowMapProbe) -> list[float]:
    """Central differences of the entropy functional along the probe, one
    per entry of DEFAULT_EPS_SCAN.

    The moved state is (p - eps div_p, n - eps div_n, e - eps div_e), and
    phi = G(p - n) is linear in it, so the scan splits phi as the
    dissipative scan splits q: phi0 = G(p - n) once and
    phi = phi0 - eps G(div_p - div_n).  The probe divergences and
    G(div_p - div_n) come from the probe's coefficients in one batched
    band inverse transform.  Each entry is one correctly rounded sum of
    the density difference eta(+eps) - eta(-eps) over 2 eps; both
    densities run the entropy functional's guards."""
    g = s.grid
    p0, n0 = s.p.values, s.n.values
    e0 = energy_density(s, params).values
    phi0 = greens_apply(g, p0 - n0)
    hat_p, hat_n, hat_e = probe.divergences()
    inv_k2 = g.inv_k2[g.band_mask(probe.kmax)]
    div_p, div_n, div_e, g_div = _band_inverse(
        g, probe.kmax, np.stack([hat_p, hat_n, hat_e, inv_k2 * (hat_p - hat_n)]))

    def eta_at(eps: float) -> np.ndarray:
        p = p0 - eps * div_p
        n = n0 - eps * div_n
        return _entropy_density(p, n, e0 - eps * div_e, p - n, phi0 - eps * g_div, params)

    fds = []
    for eps in DEFAULT_EPS_SCAN:
        diff = eta_at(eps)
        diff -= eta_at(-eps)
        # fsum: the difference is divided by probe sizes down to 1e-5, so its
        # quadrature must stay at one ulp; it is correctly rounded, so
        # reading the buffer directly (no list) keeps the bits
        fds.append(math.fsum(memoryview(diff.ravel())) * g.cell_volume / (2.0 * eps))
    return fds


def _dissipative_scan(s: State, params: PhysParams, j_p, j_n, q0, dJ_p, dJ_n, q1) -> list[float]:
    """Half central differences of the entropy-production functional
    around the fluxes (j_p, j_n) with eliminated heat flux q0, one per
    entry of DEFAULT_EPS_SCAN, along the probe's ion directions dJ_p, dJ_n
    and its eliminated heat flux q1 (_probe_heat_flux).

    q is linear in the fluxes, so the functional is evaluated at
    (j0 + eps*dJ, q0 + eps*q1) for every eps, one moved component at a
    time."""

    def D_at(eps: float) -> float:
        moved = lambda base, step: (b + eps * d for b, d in zip(base, step))
        return _dissipation(s, params, moved(j_p, dJ_p), moved(j_n, dJ_n), moved(q0, q1))

    return [0.5 * (D_at(eps) - D_at(-eps)) / (2.0 * eps) for eps in DEFAULT_EPS_SCAN]


def varcheck_report(
    s: State,
    params: PhysParams,
    seed: int = 0,
    fd_tol: float = 1e-6,
    balance_tol: float = 1e-8,
    probe_kmax: int = 2,
) -> dict:
    """Run both functional-derivative checks and the force balance on one
    state; the report carries the full eps-scan tables and verdicts.  See
    the module docstring for the order of its phases."""
    g = s.grid
    # the eliminated heat flux of the constitutive j_e is q0 = -k grad(theta)
    # by construction, so the report takes it from the Darcy pass
    j, q0, gphi = _darcy_pass(s, params)
    j_p, j_n = list(j[:, 0]), list(j[:, 1])
    src = _kernel_source(s, params, q0, gphi)
    probe = random_probe(g, seed=seed, kmax=probe_kmax)
    spec = np.empty(g.spectral_shape, dtype=complex)
    dJ_p, dJ_n = ([probe.component(k, i, spec=spec) for i in range(g.dim)] for k in (0, 1))
    del spec
    q1 = _probe_heat_flux(s, params, probe, dJ_p, dJ_n, gphi)
    del gphi
    dis_fds = _dissipative_scan(s, params, j_p, j_n, q0, dJ_p, dJ_n, q1)
    del dJ_p, dJ_n, q1
    kernel = grad_arrays(g, solve_array(g, src))
    del src
    con_pairing, dis_pairing, balance = _force_pairings(s, params, probe, j_p, j_n, q0, kernel)
    del j, j_p, j_n, q0, kernel
    con = _scan_result(con_pairing, _conservative_scan(s, params, probe))
    dis = _scan_result(dis_pairing, dis_fds)
    passed = (
        con["best_rel_err"] <= fd_tol
        and dis["best_rel_err"] <= fd_tol
        and balance <= balance_tol
    )
    return {
        "conservative": con,
        "dissipative": dis,
        "force_balance_residual": balance,
        "thresholds": {"fd_rel_tol": fd_tol, "balance_tol": balance_tol},
        "probe_seed": seed,
        "pass": bool(passed),
    }


def write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
