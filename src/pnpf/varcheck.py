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
flow order (p, n, e): _conservative_flows yields them one at a time and
_dissipative_forces returns (f_p, f_n, R); _pairing and _balance read
either.

varcheck_report builds each quantity once, from data it already holds,
and holds at most one closed-form force set at a time, next to the
probe.  The probe is drawn in its band |m_i| <= kmax and transformed
there (GridSpec band transforms with band=kmax), and it keeps its scaled
in-band coefficients.  One Darcy pass (fields._darcy_pass) gives the flux
block (j_p, j_n), grad(phi) and q0 = -k grad(theta): eliminating the heat
flux from the constitutive j_e returns q0 by construction, so the report
takes it as it is and solves no exchange flux for it.  The dissipative
scan runs first and sums |j_p|^2, |j_n|^2 and |q|^2 one moved component
at a time.  The report then builds the dissipative forces from the
scan's inputs j0, q0 and grad(phi), which die next, the flux block
included, and takes the dissipative pairing.  The conservative forces
come one flow at a time: each flow adds its pairing term and its
balance maxima in flow order, the bits of _pairing and _balance over
the whole set, and dies before the next.  The conservative scan comes
last.  The peak sits in the dissipative closed form: while f_n is
built, the probe, j0, q0, grad(phi), R, the kernel gradient and f_p are
alive, 35.05 full grids above entry at 32^3 (tracemalloc).  Building
each force set whole, next to the flux set and the other force set,
took 49.0.  A report transforms 70 real fields (tests/test_varcheck.py
TestSharedWork::test_report_cost): the probe 18, the Darcy pass 15,
the probe's heat-flux elimination 7, the dissipative kernel 10, the
conservative forces 14 and the conservative scan 6.

Both scans split what is linear in the probe.  The eliminated heat flux

    q = j_e - a j_p - b j_n - X(j_p - j_n),   a, b = energy weights,

is linear in the flux triple: a, b and grad(phi) are fixed by the state,
and the exchange flux X(w) = (phi_t grad(phi) - phi grad(phi_t))/2 with
phi_t = Delta^{-1} div(w) is linear in w.  So the dissipative scan
eliminates q1 for the probe dJ once and evaluates the functional at
(j0 + eps dJ, q0 + eps q1).  This split is exact, not an approximation:
q0 + eps q1 and the elimination of j0 + eps dJ are the same discrete
quantity and differ only in rounding, and the functional is then
evaluated by the same quadratic density.  The conservative scan moves
(p, n, e) by -eps (div dJ_p, div dJ_n, div dJ_e), and the potential
phi = G(p - n) that the entropy functional derives is linear in the
move: phi0 = G(p - n) once and phi0 - eps G(div dJ_p - div dJ_n) at
every eps.  The three divergences and G(div dJ_p - div dJ_n) come from
the probe's coefficients in one 4-row band inverse transform, and each
evaluation works on raw arrays through _entropy_total, the quadrature
of the entropy functional with its neutrality and temperature guards.

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

import numpy as np

from .fields import (
    PhysParams,
    PositivityError,
    State,
    _darcy_pass,
    _deviation,
    _entropy_arrays,
    _production_density,
    energy_density,
    energy_weights,
    exchange_arrays,
)
from .grid import GridSpec, VectorField, divergence_arrays, grad_arrays, integrate
from .poisson import greens_apply, solve_array

DEFAULT_EPS_SCAN = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class FlowMapProbe:
    """Perturbation directions for the three flow maps; the central
    differences along them step by DEFAULT_EPS_SCAN.

    kmax is the band the directions are drawn in, and coefs holds each
    vector's scaled in-band coefficients, one (dim, m) array per flow for
    the m modes of band_mask(kmax): the directions are their inverse
    transforms, up to rounding."""

    dJ_p: VectorField
    dJ_n: VectorField
    dJ_e: VectorField
    kmax: int
    coefs: tuple = field(repr=False, compare=False)

    def flows(self):
        """The components of dJ_p, dJ_n and dJ_e, in that order."""
        return self.dJ_p.components, self.dJ_n.components, self.dJ_e.components

    def divergences(self, grid: GridSpec) -> list[np.ndarray]:
        """The in-band coefficients of div(dJ_p), div(dJ_n) and div(dJ_e),
        in the order of band_mask(kmax)."""
        mask = grid.band_mask(self.kmax)
        mult = [np.broadcast_to(m, grid.spectral_shape)[mask] for m in grid.grad_mult]
        divs = []
        for coef in self.coefs:
            div = mult[0] * coef[0]
            for m, c in zip(mult[1:], coef[1:]):
                div += m * c
            divs.append(div)
        return divs


def random_probe(grid: GridSpec, seed: int, kmax: int = 2, amplitude: float = 0.1) -> FlowMapProbe:
    """Band-limited, dealiased probe directions from Philox(seed).  Each
    vector's components are drawn in one call, which gives the same
    numbers as drawing them one at a time, and filtered in one forward
    and one inverse band transform (GridSpec.fft with band=kmax); the band
    cut and the scaling work in place, so the batch adds no spectrum or
    grid of its own.  The probe keeps each vector's in-band coefficients,
    scaled as its components are."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    mask = grid.band_mask(kmax)

    def vec():
        spec = grid.fft(gen.standard_normal((grid.dim,) + grid.shape), band=kmax)
        spec *= mask
        coefs = spec[:, mask]
        comps = grid.ifft(spec, band=kmax)
        del spec
        for vals, coef in zip(comps, coefs):
            peak = np.abs(vals).max()
            if peak > 0:
                vals *= amplitude / peak
                coef *= amplitude / peak
        return VectorField(grid, tuple(comps)), coefs

    (dJ_p, dJ_n, dJ_e), coefs = zip(*(vec() for _ in range(3)))
    return FlowMapProbe(dJ_p, dJ_n, dJ_e, kmax, coefs)


# -- entropy functional and conservative forces -------------------------------


def _temperature(p, n, e, rho, phi, params: PhysParams):
    """theta = (e - rho phi/2)/(c_p p + c_n n), from the raw arrays of the
    extensive variables, rho = p - n and phi = G(rho)."""
    return (e - 0.5 * rho * phi) / (params.c_p * p + params.c_n * n)


def _entropy_total(grid: GridSpec, p, n, e, rho, phi, params: PhysParams) -> float:
    """Total entropy of the raw arrays (p, n, e) with rho = p - n and
    phi = G(rho), the temperature derived from them: the entropy
    functional that the conservative scan evaluates.

    Raises ValueError if rho is not neutral and PositivityError if the
    derived temperature is not positive.
    """
    if abs(float(rho.mean())) > 1e-10:
        raise ValueError("entropy functional requires a neutral (p, n) pair")
    theta = _temperature(p, n, e, rho, phi, params)
    if float(theta.min()) <= 0.0:
        raise PositivityError(f"derived temperature min {theta.min():.3e} <= 0")
    eta = _entropy_arrays(p, n, theta, params)
    # fsum: the central differences divide S by probe sizes down to 1e-5,
    # so accumulation error in the quadrature must stay at one ulp; it is
    # correctly rounded, so reading the buffer directly (no list) keeps the bits
    return math.fsum(memoryview(eta.ravel())) * grid.cell_volume


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


def _eliminate_heat_flux(s: State, params: PhysParams, j_p, j_n, j_e, gphi):
    """q from (j_e, j_p, j_n) by the energy-flux bookkeeping, with the
    potential rate solved from the continuity equations; gphi is
    grad(phi) of s."""
    g = s.grid
    a, b = energy_weights(s.theta.values, s.phi.values, params)
    _, exchange = exchange_arrays(g, s.phi.values, gphi, j_p, j_n)
    return [j_e[i] - a * j_p[i] - b * j_n[i] - exchange[i] for i in range(g.dim)]


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
    each an iterable of components."""
    return integrate(_production_density(s, params, _sum_sq(j_p), _sum_sq(j_n), _sum_sq(q)))


def _dissipative_forces(s: State, params: PhysParams, j_p, j_n, gphi, q):
    """The closed-form dissipative forces (f_p, f_n, R) of the fluxes
    (j_p, j_n) and the eliminated heat flux q, as component lists: the
    half-derivatives of the entropy production, linear in the fluxes.
    gphi is grad(phi) of s."""
    g = s.grid
    th, phi = s.theta.values, s.phi.values
    R = [q[i] / (params.k * th**2) for i in range(g.dim)]
    r_dot_gphi = sum(R[i] * gphi[i] for i in range(g.dim))
    div_phi_r = divergence_arrays(g, [phi * R[i] for i in range(g.dim)])
    kernel = grad_arrays(g, solve_array(g, div_phi_r + r_dot_gphi))
    del r_dot_gphi, div_phi_r
    a, b = energy_weights(th, phi, params)
    f_p = [
        j_p[i] / (params.D_p * s.p.values * th) - a * R[i] + 0.5 * kernel[i]
        for i in range(g.dim)
    ]
    del a  # out of f_n's peak
    f_n = [
        j_n[i] / (params.D_n * s.n.values * th) - b * R[i] - 0.5 * kernel[i]
        for i in range(g.dim)
    ]
    return f_p, f_n, R


def _balance(con_flows, dis_flows) -> float:
    """Max deviation between the conservative and dissipative flows,
    relative to the largest conservative component; zero at equilibrium.
    With the constitutive fluxes inserted into the dissipative forces the
    two coincide identically, so this is the discrete remainder.  con_flows
    may build its flows lazily."""
    dev = scale = 0.0
    for fc, fd in zip(con_flows, dis_flows):
        for cc, cd in zip(fc, fd):
            dev, scale = _deviation(dev, scale, cd, cc)
    return dev / scale if scale else 0.0


# -- central-difference functional-derivative checks --------------------------


def _pair(grid: GridSpec, force, probe) -> float:
    """<force, probe> of one flow, over its components."""
    return float(sum((fc * pc).sum() for fc, pc in zip(force, probe)) * grid.cell_volume)


def _pairing(grid: GridSpec, flows, probe: FlowMapProbe) -> float:
    """sum over the flows of <f, dJ>: the closed-form side of a scan; flows
    may build its flows lazily."""
    return sum(_pair(grid, f, dJ) for f, dJ in zip(flows, probe.flows()))


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
    band inverse transform."""
    g = s.grid
    p0, n0 = s.p.values, s.n.values
    e0 = energy_density(s, params).values
    phi0 = greens_apply(g, p0 - n0)
    mask = g.band_mask(probe.kmax)
    hat_p, hat_n, hat_e = probe.divergences(g)
    spec = np.zeros((4,) + g.spectral_shape, dtype=complex)
    spec[:, mask] = hat_p, hat_n, hat_e, g.inv_k2[mask] * (hat_p - hat_n)
    div_p, div_n, div_e, g_div = g.ifft(spec, band=probe.kmax)
    del spec

    def S_at(eps: float) -> float:
        p = p0 - eps * div_p
        n = n0 - eps * div_n
        return _entropy_total(g, p, n, e0 - eps * div_e, p - n, phi0 - eps * g_div, params)

    return [(S_at(eps) - S_at(-eps)) / (2.0 * eps) for eps in DEFAULT_EPS_SCAN]


def _dissipative_scan(s: State, params: PhysParams, probe: FlowMapProbe,
                      j_p, j_n, q0, gphi) -> list[float]:
    """Half central differences of the entropy-production functional along
    the probe around the fluxes (j_p, j_n) with eliminated heat flux q0,
    one per entry of DEFAULT_EPS_SCAN.

    q is linear in the fluxes, so the scan eliminates the heat flux of the
    probe once, q1, and evaluates the functional at (j0 + eps*dJ,
    q0 + eps*q1) for every eps, one moved component at a time."""
    dJ_p, dJ_n, dJ_e = probe.flows()
    q1 = _eliminate_heat_flux(s, params, dJ_p, dJ_n, dJ_e, gphi)

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
    state; the report carries the full eps-scan tables and verdicts.  At
    most one closed-form force set is alive at a time (see the module
    docstring for the order)."""
    g = s.grid
    probe = random_probe(g, seed=seed, kmax=probe_kmax)
    # the eliminated heat flux of the constitutive j_e is q0 = -k grad(theta)
    # by construction, so the report takes it from the Darcy pass
    j, q0, gphi = _darcy_pass(s, params)
    j_p, j_n = list(j[:, 0]), list(j[:, 1])
    # the scan runs before the forces exist: its q1 elimination and
    # running sums would otherwise add to their grids
    dis_fds = _dissipative_scan(s, params, probe, j_p, j_n, q0, gphi)
    dis_forces = _dissipative_forces(s, params, j_p, j_n, gphi, q0)
    del j, j_p, j_n, gphi, q0  # the scan and the forces are built
    dis = _scan_result(_pairing(g, dis_forces, probe), dis_fds)

    # each conservative flow is paired with the probe on its way into the
    # balance, and dies before the next one is built
    con_terms = []

    def paired(flows):
        for flow, dJ in zip(flows, probe.flows()):
            con_terms.append(_pair(g, flow, dJ))
            yield flow

    balance = _balance(paired(_conservative_flows(s, params)), dis_forces)
    del dis_forces
    con = _scan_result(sum(con_terms), _conservative_scan(s, params, probe))
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
