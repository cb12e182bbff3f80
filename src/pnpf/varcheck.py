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
dissipative forces coincide identically; force_balance_residual measures
the discrete remainder of that identity.  The checks and the balance take
the closed-form forces as inputs: varcheck_report builds each force set
once, and it serves both its check and the balance.

The eliminated heat flux

    q = j_e - a j_p - b j_n - X(j_p - j_n),   a, b = energy weights,

is linear in the flux triple: a, b and grad(phi) are fixed by the state,
and the exchange flux X(w) = (phi_t grad(phi) - phi grad(phi_t))/2 with
phi_t = Delta^{-1} div(w) is linear in w.  So the dissipative scan
eliminates q twice, q0 for the base fluxes j0 and q1 for the probe dJ,
and evaluates the functional at (j0 + eps dJ, q0 + eps q1).  This split
is exact, not an approximation: q0 + eps q1 and the elimination of
j0 + eps dJ are the same discrete quantity and differ only in rounding,
and the functional is then evaluated by the same quadratic density.

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
from dataclasses import dataclass

import numpy as np

from .fields import (
    PhysParams,
    PositivityError,
    State,
    _deviation,
    _production_density,
    constitutive_fluxes,
    energy_density,
    energy_weights,
    exchange_arrays,
)
from .grid import GridSpec, ScalarField, VectorField, divergence_arrays, grad_arrays, integrate
from .poisson import greens_apply, solve_array

DEFAULT_EPS_SCAN = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class FlowMapProbe:
    """Perturbation directions for the three flow maps; the central
    differences along them step by DEFAULT_EPS_SCAN."""

    dJ_p: VectorField
    dJ_n: VectorField
    dJ_e: VectorField


@dataclass(frozen=True)
class ForceSet:
    f_p: VectorField
    f_n: VectorField
    f_e: VectorField


def random_probe(grid: GridSpec, seed: int, kmax: int = 2, amplitude: float = 0.1) -> FlowMapProbe:
    """Band-limited, dealiased probe directions from Philox(seed).  Each
    vector's components are drawn in one call, which gives the same
    numbers as drawing them one at a time, and filtered in one forward
    and one inverse transform; the band cut and the scaling work in
    place, so the batch adds no spectrum or grid of its own."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    cut = ~grid.band_mask(kmax)

    def vec():
        spec = grid.fft(gen.standard_normal((grid.dim,) + grid.shape))
        spec[:, cut] = 0.0
        comps = grid.ifft(spec)
        del spec
        for vals in comps:
            peak = np.abs(vals).max()
            if peak > 0:
                vals *= amplitude / peak
        return VectorField(grid, tuple(comps))

    return FlowMapProbe(vec(), vec(), vec())


# -- entropy functional and conservative forces -------------------------------


def derived_temperature(p: ScalarField, n: ScalarField, e: ScalarField,
                        params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) reconstructed from the extensive variables:
    phi = G(p - n), theta = (e - (p - n) phi/2)/(c_p p + c_n n)."""
    grid = p.grid
    phi = greens_apply(grid, p.values - n.values)
    theta = (e.values - 0.5 * (p.values - n.values) * phi) / (
        params.c_p * p.values + params.c_n * n.values
    )
    return theta, phi


def entropy_functional(p: ScalarField, n: ScalarField, e: ScalarField,
                       params: PhysParams) -> float:
    """Total entropy with the temperature derived from (p, n, e); this
    hidden dependency is what makes the flow-map derivative nontrivial.

    Raises PositivityError if the derived temperature is not positive.
    """
    grid = p.grid
    if abs(float((p.values - n.values).mean())) > 1e-10:
        raise ValueError("entropy functional requires a neutral (p, n) pair")
    theta, _ = derived_temperature(p, n, e, params)
    if float(theta.min()) <= 0.0:
        raise PositivityError(f"derived temperature min {theta.min():.3e} <= 0")
    logth = np.log(theta)
    eta = -p.values * (np.log(p.values) - params.c_p * logth)
    eta -= n.values * (np.log(n.values) - params.c_n * logth)
    # fsum: the central differences divide S by probe sizes down to 1e-5,
    # so accumulation error in the quadrature must stay at one ulp; it is
    # correctly rounded, so reading the buffer directly (no list) keeps the bits
    return math.fsum(memoryview(eta.ravel())) * grid.cell_volume


def conservative_force_closed(s: State, params: PhysParams) -> ForceSet:
    """Closed-form flow-map derivatives of the entropy functional."""
    g = s.grid
    n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    kernel = greens_apply(g, (p - n) / (2.0 * th))
    base_p = np.log(p) - params.c_p * np.log(th) + phi / (2.0 * th) + kernel
    base_n = np.log(n) - params.c_n * np.log(th) - phi / (2.0 * th) - kernel
    f_p = [-c for c in grad_arrays(g, base_p)]
    f_n = [-c for c in grad_arrays(g, base_n)]
    f_e = grad_arrays(g, 1.0 / th)
    return ForceSet(
        VectorField(g, tuple(f_p)), VectorField(g, tuple(f_n)), VectorField(g, tuple(f_e))
    )


# -- entropy production functional and dissipative forces ---------------------


def _eliminate_heat_flux(s: State, params: PhysParams, j_p, j_n, j_e, gphi):
    """q from (j_e, j_p, j_n) by the energy-flux bookkeeping, with the
    potential rate solved from the continuity equations; gphi is
    grad(phi) of s."""
    g = s.grid
    th, phi = s.theta.values, s.phi.values
    a, b = energy_weights(th, phi, params)
    _, exchange = exchange_arrays(g, phi, gphi, j_p, j_n)
    q = [j_e[i] - a * j_p[i] - b * j_n[i] - exchange[i] for i in range(g.dim)]
    return q, a, b


def _dissipation(s: State, params: PhysParams, j_p, j_n, q) -> float:
    """The quadratic entropy production of (j_p, j_n) and the heat flux q."""
    sq = lambda comps: sum(c**2 for c in comps)
    return integrate(_production_density(s, params, sq(j_p), sq(j_n), sq(q)))


@dataclass(frozen=True)
class DissipativeClosedForm:
    """The dissipative forces of one flux triple, with what a
    central-difference scan around that triple reuses: the triple itself,
    grad(phi) and the eliminated heat flux q."""

    j_p: tuple
    j_n: tuple
    gphi: list
    q: list
    forces: ForceSet


def dissipative_closed_form(s: State, fl, params: PhysParams) -> DissipativeClosedForm:
    """Closed-form half-derivatives of the entropy production with respect
    to (j_p, j_n, j_e), in .forces; linear in the fluxes.  fl provides
    (j_p, j_n, j_e) (a FluxSet or any object with those attributes)."""
    g = s.grid
    j_p, j_n = fl.j_p.components, fl.j_n.components
    th, phi = s.theta.values, s.phi.values
    gphi = grad_arrays(g, phi)
    q, a, b = _eliminate_heat_flux(s, params, j_p, j_n, fl.j_e.components, gphi)
    R = [q[i] / (params.k * th**2) for i in range(g.dim)]
    r_dot_gphi = sum(R[i] * gphi[i] for i in range(g.dim))
    div_phi_r = divergence_arrays(g, [phi * R[i] for i in range(g.dim)])
    kernel = grad_arrays(g, solve_array(g, div_phi_r + r_dot_gphi))

    f_p = [
        j_p[i] / (params.D_p * s.p.values * th) - a * R[i] + 0.5 * kernel[i]
        for i in range(g.dim)
    ]
    f_n = [
        j_n[i] / (params.D_n * s.n.values * th) - b * R[i] - 0.5 * kernel[i]
        for i in range(g.dim)
    ]
    forces = ForceSet(
        VectorField(g, tuple(f_p)), VectorField(g, tuple(f_n)), VectorField(g, tuple(R))
    )
    return DissipativeClosedForm(j_p, j_n, gphi, q, forces)


def force_balance_residual(con: ForceSet, dis: ForceSet) -> float:
    """Max deviation between the conservative forces con and the
    dissipative forces dis, relative to the largest conservative force;
    zero at equilibrium.  With the constitutive fluxes inserted into dis
    the two coincide identically, so this is the discrete remainder."""
    dev = scale = 0.0
    for fc, fd in ((con.f_p, dis.f_p), (con.f_n, dis.f_n), (con.f_e, dis.f_e)):
        for cc, cd in zip(fc.components, fd.components):
            dev, scale = _deviation(dev, scale, cd, cc)
    return dev / scale if scale else 0.0


# -- central-difference functional-derivative checks --------------------------


def _pair(grid: GridSpec, force: VectorField, probe: VectorField) -> float:
    return float(
        sum((fc * pc).sum() for fc, pc in zip(force.components, probe.components))
        * grid.cell_volume
    )


def _scan_result(g: GridSpec, forces: ForceSet, probe: FlowMapProbe, fd_at) -> dict:
    """The scan table of the central differences fd_at(eps) over
    DEFAULT_EPS_SCAN against the probe's pairing with the closed-form
    forces, with the best error and the convergence order."""
    pairing = (
        _pair(g, forces.f_p, probe.dJ_p)
        + _pair(g, forces.f_n, probe.dJ_n)
        + _pair(g, forces.f_e, probe.dJ_e)
    )
    rows = []
    for eps in DEFAULT_EPS_SCAN:
        fd = fd_at(eps)
        rows.append(
            {"eps": eps, "fd": fd, "rel_err": abs(fd - pairing) / max(abs(pairing), 1e-300)}
        )
    errs = [r["rel_err"] for r in rows]
    # a quadratic functional is differentiated exactly by central
    # differences; every scan entry then sits at the rounding floor and a
    # convergence order is not observable (nor needed)
    quadratic_exact = max(errs) < 1e-8
    order = None
    if len(rows) >= 2 and not quadratic_exact:
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


def check_conservative(s: State, params: PhysParams, probe: FlowMapProbe,
                       forces: ForceSet) -> dict:
    """Central differences of the entropy functional along the probe
    against the pairing of the conservative forces of s, over the eps
    scan."""
    g = s.grid
    e0 = energy_density(s, params)
    div_p = divergence_arrays(g, probe.dJ_p.components)
    div_n = divergence_arrays(g, probe.dJ_n.components)
    div_e = divergence_arrays(g, probe.dJ_e.components)

    def S_at(eps: float) -> float:
        p = ScalarField(g, s.p.values - eps * div_p)
        n = ScalarField(g, s.n.values - eps * div_n)
        e = ScalarField(g, e0.values - eps * div_e)
        return entropy_functional(p, n, e, params)

    return _scan_result(g, forces, probe, lambda eps: (S_at(eps) - S_at(-eps)) / (2.0 * eps))


def check_dissipative(s: State, params: PhysParams, probe: FlowMapProbe,
                      closed: DissipativeClosedForm) -> dict:
    """Half central differences of the entropy-production functional along
    the probe, around the fluxes j0 of closed, against the pairing of its
    forces (linear-response factor one-half included).

    q is linear in the fluxes, so the scan eliminates the heat flux twice,
    q0 for j0 (closed.q) and q1 for the probe, and evaluates the
    functional at (j0 + eps*dJ, q0 + eps*q1) for every eps."""
    g = s.grid
    dJ_p, dJ_n = probe.dJ_p.components, probe.dJ_n.components
    q1, _, _ = _eliminate_heat_flux(s, params, dJ_p, dJ_n, probe.dJ_e.components, closed.gphi)

    def D_at(eps: float) -> float:
        jp = [closed.j_p[i] + eps * dJ_p[i] for i in range(g.dim)]
        jn = [closed.j_n[i] + eps * dJ_n[i] for i in range(g.dim)]
        q = [closed.q[i] + eps * q1[i] for i in range(g.dim)]
        return _dissipation(s, params, jp, jn, q)

    return _scan_result(
        g, closed.forces, probe, lambda eps: 0.5 * (D_at(eps) - D_at(-eps)) / (2.0 * eps)
    )


def varcheck_report(
    s: State,
    params: PhysParams,
    seed: int = 0,
    fd_tol: float = 1e-6,
    balance_tol: float = 1e-8,
    probe_kmax: int = 2,
) -> dict:
    """Run both functional-derivative checks and the force balance on one
    state; the report carries the full eps-scan tables and verdicts.  Each
    closed-form force set is built once and serves its check and the
    balance."""
    probe = random_probe(s.grid, seed=seed, kmax=probe_kmax)
    closed = dissipative_closed_form(s, constitutive_fluxes(s, params), params)
    dis = check_dissipative(s, params, probe, closed)
    dis_forces = closed.forces
    del closed  # the scan's inputs are spent; only the forces serve the balance
    con_forces = conservative_force_closed(s, params)
    con = check_conservative(s, params, probe, con_forces)
    balance = force_balance_residual(con_forces, dis_forces)
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
