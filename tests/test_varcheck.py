"""Variational checks: entropy functional, closed-form forces against
central-difference derivatives, force balance, and the symbolic calculus
identities behind the balance chain."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pnpf.fields import (
    PhysParams, PositivityError, State, _darcy_pass, energy_density, entropy_density,
)
from pnpf import varcheck
from pnpf.grid import GridSpec, ScalarField, divergence_arrays, grad_arrays
from pnpf.poisson import greens_apply, solve_array
from pnpf.varcheck import (
    _conservative_flows,
    _conservative_scan,
    _dissipative_flows,
    _dissipative_scan,
    _kernel_source,
    _probe_heat_flux,
    _scan_result,
    _temperature,
    random_probe,
    varcheck_report,
    write_report_json,
)

from .conftest import band_limited, peak_grids, perturbed_state
from .oracles import (
    balance,
    constitutive_fluxes,
    dissipation_functional,
    dissipative_forces,
    eliminate_heat_flux,
    entropy_functional,
    pairing,
)


def probe_flows(probe):
    """The probe's three flows (dJ_p, dJ_n, dJ_e), each component rebuilt
    from the coefficients."""
    return [[probe.component(k, i) for i in range(probe.grid.dim)] for k in range(3)]


def fluxes(s, params):
    """(j_p, j_n, q0, grad(phi)) of s as varcheck_report builds them: one
    Darcy pass, whose heat flux q0 = -k grad(theta) is the eliminated
    heat flux of the constitutive j_e."""
    j, q0, gphi = _darcy_pass(s, params)
    return list(j[:, 0]), list(j[:, 1]), q0, gphi


def kernel(s, params, q, gphi):
    """The gradient of the solved kernel source, as varcheck_report builds
    it from the heat flux q and grad(phi) of s."""
    return grad_arrays(s.grid, solve_array(s.grid, _kernel_source(s, params, q, gphi)))


def forces(s, params):
    """The dissipative forces (f_p, f_n, R) of the constitutive fluxes of
    s, built as varcheck_report builds them, each over its flux."""
    j_p, j_n, q0, gphi = fluxes(s, params)
    return list(_dissipative_flows(s, params, j_p, j_n, q0, kernel(s, params, q0, gphi)))


def dissipative(s, params, j_p, j_n, j_e):
    """grad(phi) of s as varcheck_report takes it, the heat flux q
    eliminated from (j_p, j_n, j_e) and the dissipative forces (f_p, f_n,
    R) of the fluxes, built over copies; each flux is a sequence of
    components."""
    gphi = fluxes(s, params)[3]
    q = eliminate_heat_flux(s, params, j_p, j_n, j_e, gphi)
    copies = lambda comps: [c.copy() for c in comps]
    ker = kernel(s, params, q, gphi)
    return gphi, q, list(_dissipative_flows(s, params, copies(j_p), copies(j_n), copies(q), ker))


def force_balance(s, params):
    """The force balance of s with both closed forms built from s."""
    return balance(_conservative_flows(s, params), forces(s, params))


class TestEntropyFunctional:
    def test_equilibrium_zero(self, grid3d, params):
        one = ScalarField.constant(grid3d, 1.0)
        e = ScalarField.constant(grid3d, params.c_p + params.c_n)
        assert abs(entropy_functional(one, one, e, params)) <= 1e-14

    def test_doubled_energy(self, grid3d, params):
        # p = n = 1 and e = 2(c_p + c_n) give theta = 2 everywhere
        one = ScalarField.constant(grid3d, 1.0)
        e = ScalarField.constant(grid3d, 2.0 * (params.c_p + params.c_n))
        want = (params.c_p + params.c_n) * math.log(2.0) * grid3d.length**grid3d.dim
        assert abs(entropy_functional(one, one, e, params) - want) <= 1e-13 * want

    def test_matches_compositional_path(self, grid3d, params):
        # independent path: reconstruct theta, then entropy density + quadrature
        s = perturbed_state(grid3d, seed=3, amplitude=1e-2)
        e = energy_density(s, params)
        got = entropy_functional(s.p, s.n, e, params)
        p, n = s.p.values, s.n.values
        phi = greens_apply(grid3d, p - n)
        theta = _temperature(p, n, e.values, p - n, phi, params)
        assert np.abs(theta - s.theta.values).max() <= 1e-13
        s2 = State(s.n, s.p, ScalarField(grid3d, theta), ScalarField(grid3d, phi))
        want = float(entropy_density(s2, params).values.sum() * grid3d.cell_volume)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_buffer_fsum_is_the_list_fsum(self, params):
        # fsum is correctly rounded, so summing the array's buffer gives the
        # bits of summing its list of floats
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=1e-2)
        e = energy_density(s, params)
        p, n = s.p.values, s.n.values
        theta = _temperature(p, n, e.values, p - n, greens_apply(grid, p - n), params)
        logth = np.log(theta)
        eta = -p * (np.log(p) - params.c_p * logth)
        eta -= n * (np.log(n) - params.c_n * logth)
        want = math.fsum(eta.ravel().tolist()) * grid.cell_volume
        assert entropy_functional(s.p, s.n, e, params) == want

    def test_rejects_a_charged_pair(self, grid3d, params):
        one = ScalarField.constant(grid3d, 1.0)
        e = ScalarField.constant(grid3d, params.c_p + params.c_n)
        with pytest.raises(ValueError, match="neutral"):
            entropy_functional(ScalarField.constant(grid3d, 1.001), one, e, params)

    def test_rejects_nonpositive_derived_theta(self, grid3d, params):
        one = ScalarField.constant(grid3d, 1.0)
        e = ScalarField.constant(grid3d, -1.0)
        with pytest.raises(PositivityError, match="temperature"):
            entropy_functional(one, one, e, params)


class TestConservativeForce:
    def test_equilibrium_zero(self, grid3d, params):
        for flow in _conservative_flows(State.equilibrium(grid3d), params):
            for c in flow:
                assert np.abs(c).max() <= 1e-13

    def test_isothermal_neutral_reduces_to_entropic_force(self, grid3d, params):
        # theta = 1 and n = p: the potential and kernel terms drop, leaving
        # f_p = -grad(log p)
        p = ScalarField(grid3d, 1.0 + band_limited(grid3d, seed=4, kmax=1, amplitude=0.05))
        s = State.from_primitives(p, p, ScalarField.constant(grid3d, 1.0))
        f_p, _, _ = _conservative_flows(s, params)
        want = grad_arrays(grid3d, np.log(p.values))
        for got, ref in zip(f_p, want):
            assert np.abs(got + ref).max() <= 1e-12

    def test_energy_force_is_exact_gradient(self, grid3d, params):
        s = perturbed_state(grid3d, seed=5, amplitude=1e-2)
        _, _, f_e = _conservative_flows(s, params)
        want = grad_arrays(grid3d, 1.0 / s.theta.values)
        for got, ref in zip(f_e, want):
            assert np.array_equal(got, ref)

    def test_fd_pairing(self, grid3d, params):
        s = perturbed_state(grid3d, seed=6, amplitude=1e-3, kmax=1)
        probe = random_probe(grid3d, seed=2)
        res = _scan_result(
            pairing(grid3d, _conservative_flows(s, params), probe_flows(probe)),
            _conservative_scan(s, params, probe),
        )
        assert res["best_rel_err"] <= 1e-6
        assert 1.6 <= res["order_estimate"] <= 2.4


class TestDissipativeForce:
    def test_zero_fluxes_zero_forces(self, grid3d, params):
        s = State.equilibrium(grid3d)
        for flow in forces(s, params):
            for c in flow:
                assert np.abs(c).max() <= 1e-14

    def test_unit_energy_flux_substitution(self, grid3d):
        # j_p = j_n = 0, j_e = e1, theta = 1, k = 1: eliminated q = e1 and
        # the energy force equals e1
        params = PhysParams(k=1.0)
        s = State.equilibrium(grid3d)
        zero = (np.zeros(grid3d.shape),) * 3
        e1 = (np.ones(grid3d.shape),) + tuple(np.zeros(grid3d.shape) for _ in range(2))
        _, _, (_, _, R) = dissipative(s, params, zero, zero, e1)
        assert np.abs(R[0] - 1.0).max() <= 1e-14
        for c in R[1:]:
            assert np.abs(c).max() <= 1e-14

    def test_fd_pairing_random_fluxes(self, grid3d, params):
        # arbitrary (non-constitutive) fluxes: the check is an identity of
        # the quadratic functional, exact to rounding
        s = perturbed_state(grid3d, seed=7, amplitude=1e-3)
        j_p, j_n, j_e = probe_flows(random_probe(grid3d, seed=3, amplitude=0.5))
        gphi, q0, fs = dissipative(s, params, j_p, j_n, j_e)
        probe = random_probe(grid3d, seed=4)
        dJ_p, dJ_n, _ = probe_flows(probe)
        q1 = _probe_heat_flux(s, params, probe, dJ_p, dJ_n, gphi)
        res = _scan_result(
            pairing(grid3d, fs, probe_flows(probe)),
            _dissipative_scan(s, params, j_p, j_n, q0, dJ_p, dJ_n, q1),
        )
        assert res["best_rel_err"] <= 1e-6
        assert res["quadratic_exact"] or 1.6 <= res["order_estimate"] <= 2.4

    def test_linearity_in_fluxes(self, grid3d, params):
        s = perturbed_state(grid3d, seed=8, amplitude=1e-3)
        a = random_probe(grid3d, seed=5, amplitude=0.3)
        b = random_probe(grid3d, seed=6, amplitude=0.3)

        forces_of = lambda flows: dissipative(s, params, *flows)[2]
        fa = forces_of(probe_flows(a))
        fb = forces_of(probe_flows(b))
        summed = forces_of(
            [x + y for x, y in zip(ja, jb)] for ja, jb in zip(probe_flows(a), probe_flows(b))
        )
        for fs_ab, fs_a, fs_b in zip(summed, fa, fb):
            for cab, ca, cb in zip(fs_ab, fs_a, fs_b):
                scale = max(np.abs(cab).max(), 1e-300)
                assert np.abs(cab - (ca + cb)).max() <= 1e-12 * scale


class TestForceBalance:
    def test_equilibrium(self, grid3d, params):
        assert force_balance(State.equilibrium(grid3d), params) == 0.0

    def test_isothermal_single_point_anchor(self, params):
        # theta-only single mode: both closed forms reduce analytically to
        # c * grad(theta)/theta; this anchors the sign chain before the
        # full-field runs are trusted
        grid = GridSpec(dim=1, n=32, length=2 * np.pi)
        b = 1e-4
        (x,) = grid.axes_coordinates()
        one = ScalarField.constant(grid, 1.0)
        theta = ScalarField(grid, 1.0 + b * np.sin(x))
        s = State.from_primitives(one, one, theta)
        want = params.c * b * np.cos(x) / (1.0 + b * np.sin(x))
        con_p, _, _ = _conservative_flows(s, params)
        dis_p, _, _ = forces(s, params)
        assert np.abs(con_p[0] - want).max() <= 1e-10 * b
        assert np.abs(dis_p[0] - want).max() <= 1e-10 * b

    def test_single_mode_theta_perturbation(self, params):
        grid = GridSpec(dim=3, n=16, length=1.0)
        x = grid.axes_coordinates()[0]
        one = ScalarField.constant(grid, 1.0)
        theta = ScalarField(grid, 1.0 + 1e-3 * np.sin(2 * np.pi * x))
        s = State.from_primitives(one, one, theta)
        assert force_balance(s, params) <= 1e-8

    def test_random_small_perturbation_16(self, params):
        grid = GridSpec(dim=3, n=16, length=1.0)
        s = perturbed_state(grid, seed=9, amplitude=1e-3, kmax=1)
        assert force_balance(s, params) <= 1e-8


class TestSymbolicIdentities:
    """The pointwise calculus steps that make the closed forms balance,
    verified with generic symbolic functions."""

    def test_local_part_identity(self):
        import sympy as sp

        x, c = sp.symbols("x c")
        p = sp.Function("p", positive=True)(x)
        th = sp.Function("theta", positive=True)(x)
        phi = sp.Function("phi")(x)
        # dissipative local terms with Darcy/Fourier inserted
        j_over = -(sp.diff(p * th, x) + p * sp.diff(phi, x)) / (p * th)
        heat_term = ((c + 1) * th + phi) * sp.diff(th, x) / th**2
        local_dis = j_over + heat_term
        # conservative local terms
        local_con = -sp.diff(sp.log(p) - c * sp.log(th) + phi / th, x)
        assert sp.simplify(local_dis - local_con) == 0

    def test_kernel_product_rule_identity(self):
        import sympy as sp

        x = sp.symbols("x")
        phi = sp.Function("phi")(x)
        W = sp.Function("W")(x)
        lhs = phi * sp.diff(W, x, 2) + 2 * sp.diff(phi, x) * sp.diff(W, x)
        rhs = sp.diff(phi * W, x, 2) - W * sp.diff(phi, x, 2)
        assert sp.simplify(lhs - rhs) == 0

    def test_heat_flux_elimination_roundtrip(self, grid3d, params):
        # assembling j_e from (j_p, j_n, q) and eliminating must return q
        s = perturbed_state(grid3d, seed=10, amplitude=1e-2)
        fl = constitutive_fluxes(s, params)
        q = eliminate_heat_flux(
            s, params,
            [c for c in fl.j_p.components],
            [c for c in fl.j_n.components],
            [c for c in fl.j_e.components],
            grad_arrays(grid3d, s.phi.values),
        )
        for got, ref in zip(q, fl.q.components):
            assert np.abs(got - ref).max() <= 1e-13


class TestSharedWork:
    """varcheck_report builds each force set and each heat-flux elimination
    once; the linear split of the dissipative scan is the functional."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Real fields through GridSpec.fft/ifft (batch elements count one
        each), in all and by the size of the transform's grid, and calls of
        the probe's heat-flux elimination."""
        counts = {"fields": 0, "by_n": {}, "eliminations": 0}
        for name in ("fft", "ifft"):
            orig = getattr(GridSpec, name)

            def counting(grid, arr, *args, _orig=orig, **kwargs):
                fields = int(np.prod(arr.shape[: arr.ndim - grid.dim]))
                counts["fields"] += fields
                counts["by_n"][grid.n] = counts["by_n"].get(grid.n, 0) + fields
                return _orig(grid, arr, *args, **kwargs)

            monkeypatch.setattr(GridSpec, name, counting)
        orig_elim = varcheck._probe_heat_flux

        def eliminate(*args, **kwargs):
            counts["eliminations"] += 1
            return orig_elim(*args, **kwargs)

        monkeypatch.setattr(varcheck, "_probe_heat_flux", eliminate)
        return counts

    def test_report_cost(self, params, counted):
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        counted["fields"], counted["by_n"] = 0, {}
        rep = varcheck_report(s, params, seed=1)
        assert rep["pass"]
        # probe 18 (3 forward band transforms of 8^3 noise, the draw grid of
        # kmax 2, and 3 inverse band transforms on the 16-grid per vector),
        # the Darcy pass 15 (the spectrum 3, then 4 per axis; it gives
        # grad(phi) and q0), the dissipative kernel 10 (its source 4 before
        # the scan, its solve 2 and gradient 4 after it), the probe's ion
        # directions 6 for the dissipative scan, the probe's heat-flux
        # elimination 7 (phi_t 1 and grad(phi_t) 3 from the coefficients,
        # dJ_e 3), the conservative forces 14, the probe components 9 that
        # the streamed forces pair with, and the conservative scan 6
        # (G(p - n) 2 and one 4-row band inverse of the probe divergences
        # and G(div_p - div_n)); the probe's 9 inverses, the 18 rebuilt
        # components, phi_t and grad(phi_t) are band inverses
        assert counted["fields"] == 85
        assert counted["by_n"] == {8: 9, 16: 76}
        assert counted["eliminations"] == 1

    def test_report_heat_flux_is_fouriers_law(self, params, monkeypatch):
        # eliminating the constitutive j_e returns -k grad(theta) to 1e-13
        # (TestSymbolicIdentities::test_heat_flux_elimination_roundtrip);
        # the report takes q0 from the Darcy pass instead, the bits of
        # FluxSet.q, and so does the fluxes() helper
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        seen = []
        orig = varcheck._dissipative_flows

        def record(s, params, j_p, j_n, q, kernel):
            seen.append([c.copy() for c in q])
            return orig(s, params, j_p, j_n, q, kernel)

        monkeypatch.setattr(varcheck, "_dissipative_flows", record)
        varcheck_report(s, params, seed=1, probe_kmax=1)
        want = constitutive_fluxes(s, params).q.components
        assert len(seen) == 1
        for q in (seen[0], fluxes(s, params)[2]):
            assert all(np.array_equal(a, b) for a, b in zip(q, want))

    def test_split_scan_is_the_functional(self, params, monkeypatch):
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=14, amplitude=1e-3, kmax=1)
        fl = constitutive_fluxes(s, params)
        j_p, j_n = fl.j_p.components, fl.j_n.components
        gphi, q0, _ = dissipative(s, params, j_p, j_n, fl.j_e.components)
        probe = random_probe(grid, seed=2, kmax=1)
        dJ_p, dJ_n, dJ_e = probe_flows(probe)
        q1 = _probe_heat_flux(s, params, probe, dJ_p, dJ_n, gphi)
        seen = []
        orig = varcheck._dissipation

        def record(*args):
            seen.append(orig(*args))
            return seen[-1]

        monkeypatch.setattr(varcheck, "_dissipation", record)
        _dissipative_scan(s, params, j_p, j_n, q0, dJ_p, dJ_n, q1)
        monkeypatch.setattr(varcheck, "_dissipation", orig)
        signed = [sign * eps for eps in varcheck.DEFAULT_EPS_SCAN for sign in (1.0, -1.0)]
        assert len(seen) == len(signed)
        for eps, got in zip(signed, seen):
            moved = [
                [a + eps * b for a, b in zip(j.components, dj)]
                for j, dj in ((fl.j_p, dJ_p), (fl.j_n, dJ_n), (fl.j_e, dJ_e))
            ]
            want = dissipation_functional(s, params, *moved)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_probe_heat_flux_is_the_elimination(self, params):
        # q1 from the probe's coefficients is the heat flux eliminated from
        # its rebuilt flux triple through full transforms, to rounding
        for kmax in (1, 2):
            grid = GridSpec(dim=3, n=16, length=2 * np.pi)
            s = perturbed_state(grid, seed=14, amplitude=1e-3, kmax=1)
            probe = random_probe(grid, seed=2, kmax=kmax)
            dJ_p, dJ_n, dJ_e = probe_flows(probe)
            gphi = fluxes(s, params)[3]
            want = eliminate_heat_flux(s, params, dJ_p, dJ_n, dJ_e, gphi)
            got = _probe_heat_flux(s, params, probe, dJ_p, dJ_n, gphi)
            scale = max(np.abs(c).max() for c in want)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-14 * scale

    def test_streamed_forces_are_the_whole_sets(self, params):
        # the dissipative forces built in place one flow at a time have the
        # bits of the force set built whole
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        j_p, j_n, q0, gphi = fluxes(s, params)
        want = dissipative_forces(s, params, j_p, j_n, gphi, q0)
        for got_flow, want_flow in zip(forces(s, params), want):
            assert all(np.array_equal(a, b) for a, b in zip(got_flow, want_flow))

    def test_split_conservative_scan_is_the_functional(self, params):
        # the scan moves (p, n, e) along the divergences of the probe's
        # coefficients (TestProbe checks them against the components'),
        # splits phi = G(p - n) linearly and integrates the difference of
        # the two moved entropy densities once per eps; each entry is the
        # central difference of entropy_functional of the moved fields,
        # which derives phi anew and totals each density on its own.  The
        # totals nearly cancel (|S| is 2e-4 of the integral of |eta| here),
        # so the bound is set by the quadrature's scale: 1e-15 of the
        # integral of |eta| over eps, each total within a few ulps of that
        # scale (measured: 1e-14 against 1.5e-13 at eps 1e-3, for one sum of
        # the differences and for two totals alike)
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=14, amplitude=1e-3, kmax=1)
        probe = random_probe(grid, seed=2, kmax=1)
        got = _conservative_scan(s, params, probe)
        e = energy_density(s, params).values
        divs = []
        for coef in probe.divergences():
            spec = np.zeros(grid.spectral_shape, dtype=complex)
            spec[grid.band_mask(1)] = coef
            divs.append(grid.ifft(spec))
        scale = np.abs(entropy_density(s, params).values).sum() * grid.cell_volume
        assert len(got) == len(varcheck.DEFAULT_EPS_SCAN)
        for eps, fd in zip(varcheck.DEFAULT_EPS_SCAN, got):
            totals = [
                entropy_functional(*(ScalarField(grid, f - sign * eps * d)
                                     for f, d in zip((s.p.values, s.n.values, e), divs)), params)
                for sign in (1.0, -1.0)
            ]
            want = (totals[0] - totals[1]) / (2.0 * eps)
            assert abs(fd - want) <= 1e-15 * scale / eps, eps

    def test_conservative_scan_keeps_the_temperature_guard(self, params):
        # a probe whose energy direction is large enough to drive the
        # derived temperature below zero at the scan's first eps raises
        # PositivityError inside the scan, as the entropy functional does
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=14, amplitude=1e-3, kmax=1)
        probe = random_probe(grid, seed=2, kmax=1)
        scales = (*probe.scales[:2], tuple(1e5 * c for c in probe.scales[2]))
        with pytest.raises(PositivityError, match="temperature"):
            _conservative_scan(s, params, replace(probe, scales=scales))


class TestProbe:
    def test_band_transforms_keep_the_probe_bits(self):
        # each vector is Philox white noise on the draw grid of size
        # m = max(8, the smallest power of two above 2 kmax), capped at n,
        # full transformed and cut to its band; the cut is scattered into
        # the band of the n-grid, whose full inverse scaled to amplitude
        # over its peak is the component, bit for bit, pruned (kmax < n//2)
        # or not and drawn on a smaller grid (m < n) or not
        for n, kmax, m in ((16, 1, 8), (16, 3, 8), (16, 4, 16), (16, 5, 16), (16, 8, 16),
                           (32, 2, 8), (32, 4, 16), (32, 9, 32)):
            grid = GridSpec(dim=3, n=n, length=2 * np.pi)
            draw = GridSpec(dim=3, n=m, length=2 * np.pi)
            gen = np.random.Generator(np.random.Philox(key=3))
            probe = random_probe(grid, seed=3, kmax=kmax)
            for dJ in probe_flows(probe):
                cut = draw.fft(gen.standard_normal((3,) + draw.shape))[:, draw.band_mask(kmax)]
                spec = np.zeros((3,) + grid.spectral_shape, dtype=complex)
                spec[:, grid.band_mask(kmax)] = cut
                for got, vals in zip(dJ, grid.ifft(spec)):
                    assert np.array_equal(got, vals * (0.1 / np.abs(vals).max())), (n, kmax)

    def test_draw_is_at_most_the_draw_grids_noise(self, monkeypatch):
        # a spy on Generator.standard_normal: a probe draws at most
        # 3 dim m^dim normals, 4608 at kmax 1 in 3-D where the n-grid's
        # white noise was 3 dim n^dim (2.4M at 64^3)
        drawn = []
        generator = np.random.Generator

        class Spy:
            def __init__(self, bitgen):
                self.gen = generator(bitgen)

            def standard_normal(self, size=None, *args, **kwargs):
                drawn.append(int(np.prod(size)))
                return self.gen.standard_normal(size, *args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        for dim, n, kmax, m in ((1, 64, 1, 8), (2, 64, 3, 8), (2, 64, 4, 16), (3, 64, 1, 8),
                                (3, 64, 2, 8), (3, 32, 5, 16), (3, 16, 6, 16), (3, 8, 4, 8)):
            drawn.clear()
            random_probe(GridSpec(dim=dim, n=n, length=2 * np.pi), seed=1, kmax=kmax)
            assert 0 < sum(drawn) <= 3 * dim * m**dim, (dim, n, kmax)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_scattered_spectrum_is_hermitian(self, dim):
        # the band of the draw grid scattered into the n-grid's band is the
        # spectrum of a real field: the forward band transform of its own
        # inverse returns it to 1e-14
        grid = GridSpec(dim=dim, n=32, length=2 * np.pi)
        for kmax in range(grid.n // 2 + 1):
            probe = random_probe(grid, seed=7 + kmax, kmax=kmax)
            mask = grid.band_mask(kmax)
            for coef in probe.coefs:
                spec = np.zeros((dim,) + grid.spectral_shape, dtype=complex)
                spec[:, mask] = coef
                back = grid.fft(grid.ifft(spec, band=kmax), band=kmax)[:, mask]
                assert np.abs(back - coef).max() <= 1e-14 * np.abs(coef).max(), kmax

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_kmax_draws_a_band_limited_probe(self, dim):
        # kmax from 0 (the constant mode alone) to n//2 (the whole grid):
        # each component holds the band's modes, vanishes outside the band
        # and peaks at the amplitude
        grid = GridSpec(dim=dim, n=16, length=2 * np.pi)
        for kmax in range(grid.n // 2 + 1):
            probe = random_probe(grid, seed=11 + kmax, kmax=kmax, amplitude=0.3)
            mask = grid.band_mask(kmax)
            for k in range(3):
                assert probe.coefs[k].shape == (dim, int(mask.sum()))
                for i in range(dim):
                    vals = probe.component(k, i)
                    assert abs(np.abs(vals).max() - 0.3) <= 1e-15, (kmax, k, i)
                    outside = grid.fft(vals)[~mask]
                    assert np.abs(outside).max(initial=0.0) <= 1e-13 * grid.n**dim, kmax

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rebuilt_components_are_the_batched_inverse(self, dim):
        # one component at a time, from a new or a reused (dirty) spectral
        # scratch, into a new or a reused grid: the bits of one batched
        # band inverse of the flow's scattered coefficients, then scaled
        grid = GridSpec(dim=dim, n=16, length=2 * np.pi)
        spec, out = np.full(grid.spectral_shape, 7.0 + 1j), np.empty(grid.shape)
        for kmax in range(grid.n // 2 + 1):
            probe = random_probe(grid, seed=5 + kmax, kmax=kmax)
            mask = grid.band_mask(kmax)
            for k, (coef, scales) in enumerate(zip(probe.coefs, probe.scales)):
                batch = np.zeros((dim,) + grid.spectral_shape, dtype=complex)
                batch[:, mask] = coef
                want = grid.ifft(batch, band=kmax)
                for i, scale in enumerate(scales):
                    want[i] *= scale
                    assert np.array_equal(probe.component(k, i), want[i])
                    assert np.array_equal(probe.component(k, i, out=out, spec=spec), want[i])

    def test_probe_holds_under_one_percent_of_a_grid(self):
        # a kmax-1 probe at 32^3 keeps 162 coefficients, no grid
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        probe = random_probe(grid, seed=1, kmax=1)
        arrays = [a for a in (*probe.coefs, *probe.scales) if isinstance(a, np.ndarray)]
        assert sum(a.size for a in probe.coefs) == 162
        assert sum(a.nbytes for a in arrays) < 0.01 * 8 * grid.n**grid.dim

    def test_divergences_are_the_components_divergences(self):
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        probe = random_probe(grid, seed=4, kmax=2)
        mask = grid.band_mask(2)
        for coef, dJ in zip(probe.divergences(), probe_flows(probe)):
            spec = np.zeros(grid.spectral_shape, dtype=complex)
            spec[mask] = coef
            want = divergence_arrays(grid, dJ)
            assert np.abs(grid.ifft(spec) - want).max() <= 1e-14 * np.abs(want).max()


class TestReport:
    def test_report_passes_on_small_state(self, grid3d, params):
        s = perturbed_state(grid3d, seed=11, amplitude=1e-3, kmax=1)
        rep = varcheck_report(s, params, seed=1)
        assert rep["pass"]
        assert rep["conservative"]["best_rel_err"] <= 1e-6
        assert rep["dissipative"]["best_rel_err"] <= 1e-6
        assert rep["force_balance_residual"] <= 1e-8

    def test_zero_threshold_fails(self, grid3d, params):
        s = perturbed_state(grid3d, seed=12, amplitude=1e-3, kmax=1)
        rep = varcheck_report(s, params, seed=1, fd_tol=0.0, balance_tol=0.0)
        assert not rep["pass"]

    def test_report_matches_stored_bytes(self, params, tmp_path):
        # data/varcheck-report-16.json was written by varcheck_report once
        # it drew its probe on the 8-grid of kmax 1 and took one quadrature
        # of the entropy-density difference per eps.  The probe is another
        # direction, so every pairing and fd moved (conservative pairing
        # 1.668e-3 -> 5.480e-4, best_rel_err 1.4e-9 -> 2.9e-8, order 2.46
        # -> 1.84; dissipative best_rel_err 6.1e-15 -> 2.7e-14); the
        # verdict, the balance, the thresholds, the eps and the probe seed
        # are the same.  Recorded on one host: numpy's log and the FFTs may
        # round differently on another CPU or build
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        write_report_json(varcheck_report(s, params, seed=1, probe_kmax=1), tmp_path / "r.json")
        want = Path(__file__).parent / "data" / "varcheck-report-16.json"
        assert (tmp_path / "r.json").read_bytes() == want.read_bytes()

    def test_report_pairings_are_the_pieces_pairings(self, params):
        # the report streams the forces one flow at a time; both pairings
        # and the balance are those of the force sets built on their own,
        # bit for bit
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        rep = varcheck_report(s, params, seed=1, probe_kmax=1)
        dJ = probe_flows(random_probe(grid, seed=1, kmax=1))
        con = pairing(grid, _conservative_flows(s, params), dJ)
        assert rep["conservative"]["pairing"] == con
        assert rep["dissipative"]["pairing"] == pairing(grid, forces(s, params), dJ)
        assert rep["force_balance_residual"] == force_balance(s, params)

    def test_report_peak_memory(self, params):
        # at 32^3 above the call's entry, in full grids: measured 23.05 on
        # seeds 13 and 5, with the peak in the dissipative scan (see the
        # varcheck module docstring); with the probe kept as nine grids and
        # each dissipative force set built whole it peaked at 35.06, in the
        # dissipative closed form
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        assert peak_grids(lambda: varcheck_report(s, params, seed=1, probe_kmax=1), grid) <= 23.45
