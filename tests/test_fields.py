"""Constitutive quantities: fluxes, densities, the linear-response block
and its reconstruction identity."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnpf import dynamics
from pnpf.dynamics import rhs_primitive
from pnpf.fields import (
    PhysParams, PositivityError, State, energy_density, entropy_density, flux_audit,
)
from pnpf.grid import GridSpec, ScalarField, divergence_arrays, grad_arrays

from .conftest import laplacian, peak_grids, perturbed_state
from . import oracles
from .oracles import (
    FluxSet,
    VectorField,
    constitutive_fluxes,
    entropy_production_density,
    flux_reconstruction_residual,
    onsager_block,
    reconstruct_fluxes,
)


class TestPhysParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysParams(c_p=0.0)
        with pytest.raises(ValueError):
            PhysParams(D_n=-1.0)

    def test_common_heat_capacity(self):
        assert PhysParams(c_p=2.0, c_n=2.0).c == 2.0
        with pytest.raises(ValueError, match="c_p == c_n"):
            _ = PhysParams(c_p=2.0, c_n=3.0).c


class TestState:
    def test_positivity_floor(self, grid3d):
        bad = ScalarField.constant(grid3d, 1e-9)
        good = ScalarField.constant(grid3d, 1.0)
        with pytest.raises(PositivityError):
            State.from_primitives(bad, good, good)

    def test_neutrality_enforced(self, grid3d):
        n = ScalarField.constant(grid3d, 1.1)
        p = ScalarField.constant(grid3d, 1.0)
        with pytest.raises(Exception, match="neutral"):
            State.from_primitives(n, p, p)

    def test_fields_on_different_grids_rejected(self, grid3d):
        other = GridSpec(dim=grid3d.dim, n=grid3d.n, length=2.0 * grid3d.length)
        one = ScalarField.constant(grid3d, 1.0)
        with pytest.raises(ValueError, match="share one grid"):
            State(one, one, ScalarField.constant(other, 1.0), ScalarField.constant(grid3d, 0.0))

    def test_phi_is_slaved(self, grid3d):
        s = perturbed_state(grid3d, seed=3)
        res = laplacian(grid3d, s.phi.values) - (s.n.values - s.p.values)
        assert np.abs(res).max() <= 1e-11
        assert abs(s.phi.values.mean()) <= 1e-14


class TestConstitutiveFluxes:
    def test_uniform_equilibrium_all_zero(self, grid3d, params):
        fl = constitutive_fluxes(State.equilibrium(grid3d), params)
        for vf in (fl.j_p, fl.j_n, fl.q, fl.j_e, fl.exchange):
            for c in vf.components:
                assert np.abs(c).max() <= 1e-13

    def test_fourier_law_single_mode(self):
        grid = GridSpec(dim=3, n=16, length=2.0)
        x = grid.axes_coordinates()[0]
        L = grid.length
        theta = ScalarField(grid, 1.0 + 0.1 * np.sin(2 * np.pi * x / L))
        one = ScalarField.constant(grid, 1.0)
        s = State.from_primitives(one, one, theta)
        fl = constitutive_fluxes(s, PhysParams(k=1.0))
        want = -0.1 * (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.abs(fl.q.components[0] - want).max() <= 1e-12
        for c in fl.q.components[1:]:
            assert np.abs(c).max() <= 1e-13

    def test_continuity_consistency(self, grid3d, params):
        # the divergence of each ion flux reproduces the corresponding
        # continuity-equation rate from the undealiased right-hand side
        s = perturbed_state(grid3d, seed=17)
        fl = constitutive_fluxes(s, params)
        dn, dp, _ = rhs_primitive(s, params, dealias=False)
        div_jn = divergence_arrays(grid3d, fl.j_n.components)
        div_jp = divergence_arrays(grid3d, fl.j_p.components)
        assert np.abs(div_jn + dn.values).max() <= 1e-12
        assert np.abs(div_jp + dp.values).max() <= 1e-12

    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 5000))
    @settings(max_examples=10, deadline=None)
    def test_stepper_uses_the_audited_fluxes(self, dim, seed):
        # the RHS takes its Darcy fluxes from the same kernel as
        # constitutive_fluxes, so the audited fluxes are the stepped ones
        grid = GridSpec(dim=dim, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=5e-2)
        params = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)
        seen = []
        kernel = dynamics.darcy_axes

        def spy(*args):
            # the kernel yields one axis at a time; record each axis's fluxes
            seen.append([])
            for axis in kernel(*args):
                seen[-1].append([a.copy() for a in axis[4:]])
                yield axis

        with mock.patch.object(dynamics, "darcy_axes", spy):
            rhs_primitive(s, params)
        assert len(seen) == 1
        j_p, j_n = zip(*seen[0])
        fl = constitutive_fluxes(s, params)
        for got, used in ((fl.j_p, j_p), (fl.j_n, j_n)):
            for a, b in zip(got.components, used):
                assert np.array_equal(a, b)

    def test_peak_memory(self):
        # at 32^3 above the call's entry, in full grids: measured 22.02 on
        # seeds 3, 5 and 7; a kernel that builds every axis's gradients and
        # three unused Laplacians in one inverse transform peaks at 42.2
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        params = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)
        assert peak_grids(lambda: constitutive_fluxes(s, params), grid) <= 22.4

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_potential_rate_solves_its_poisson_equation(self, dim):
        # phi_t and grad(phi_t) come from one spectrum; Delta(phi_t) equals
        # div(j_p - j_n) mode by mode and the exchange flux is built from
        # the spectral gradient of that phi_t
        grid = GridSpec(dim=dim, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=31 + dim, amplitude=1e-2)
        fl = constitutive_fluxes(s, PhysParams())
        phi_t = fl.phi_t.values
        div = divergence_arrays(grid, [
            a - b for a, b in zip(fl.j_p.components, fl.j_n.components)
        ])
        lhs, rhs = -grid.k2 * grid.fft(phi_t), grid.fft(div)
        assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(rhs).max()
        assert abs(phi_t.mean()) <= 1e-16
        gphi, gphi_t = grad_arrays(grid, s.phi.values), grad_arrays(grid, phi_t)
        for ex, a, b in zip(fl.exchange.components, gphi, gphi_t):
            # scale: the two products, which nearly cancel
            scale = np.abs(phi_t).max() * np.abs(a).max() + np.abs(s.phi.values * b).max()
            assert np.abs(ex - 0.5 * (phi_t * a - s.phi.values * b)).max() <= 1e-13 * scale

    def test_q_is_fourier_by_construction(self, grid3d, params):
        s = perturbed_state(grid3d, seed=23)
        fl = constitutive_fluxes(s, params)
        gth = grad_arrays(grid3d, s.theta.values)
        for qc, gc in zip(fl.q.components, gth):
            assert np.abs(qc + params.k * gc).max() <= 1e-13


class TestEnergyDensity:
    def test_equilibrium_value(self, grid3d):
        e = energy_density(State.equilibrium(grid3d), PhysParams(c_p=1.5, c_n=1.5))
        assert np.abs(e.values - 3.0).max() <= 1e-14

    def test_unequal_densities_need_explicit_phi(self, grid3d):
        # a uniform charge imbalance is not periodically solvable
        n = ScalarField.constant(grid3d, 2.0)
        p = ScalarField.constant(grid3d, 0.5)
        th = ScalarField.constant(grid3d, 1.0)
        with pytest.raises(Exception, match="neutral"):
            State.from_primitives(n, p, th)

    def test_direct_substitution(self, grid3d):
        # pointwise formula checked with phi = 0 imposed directly
        n = ScalarField.constant(grid3d, 2.0)
        p = ScalarField.constant(grid3d, 0.5)
        th = ScalarField.constant(grid3d, 1.0)
        zero = ScalarField.constant(grid3d, 0.0)
        s = State(n, p, th, zero)
        e = energy_density(s, PhysParams(c_p=1.0, c_n=1.0))
        assert np.abs(e.values - 2.5).max() <= 1e-14

    def test_integral_matches_fsum_oracle(self, grid3d, params):
        s = perturbed_state(grid3d, seed=29)
        e = energy_density(s, params)
        got = float(e.values.sum() * grid3d.cell_volume)
        want = oracles.fsum_integral(grid3d, e.values)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestEntropyDensity:
    def test_equilibrium_zero(self, grid3d, params):
        eta = entropy_density(State.equilibrium(grid3d), params)
        assert np.abs(eta.values).max() <= 1e-14

    def test_substitution(self, grid3d):
        # p = e (Euler's number), n = 1, theta = 1 -> eta = -e pointwise
        p = ScalarField.constant(grid3d, math.e)
        n = ScalarField.constant(grid3d, 1.0)
        th = ScalarField.constant(grid3d, 1.0)
        zero = ScalarField.constant(grid3d, 0.0)
        s = State(n, p, th, zero)
        eta = entropy_density(s, PhysParams())
        assert np.abs(eta.values + math.e).max() <= 1e-13

    def test_matches_scalar_loop(self, grid3d, params):
        s = perturbed_state(grid3d, seed=31)
        eta = entropy_density(s, params).values
        flat_p, flat_n, flat_t = (
            s.p.values.ravel(),
            s.n.values.ravel(),
            s.theta.values.ravel(),
        )
        for idx in range(0, flat_p.size, 37):
            want = -flat_p[idx] * (
                math.log(flat_p[idx]) - params.c_p * math.log(flat_t[idx])
            ) - flat_n[idx] * (math.log(flat_n[idx]) - params.c_n * math.log(flat_t[idx]))
            assert abs(eta.ravel()[idx] - want) <= 1e-14


class TestEntropyProduction:
    def test_zero_fluxes(self, grid3d, params):
        s = State.equilibrium(grid3d)
        fl = constitutive_fluxes(s, params)
        d = entropy_production_density(fl, s, params)
        assert np.abs(d.values).max() <= 1e-25

    def test_unit_flux_substitution(self, grid3d):
        s = State.equilibrium(grid3d)
        params = PhysParams(D_p=1.0)
        zeros = VectorField(grid3d, (np.zeros(grid3d.shape),) * 3)
        e1 = VectorField(
            grid3d,
            (np.ones(grid3d.shape),) + tuple(np.zeros(grid3d.shape) for _ in range(2)),
        )
        fl = FluxSet(
            j_p=e1, j_n=zeros, q=zeros, j_e=zeros, exchange=zeros,
            phi_t=ScalarField.constant(grid3d, 0.0),
        )
        d = entropy_production_density(fl, s, params)
        assert np.abs(d.values - 1.0).max() <= 1e-14

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative_and_matches_loop(self, seed):
        grid = GridSpec(dim=2, n=8, length=1.0)
        s = perturbed_state(grid, seed=seed, amplitude=5e-2)
        params = PhysParams()
        fl = constitutive_fluxes(s, params)
        d = entropy_production_density(fl, s, params).values
        assert d.min() >= 0.0
        # spot-check against an independent scalar loop
        jp = [c.ravel() for c in fl.j_p.components]
        jn = [c.ravel() for c in fl.j_n.components]
        q = [c.ravel() for c in fl.q.components]
        pv, nv, tv = s.p.values.ravel(), s.n.values.ravel(), s.theta.values.ravel()
        for idx in range(0, pv.size, 17):
            want = (
                sum(j[idx] ** 2 for j in jp) / (params.D_p * pv[idx] * tv[idx])
                + sum(j[idx] ** 2 for j in jn) / (params.D_n * nv[idx] * tv[idx])
                + sum(j[idx] ** 2 for j in q) / (params.k * tv[idx] ** 2)
            )
            assert abs(d.ravel()[idx] - want) <= 1e-14 * max(1.0, want)


class TestOnsagerBlock:
    def test_equilibrium_cross_coefficient(self, grid3d):
        block = onsager_block(State.equilibrium(grid3d), PhysParams(c_p=1.5, c_n=1.5))
        assert np.abs(block.L_ptheta.values - 2.5).max() <= 1e-14

    def test_equilibrium_chemical_potentials(self, grid3d, params):
        block = onsager_block(State.equilibrium(grid3d), params)
        assert np.abs(block.mu_p.values).max() <= 1e-14
        assert np.abs(block.mu_n.values).max() <= 1e-14

    def test_symmetry_is_structural(self, params):
        # one L_ptheta array serves the j_p row and the j_e row (it is also
        # L_thetap): corrupting it moves both reconstructions, not j_n
        from dataclasses import replace

        grid = GridSpec(dim=3, n=16, length=1.0)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        fl = constitutive_fluxes(s, params)
        block = onsager_block(s, params)
        corrupted = replace(block, L_ptheta=ScalarField(grid, block.L_ptheta.values * 1.5))
        clean = reconstruct_fluxes(s, params, block, fl)
        bad = reconstruct_fluxes(s, params, corrupted, fl)

        def change(row, ref):
            dev = max(np.abs(a - b).max() for a, b in zip(clean[row].components,
                                                          bad[row].components))
            return dev / max(np.abs(c).max() for c in ref.components)

        assert change(0, fl.j_p) > 0.1
        assert change(2, fl.j_e) > 0.1
        assert change(1, fl.j_n) == 0.0


class TestFluxReconstruction:
    def test_equilibrium_zero_residual(self, grid3d, params):
        assert flux_reconstruction_residual(State.equilibrium(grid3d), params) == 0.0

    def test_single_mode_theta_perturbation(self):
        grid = GridSpec(dim=3, n=16, length=1.0)
        x = grid.axes_coordinates()[0]
        one = ScalarField.constant(grid, 1.0)
        theta = ScalarField(grid, 1.0 + 1e-3 * np.sin(2 * np.pi * x))
        s = State.from_primitives(one, one, theta)
        assert flux_reconstruction_residual(s, PhysParams()) <= 1e-10

    def test_random_small_perturbation(self, params):
        # on 8^3 the quartic tails of log(p)/theta-quotients reach the
        # Nyquist mode, so the amplitude must keep them below tolerance
        grid = GridSpec(dim=3, n=8, length=1.0)
        s = perturbed_state(grid, seed=43, amplitude=1e-4, kmax=1)
        assert flux_reconstruction_residual(s, params) <= 1e-10

    def test_random_small_perturbation_16(self, params):
        grid = GridSpec(dim=3, n=16, length=1.0)
        s = perturbed_state(grid, seed=43, amplitude=1e-3, kmax=1)
        assert flux_reconstruction_residual(s, params) <= 1e-10

    def test_energy_flux_reconstruction(self, params):
        # the derived L_thetatheta makes the energy-flux row exact too
        grid = GridSpec(dim=3, n=8, length=1.0)
        s = perturbed_state(grid, seed=47, amplitude=1e-4, kmax=1)
        fl = constitutive_fluxes(s, params)
        _, _, j_e_rec = reconstruct_fluxes(s, params, onsager_block(s, params), fl)
        scale = max(np.abs(c).max() for c in fl.j_e.components)
        for rec, ref in zip(j_e_rec.components, fl.j_e.components):
            assert np.abs(rec - ref).max() <= 1e-10 * scale

    def test_corrupted_block_detected(self, params):
        # on a resolved state, where the clean block reconstructs to rounding
        from dataclasses import replace

        grid = GridSpec(dim=3, n=16, length=1.0)
        s = perturbed_state(grid, seed=13, amplitude=1e-3, kmax=1)
        block = onsager_block(s, params)
        corrupted = replace(
            block,
            L_ptheta=ScalarField(grid, block.L_ptheta.values * 1.5),
        )
        assert flux_reconstruction_residual(s, params, block) <= 1e-10
        assert flux_reconstruction_residual(s, params, corrupted) > 1e-3


class TestFluxAudit:
    """flux_audit streams what an audit sample needs of the fluxes and
    equals the definitions bit for bit."""

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_is_the_definition(self, dim, n):
        params = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=21, amplitude=5e-2)
        production, residual = flux_audit(s, params)
        want = entropy_production_density(constitutive_fluxes(s, params), s, params)
        assert np.array_equal(production.values, want.values)
        assert residual == flux_reconstruction_residual(s, params)
        assert residual > 0.0

    def test_equilibrium(self, grid3d, params):
        production, residual = flux_audit(State.equilibrium(grid3d), params)
        assert residual == 0.0
        assert not production.values.any()
