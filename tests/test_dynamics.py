"""Right-hand sides and time stepping: equilibrium fixed point, analytic
slices, cross-formulation consistency, conservation structure, stepping
order, and the potential-sign reconciliation."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pnpf import dynamics, fields
from pnpf.dynamics import (
    PerturbationState,
    _imex1,
    _linear_block,
    _rhs_perturbation_core,
    _rhs_primitive_core,
    StepAbort,
    StepperConfig,
    carried,
    convert,
    convert_back,
    integrate,
    rhs_perturbation,
    rhs_primitive,
    stability_bound,
    step,
)
from pnpf import cli
from pnpf.fields import PhysParams, State
from pnpf.grid import GridSpec, ScalarField, grad_arrays
from pnpf.poisson import solve, solve_array

from . import oracles
from .conftest import (
    band_limited, count_transforms, dealiased, inner, laplacian, peak_grids, perturbation_state,
    perturbed_state,
)

# hypothesis draws: capacities with c_p != c_n, mobilities with D_p != D_n,
# and parameter sets with both and k != 1
CAPS = st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)).filter(lambda c: c[0] != c[1])
MOBS = st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)).filter(lambda d: d[0] != d[1])
PARAM_SETS = st.builds(
    lambda c, d, k: PhysParams(c_p=c[0], c_n=c[1], D_p=d[0], D_n=d[1], k=k),
    CAPS, MOBS, st.floats(0.2, 3.0).filter(lambda k: k != 1.0),
)
# random primitive states: dealiased (kmax = 2 <= n/3), of three sizes
STATES = dict(
    dim=st.integers(1, 3),
    n=st.sampled_from([8, 16]),
    seed=st.integers(0, 10_000),
    amplitude=st.sampled_from([1e-3, 5e-2, 0.3]),
)


class TestSignReconciliation:
    def test_screening_pairing_identity(self, grid3d):
        # With Delta(phi) = v (v = n - p), the paper-level identity
        # <laplacian(v) - 2v, phi> = ||v||^2 + 2||grad phi||^2 must hold
        # with both sides positive; the opposite sign convention flips it.
        v = band_limited(grid3d, seed=1, kmax=2)
        phi = solve(ScalarField(grid3d, v)).values
        lhs = inner(grid3d, laplacian(grid3d, v) - 2.0 * v, phi)
        want = inner(grid3d, v, v) + 2.0 * sum(
            inner(grid3d, c, c) for c in grad_arrays(grid3d, phi)
        )
        assert want > 0
        assert abs(lhs - want) <= 1e-12 * want


class TestRhsPrimitive:
    def test_equilibrium_fixed_point(self, grid3d, params):
        dn, dp, dth = rhs_primitive(State.equilibrium(grid3d), params)
        for f in (dn, dp, dth):
            assert np.abs(f.values).max() <= 1e-13

    def test_pure_diffusion_slice(self):
        # n = p = 1, theta = 1 + a sin(2 pi x/L), phi = 0:
        # dn = dp = laplacian(n theta) = -a (2 pi/L)^2 sin(2 pi x/L);
        # expected values evaluated through an independent symbolic path
        import sympy as sp

        grid = GridSpec(dim=3, n=16, length=2.0)
        L, a = grid.length, 0.01
        x = grid.axes_coordinates()[0]
        one = ScalarField.constant(grid, 1.0)
        theta = ScalarField(grid, 1.0 + a * np.sin(2 * np.pi * x / L))
        s = State.from_primitives(one, one, theta)
        dn, dp, _ = rhs_primitive(s, PhysParams())

        xs = sp.symbols("x")
        expr = sp.diff(1 * (1 + a * sp.sin(2 * sp.pi * xs / L)), xs, 2)
        want = sp.lambdify(xs, expr, "numpy")(x)
        assert np.abs(dn.values - want).max() <= 1e-12
        assert np.abs(dp.values - want).max() <= 1e-12

    def test_mass_rates_have_zero_mean(self, grid3d, params):
        s = perturbed_state(grid3d, seed=5, amplitude=1e-2)
        dn, dp, _ = rhs_primitive(s, params)
        assert abs(dn.values.mean()) <= 1e-14
        assert abs(dp.values.mean()) <= 1e-14

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_matches_stored_case(self, dim, n, dealias):
        # data/rhs_primitive.npz was recorded from the RHS as it stood at
        # commit 27688da, before it shared fields.darcy_arrays; on the host
        # that recorded it the output is bit-identical, and the bound leaves
        # room only for FFT rounding differences between hosts
        want = np.load(Path(__file__).parent / "data" / "rhs_primitive.npz")[
            f"rhs_{dim}d_dealias_{dealias}"
        ]
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        params = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)
        got = np.stack([f.values for f in rhs_primitive(s, params, dealias)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @given(
        dim=st.integers(1, 3),
        n=st.sampled_from([8, 16, 32]),
        seed=st.integers(0, 10_000),
        band=st.booleans(),
        caps=CAPS,
        mobs=MOBS,
    )
    @settings(max_examples=30, deadline=None)
    def test_core_mass_modes_are_exactly_zero(self, dim, n, seed, band, caps, mobs):
        # the continuity rates are spectral divergences, whose k = 0
        # multiplier is 0: ion masses are conserved exactly, not to rounding,
        # also with band transforms of a carried (band-projected) spectrum
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=5e-2)
        params = PhysParams(c_p=caps[0], c_n=caps[1], D_p=mobs[0], D_n=mobs[1], k=0.9)
        if band:
            s = carried(s, StepperConfig())
        ys = [s.n.values, s.p.values, s.theta.values]
        spec = s.spec if band else grid.fft(np.stack(ys))
        out = _rhs_primitive_core(grid, spec, *ys, params, band=band)
        origin = (0,) * dim
        assert out[0][origin] == 0.0 and out[1][origin] == 0.0

    @given(dealias=st.booleans(), params=PARAM_SETS, **STATES)
    @settings(max_examples=30, deadline=None)
    def test_heat_rate_matches_the_nine_sum_oracle(self, dim, n, seed, amplitude, dealias, params):
        # the RHS folds the Joule terms into three running sums; the
        # expanded nine-sum rate is the same function up to rounding, and
        # the continuity rates keep their bits
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=amplitude)
        ys = [s.n.values, s.p.values, s.theta.values]
        got = [f.values for f in rhs_primitive(s, params, dealias)]
        want = oracles.nine_sum_rhs(grid, *ys, params, dealias)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.abs(got[2] - want[2]).max() <= 1e-13 * np.abs(want[2]).max()

    @given(band=st.booleans(), params=PARAM_SETS, **STATES)
    @settings(max_examples=30, deadline=None)
    def test_core_matches_the_batched_oracle(self, dim, n, seed, amplitude, band, params):
        # the core transforms one field per call, but for the band core's
        # 3-field forward transform of its rates; pocketfft computes each
        # field the same way in any batch and the sums keep their order, so
        # the output spectrum and the audit sample have the batched
        # kernel's bits, also with band transforms of a carried
        # (band-projected) spectrum against the oracle's full transforms
        # and mask
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=amplitude)
        if band:
            s = carried(s, StepperConfig())
        ys = [s.n.values, s.p.values, s.theta.values]
        spec = s.spec if band else grid.fft(np.stack(ys))
        assert np.array_equal(
            _rhs_primitive_core(grid, spec, *ys, params, band=band),
            oracles.batched_rhs_core(grid, spec, *ys, params, band),
        )
        got_sink, want_sink = fields.AuditSink(s, params), fields.AuditSink(s, params)
        got = _rhs_primitive_core(grid, spec, *ys, params, got_sink, band=band)
        want = oracles.batched_rhs_core(grid, spec, *ys, params, band, want_sink)
        assert np.array_equal(got, want)
        assert np.array_equal(got_sink.audit.production.values, want_sink.audit.production.values)
        assert got_sink.audit.residual == want_sink.audit.residual


def band_rates(s, params):
    """(dn, dp, dtheta) of a carried (band-projected) State as a dealiased
    step takes them: the core with band on the carried spectrum, whose ion
    rates are the heat rate's pointwise divergences, inverse transformed."""
    grid = s.grid
    ys = (s.n.values, s.p.values, s.theta.values)
    return grid.ifft(_rhs_primitive_core(grid, s.spec, *ys, params, band=True))


def energy_rate(s, params, dealias, heat_error=0.0, rates=None):
    """(|sum of the semi-discrete energy rate|, its rounding scale) of s:
    the rate of e = (c_p p + c_n n) theta + (p - n) phi/2 with
    Delta(phi) = n - p, summed over the grid, and the sum of the
    magnitudes of its four terms.  The rates are rhs_primitive's, or the
    given (dn, dp, dtheta).  heat_error is a relative error put into the
    heat-rate term."""
    grid = s.grid
    if rates is None:
        rates = (f.values for f in rhs_primitive(s, params, dealias))
    dn, dp, dth = rates
    n_, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
    phi_t = solve(ScalarField(grid, dn - dp)).values
    heat = (params.c_p * p + params.c_n * n_) * dth * (1.0 + heat_error)
    ions = th * (params.c_p * dp + params.c_n * dn)
    charge = 0.5 * (dp - dn) * phi
    field = 0.5 * (p - n_) * phi_t
    rate = heat + ions
    rate += charge + field
    scale = sum(np.abs(t).sum() for t in (heat, ions, charge, field))
    return abs(rate.sum()), scale


# a draw whose |sum| (9.72e-16) exceeded the former bound, 1e-13 times the
# heat term's magnitude alone (9.40e-16); the bound over all four terms is
# 1.69e-15
ROUNDING_DRAW = dict(dim=1, n=16, seed=0, amplitude=1e-3, dealias=False,
                     params=PhysParams(c_p=1.0, c_n=2.0, D_p=2.0, D_n=0.25, k=0.5))


class TestEnergyIdentity:
    @given(dealias=st.booleans(), params=PARAM_SETS, **STATES)
    @example(**ROUNDING_DRAW)
    @settings(max_examples=30, deadline=None)
    def test_semi_discrete_energy_rate_vanishes(self, dim, n, seed, amplitude, dealias, params):
        # for a dealiased state the RHS conserves the integral of e
        # exactly, so the summed rate is rounding against the magnitudes
        # of the terms that are summed
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=amplitude)
        total, scale = energy_rate(s, params, dealias)
        assert total <= 1e-13 * scale

    @given(params=PARAM_SETS, **STATES)
    @settings(max_examples=30, deadline=None)
    def test_band_core_energy_rate_vanishes(self, dim, n, seed, amplitude, params):
        # the dealiased stepper's core, whose ion rates are the heat rate's
        # pointwise -div j, on a carried (band-projected) state: every term
        # is quadratic in band-limited fields, so the rate is rounding too
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = carried(perturbed_state(grid, seed=seed, amplitude=amplitude), StepperConfig())
        total, scale = energy_rate(s, params, True, rates=band_rates(s, params))
        assert total <= 1e-13 * scale

    def test_bound_catches_a_heat_rate_error(self):
        # a 1e-9 relative error in the heat term of the recorded draw gives
        # |sum| = 6.56e-15, 3.9 times the bound
        d = ROUNDING_DRAW
        s = perturbed_state(GridSpec(dim=d["dim"], n=d["n"], length=2 * np.pi),
                            seed=d["seed"], amplitude=d["amplitude"])
        total, scale = energy_rate(s, d["params"], d["dealias"], heat_error=1e-9)
        assert total > 3.0 * 1e-13 * scale


class TestRhsPerturbation:
    def test_zero_perturbation(self, grid3d, params):
        du, dv, dtt = rhs_perturbation(convert(State.equilibrium(grid3d)), params)
        for f in (du, dv, dtt):
            assert np.abs(f.values).max() <= 1e-13

    def test_single_v_mode_linear_part(self):
        # u_tilde = theta_tilde = 0, v = a sin(2 pi x/L) with slaved phi:
        # dv = laplacian(v) - 2v = -a ((2 pi/L)^2 + 2) sin(2 pi x/L)
        grid = GridSpec(dim=3, n=16, length=1.0)
        a = 1e-3
        x = grid.axes_coordinates()[0]
        k = 2 * np.pi / grid.length
        zero = ScalarField.constant(grid, 0.0)
        v = ScalarField(grid, a * np.sin(k * x))
        ps = PerturbationState.from_fields(zero, v, zero)
        _, dv, _ = rhs_perturbation(ps, PhysParams())
        want = -a * (k**2 + 2.0) * np.sin(k * x)
        assert np.abs(dv.values - want).max() <= 1e-12 * a * (k**2 + 2.0)

    def test_rejects_unequal_capacities(self, grid3d):
        ps = convert(State.equilibrium(grid3d))
        with pytest.raises(ValueError, match="c_p == c_n"):
            rhs_perturbation(ps, PhysParams(c_p=1.5, c_n=2.0))
        with pytest.raises(ValueError, match="c > 1"):
            rhs_perturbation(ps, PhysParams(c_p=1.0, c_n=1.0))

    @pytest.mark.parametrize("name", ["D_p", "D_n", "k"])
    def test_rejects_non_unit_transport(self, name):
        grid = GridSpec(dim=1, n=8, length=2 * np.pi)
        ps = perturbation_state(grid, seed=2, amplitude=1e-2)
        params = PhysParams(**{name: 2.0})
        with pytest.raises(ValueError, match="D_p = D_n = k = 1"):
            rhs_perturbation(ps, params)
        with pytest.raises(ValueError, match="D_p = D_n = k = 1"):
            step(ps, StepperConfig(), params)


class TestCrossFormulation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rhs_agree_through_conversion(self, seed, params):
        grid = GridSpec(dim=3, n=8, length=1.0)
        ps = perturbation_state(grid, seed=seed * 10 + 3, amplitude=1e-3)
        s = convert_back(ps)
        dn, dp, dth = rhs_primitive(s, params)
        du, dv, dtt = rhs_perturbation(ps, params)
        scale = max(np.abs(du.values).max(), np.abs(dv.values).max(),
                    np.abs(dtt.values).max())
        assert np.abs((dn.values + dp.values) - du.values).max() <= 1e-10 * scale
        assert np.abs((dn.values - dp.values) - dv.values).max() <= 1e-10 * scale
        assert np.abs(dth.values - dtt.values).max() <= 1e-10 * scale

    @given(dim=st.integers(1, 3), n=st.sampled_from([8, 16]), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rhs_agree_over_seeds_and_dims(self, dim, n, seed):
        # the kmax = 2 states are dealiased on both grids (2 <= 8/3)
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        params = PhysParams()
        ps = perturbation_state(grid, seed=seed, amplitude=1e-2)
        dn, dp, dth = rhs_primitive(convert_back(ps), params)
        du, dv, dtt = rhs_perturbation(ps, params)
        scale = max(np.abs(du.values).max(), np.abs(dv.values).max(),
                    np.abs(dtt.values).max())
        assert np.abs((dn.values + dp.values) - du.values).max() <= 1e-10 * scale
        assert np.abs((dn.values - dp.values) - dv.values).max() <= 1e-10 * scale
        assert np.abs(dth.values - dtt.values).max() <= 1e-10 * scale

    @given(c=st.floats(1.1, 3.0), **STATES)
    @settings(max_examples=30, deadline=None)
    def test_band_cores_agree_through_conversion(self, dim, n, seed, amplitude, c):
        # the band cores of a carried (band-projected) state, the primitive
        # one with its ion rates from the pointwise -div j, and the
        # perturbation one on the converted spectrum (u_tilde_hat = n_hat +
        # p_hat - 2, v_hat = n_hat - p_hat, theta_tilde_hat = theta_hat - 1)
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        params = PhysParams(c_p=c, c_n=c)
        s = carried(perturbed_state(grid, seed=seed, amplitude=amplitude), StepperConfig())
        dn, dp, dth = band_rates(s, params)
        n_hat, p_hat, th_hat = s.spec
        spec3 = np.stack([n_hat + p_hat, n_hat - p_hat, th_hat])
        origin, size = (0,) * dim, grid.n**dim
        spec3[0][origin] -= 2.0 * size
        spec3[2][origin] -= size
        du, dv, dtt = grid.ifft(_rhs_perturbation_core(grid, spec3, params, band=True))
        scale = max(np.abs(du).max(), np.abs(dv).max(), np.abs(dtt).max())
        assert np.abs((dn + dp) - du).max() <= 1e-10 * scale
        assert np.abs((dn - dp) - dv).max() <= 1e-10 * scale
        assert np.abs(dth - dtt).max() <= 1e-10 * scale

    def test_agreement_is_roundoff_level(self, params):
        # the two discretizations are algebraically parallel; the gap
        # should sit far below the acceptance tolerance
        grid = GridSpec(dim=3, n=8, length=1.0)
        ps = perturbation_state(grid, seed=99, amplitude=1e-2)
        s = convert_back(ps)
        _, _, dth = rhs_primitive(s, params)
        _, _, dtt = rhs_perturbation(ps, params)
        scale = np.abs(dtt.values).max()
        assert np.abs(dth.values - dtt.values).max() <= 1e-12 * scale


class TestConvert:
    def test_equilibrium_maps_to_zero(self, grid3d):
        ps = convert(State.equilibrium(grid3d))
        for f in (ps.u_tilde, ps.v, ps.theta_tilde, ps.phi):
            assert np.abs(f.values).max() == 0.0

    def test_arithmetic_example(self, grid3d):
        n = ScalarField.constant(grid3d, 1.1)
        p = ScalarField.constant(grid3d, 0.9)
        th = ScalarField.constant(grid3d, 1.05)
        with pytest.raises(Exception):
            # constant charge imbalance is non-neutral on the torus
            State.from_primitives(n, p, th)
        # the variable map itself is plain arithmetic; check via a neutral
        # spatially varying state
        s = perturbed_state(grid3d, seed=8, amplitude=1e-2)
        ps = convert(s)
        assert np.abs(ps.u_tilde.values - (s.n.values + s.p.values - 2)).max() == 0.0
        assert np.abs(ps.v.values - (s.n.values - s.p.values)).max() == 0.0
        assert np.abs(ps.theta_tilde.values - (s.theta.values - 1)).max() == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, seed):
        grid = GridSpec(dim=2, n=8, length=1.0)
        s = perturbed_state(grid, seed=seed, amplitude=1e-2)
        back = convert_back(convert(s))
        for a, b in ((back.n, s.n), (back.p, s.p), (back.theta, s.theta)):
            assert np.abs(a.values - b.values).max() <= 1e-15


class TestPerturbationPositivity:
    """The perturbation form holds the primitive form's floor: its state,
    stage and closing checks test the n, p and theta that convert_back
    gives, so a v that takes n or p below the floor is caught although
    2 + u_tilde stays positive."""

    GRID = GridSpec(dim=1, n=8, length=2 * np.pi)

    @staticmethod
    def v_wave(grid, amplitude):
        """u_tilde = theta_tilde = 0 and v = amplitude sin(x): n and p dip
        to 1 - amplitude/2."""
        zero = ScalarField.constant(grid, 0.0)
        v = amplitude * np.sin(grid.axes_coordinates()[0])
        return zero, ScalarField(grid, v), zero

    def test_a_v_below_the_floor_is_rejected(self):
        # min n = min p = -0.5 with u_tilde = 0 (the parent accepted it)
        with pytest.raises(fields.PositivityError, match=r"min\(n\)"):
            PerturbationState.from_fields(*self.v_wave(self.GRID, 3.0))

    @given(
        ut=st.lists(st.floats(-3.0, 1.0), min_size=8, max_size=8),
        v=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
        tt=st.lists(st.floats(-1.0 - 1e-7, 1.0), min_size=8, max_size=8),
    )
    @example(ut=[0.0] * 8, v=[3.0, -3.0] * 4, tt=[0.0] * 8)
    @example(ut=[0.0] * 8, v=[0.0] * 8, tt=[-1.0 + fields.POSITIVITY_FLOOR] + [0.0] * 7)
    @settings(max_examples=200, deadline=None)
    def test_accepted_exactly_when_the_primitive_fields_clear_the_floor(self, ut, v, tt):
        # the constructor, and the stage check, which reads the extremes of
        # u_tilde +- v and theta_tilde in spectral scratch
        grid = self.GRID
        ut, v, tt = np.array(ut), np.array(v), np.array(tt)
        v -= v.mean()
        floor = fields.POSITIVITY_FLOOR
        ok = all(f.min() >= floor for f in (1.0 + 0.5 * (ut + v), 1.0 + 0.5 * (ut - v), 1.0 + tt))
        zero = ScalarField.constant(grid, 0.0)
        build = lambda: PerturbationState(
            ScalarField(grid, ut), ScalarField(grid, v), ScalarField(grid, tt), zero)
        check = lambda: dynamics._check_stage(
            np.stack([ut, v, tt]), floor, dynamics._PERTURBATION,
            np.empty((3,) + grid.spectral_shape, dtype=complex))
        if ok:
            build()
            check()
        else:
            with pytest.raises(fields.PositivityError):
                build()
            with pytest.raises(StepAbort, match="positivity floor breached"):
                check()

    @pytest.mark.parametrize("dealias", [True, False])
    def test_carried_state_check_reads_n_and_p(self, dealias):
        # min n = min p = 0.98, 2 + u_tilde = 2 and 1 + theta_tilde = 1:
        # a floor of 0.99 fails n, through the closing check (dealias) or
        # the check of an unprojected state
        ps = PerturbationState.from_fields(*self.v_wave(self.GRID, 0.04))
        cfg = StepperConfig(dealias=dealias, positivity_floor=0.99)
        with pytest.raises(StepAbort, match=r"positivity floor breached: min\(n\) = 9\.8"):
            carried(ps, cfg)
        assert carried(ps, StepperConfig(dealias=dealias, positivity_floor=0.97)).spec is not None

    def test_stage_check_reads_n_and_p(self, monkeypatch):
        # the first RK4 stage at dt = 4 takes v to about -5 times its
        # initial wave (1 - 2 (|k|^2 + 2) = -5), so n dips to about 0.95
        # below the floor 0.97, while 2 + u_tilde stays near 2; the step
        # aborts right after that stage's inverse transform (the counts
        # of TestCarriedSpectrum::test_stage_breach_aborts_inside_the_rhs)
        grid = GridSpec(dim=1, n=32, length=2 * np.pi)
        ps = PerturbationState.from_fields(*self.v_wave(grid, 0.02))
        cfg = StepperConfig(scheme="RK4", dt=4.0, t_end=4.0, positivity_floor=0.97)
        counted = count_transforms(monkeypatch)
        with pytest.raises(StepAbort, match=r"positivity floor breached: min\(n\)"):
            step(ps, cfg, PhysParams())
        assert counted == [3, 4, 7, 3, 10]


class TestStep:
    def test_equilibrium_is_fixed_point(self, grid3d, params):
        s = State.equilibrium(grid3d)
        cfg = StepperConfig(scheme="RK4", dt=1e-3, t_end=1e-2)
        out = s
        for _ in range(10):
            out = step(out, cfg, params)
        assert np.abs(out.n.values - 1.0).max() <= 1e-13
        assert np.abs(out.theta.values - 1.0).max() <= 1e-13

    def test_heat_slice_decay_rate(self, params):
        # theta-only evolution with n = p = 1 frozen: the linearized
        # temperature equation decays like exp(-(3/(2c)) k^2 t); integrate
        # only the theta component with a test-local RK4 loop
        grid = GridSpec(dim=1, n=16, length=1.0)
        c = params.c
        (x,) = grid.axes_coordinates()
        k = 2 * np.pi / grid.length
        a = 1e-8
        zero = ScalarField.constant(grid, 0.0)
        tt = a * np.sin(k * x)
        dt, steps = 1e-5, 200

        def rhs_theta(tt_vals):
            ps = PerturbationState.from_fields(
                zero, zero, ScalarField(grid, tt_vals)
            )
            return rhs_perturbation(ps, params)[2].values

        y = tt.copy()
        for _ in range(steps):
            k1 = rhs_theta(y)
            k2 = rhs_theta(y + 0.5 * dt * k1)
            k3 = rhs_theta(y + 0.5 * dt * k2)
            k4 = rhs_theta(y + dt * k3)
            y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

        decay = math.exp(-(3.0 / (2.0 * c)) * k**2 * dt * steps)
        got = np.abs(y).max() / a
        assert abs(got - decay) <= 1e-6 * decay

    def test_rk4_self_convergence_order(self, params):
        # halving dt cuts the step-integration error ~16x (order 4)
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        ps0 = perturbation_state(grid, seed=21, amplitude=1e-2, kmax=2)

        def advance(dt, t_end):
            cfg = StepperConfig(scheme="RK4", dt=dt, t_end=t_end)
            out = ps0
            for _ in range(cfg.n_steps):
                out = step(out, cfg, params)
            return out

        t_end = 0.2
        ref = advance(0.00125, t_end)
        coarse = advance(0.02, t_end)
        fine = advance(0.01, t_end)
        err_c = np.abs(coarse.v.values - ref.v.values).max()
        err_f = np.abs(fine.v.values - ref.v.values).max()
        order = math.log2(err_c / err_f)
        assert order >= 3.5

    def test_imex1_self_convergence_order(self, params):
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        ps0 = perturbation_state(grid, seed=22, amplitude=1e-2, kmax=2)

        def advance(dt, t_end):
            cfg = StepperConfig(scheme="IMEX1", dt=dt, t_end=t_end)
            out = ps0
            for _ in range(cfg.n_steps):
                out = step(out, cfg, params)
            return out

        t_end = 0.2
        ref = advance(0.0005, t_end)
        coarse = advance(0.02, t_end)
        fine = advance(0.01, t_end)
        err_c = np.abs(coarse.v.values - ref.v.values).max()
        err_f = np.abs(fine.v.values - ref.v.values).max()
        order = math.log2(err_c / err_f)
        assert 0.7 <= order <= 1.5

    def test_imex1_stable_beyond_rk4_limit(self, params):
        # IMEX treats the stiff constant-coefficient block implicitly, so a
        # dt far above the explicit diffusion limit must stay bounded
        grid = GridSpec(dim=1, n=64, length=1.0)
        ps = perturbation_state(grid, seed=30, amplitude=1e-3, kmax=2)
        rk4_limit = stability_bound(grid, params, "RK4", primitive=False)
        cfg = StepperConfig(scheme="IMEX1", dt=50 * rk4_limit, t_end=1.0)
        out = ps
        for _ in range(20):
            out = step(out, cfg, params)
        l2 = lambda f: math.sqrt(inner(grid, f.values, f.values))
        assert l2(out.v) <= l2(ps.v)

    # IMEX1 keeps the means too: a = dt |k|^2 vanishes at k = 0, so the
    # update returns the mean rows of b = y + dt (f + 0) with mean(f) = 0
    @pytest.mark.parametrize("scheme", ["RK4", "IMEX1"])
    def test_mass_conserved_over_steps(self, params, scheme):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=23, amplitude=1e-2)
        cfg = StepperConfig(scheme=scheme, dt=2e-3, t_end=0.2)
        mass_n0 = s.n.values.sum() * grid.cell_volume
        out = s
        for _ in range(100):
            out = step(out, cfg, params)
        mass_n = out.n.values.sum() * grid.cell_volume
        assert abs(mass_n - mass_n0) <= 1e-13 * abs(mass_n0)

    def test_neutrality_preserved(self, params):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        ps = perturbation_state(grid, seed=24, amplitude=1e-2)
        cfg = StepperConfig(scheme="RK4", dt=2e-3, t_end=0.2)
        out = ps
        for _ in range(100):
            out = step(out, cfg, params)
        assert abs(out.v.values.mean()) <= 1e-13

    def test_positivity_abort(self, grid3d, params):
        # a state already hugging the floor must abort, not clamp
        n = ScalarField.constant(grid3d, 2e-8)
        s = State(n, n, ScalarField.constant(grid3d, 1.0), ScalarField.constant(grid3d, 0.0))
        cfg = StepperConfig(scheme="RK4", dt=1.0, t_end=1.0, positivity_floor=1e-4)
        with pytest.raises(StepAbort, match="positivity"):
            step(s, cfg, params)

    def test_rejects_unknown_type(self, params):
        cfg = StepperConfig()
        with pytest.raises(TypeError):
            step(42, cfg, params)


class TestStreamedKernels:
    """The RHS takes the gradients one axis at a time and RK4 keeps one
    running stage sum; both are bit-identical to the unstreamed forms."""

    PARAMS = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)

    # the step builds its stages spectrally and inverse-transforms each
    # once, with band transforms when it dealiases; the textbook
    # composition on the spectrum, with full transforms, has its bits
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_rk4_step_is_the_textbook_combination(self, dim, n, dealias):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        dt = 1e-3
        ys = [s.n.values, s.p.values, s.theta.values]
        want = oracles.primitive_rk4_step(grid, ys, self.PARAMS, dt, dealias)
        got = step(s, StepperConfig(scheme="RK4", dt=dt, dealias=dealias), self.PARAMS)
        for name, b in zip(("n", "p", "theta", "phi"), want):
            assert np.array_equal(getattr(got, name).values, b)

    # peaks at 32^3 above the call's entry, in full grids: measured RHS
    # 15.9 and one-off RK4 step 27.8, slots included (the step makes its
    # own) and 7.2 of them the band projection of the state, which carries
    # no spectrum: its four fields and its spectrum.  A run's step of a
    # carried state, given the run's slots, peaks at 15.6 for RK4 and 9.6
    # for IMEX1 (test_run_step_peak_memory).  The dealiased steps' cores
    # hold no spectral divergence sums; with them the RK4 steps were 29.3
    # and 17.0.  While each flux's forward transform made a new spectrum,
    # and the step ran on real arrays and closed with a Poisson solve, they
    # were 17.0, 23.0 (no projection), 17.9 and 12.8
    def test_rhs_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        assert peak_grids(lambda: rhs_primitive(s, self.PARAMS), grid) <= 16.3

    def test_rk4_step_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme="RK4", dt=1e-4)
        assert peak_grids(lambda: step(s, cfg, self.PARAMS), grid) <= 28.3

    @pytest.mark.parametrize("scheme, bound", [("RK4", 17.4), ("IMEX1", 10.0)])
    def test_run_step_peak_memory(self, scheme, bound):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        cfg = StepperConfig(scheme=scheme, dt=1e-4)
        slots = fields.new_slots(grid)
        s = carried(perturbed_state(grid, seed=5, amplitude=5e-2), cfg, slots)
        assert peak_grids(lambda: step(s, cfg, self.PARAMS, slots=slots), grid) <= bound


class TestPerturbationPeaks:
    """The perturbation RHS fills its spectral stack in place, makes its
    real buffer only once the stack is filled and its input spectrum freed,
    and does its arithmetic in the stack's memory; a step builds its RK4
    stages in the stack's last three rows.  Measured peaks in full grids:
    RHS 25.5 at 64^2 and 34.0 at 32^3, one-off RK4 step 38.8 and one-off
    IMEX1 step 35.7 at 64^2, a 10-step integrate 45.0 at 64^2.  A one-off
    step from a state that carries no spectrum projects it onto the band
    first and keeps that projection, its four fields and its spectrum,
    through the step: without the projection the one-off steps peaked at
    34.9 and 31.7.  Before the stepper carried its spectrum they were 28.3,
    34.1, 37.3 (RK4) and 52.7; with the real buffer made up front, the
    stage in new arrays and k kept alive by the last rate row through the
    next stage, 30.1, 38.2, 42.5 and 51.2."""

    @staticmethod
    def state(dim, n):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        return grid, convert(perturbed_state(grid, seed=5, amplitude=5e-2))

    @pytest.mark.parametrize("dim, n, bound", [(2, 64, 29.0), (3, 32, 35.0)], ids=["2d", "3d"])
    def test_rhs_peak_memory(self, dim, n, bound):
        grid, ps = self.state(dim, n)
        assert peak_grids(lambda: rhs_perturbation(ps, PhysParams()), grid) <= bound

    def test_rk4_step_peak_memory(self):
        grid, ps = self.state(2, 64)
        cfg = StepperConfig(scheme="RK4", dt=1e-4)
        assert peak_grids(lambda: step(ps, cfg, PhysParams()), grid) <= 39.2

    def test_imex1_step_peak_memory(self):
        grid, ps = self.state(2, 64)
        cfg = StepperConfig(scheme="IMEX1", dt=1e-4)
        assert peak_grids(lambda: step(ps, cfg, PhysParams()), grid) <= 36.1

    def test_integrate_peak_memory(self):
        # the run's buffers, the carried spectra of the old and the new
        # state, the RK4 accumulator and one rate spectrum
        grid, ps = self.state(2, 64)
        cfg = StepperConfig(scheme="RK4", dt=1e-4, t_end=1e-3)

        def run():
            for i, _, _ in integrate(ps, cfg, PhysParams()):
                pass
            assert i == 10

        assert peak_grids(run, grid) <= 46.0


class TestCarriedSpectrum:
    """A perturbation-form step advances the spectrum y_hat of (u_tilde, v,
    theta_tilde), which the state carries: each RHS evaluation makes one
    batched inverse transform and one forward transform, and one inverse
    transform of (y_hat, phi_hat) closes the step.  It is the real-space
    composition up to rounding."""

    PARAMS = PhysParams()

    # n = 16: undealiased steps at n = 8 move mean(v) past the neutrality
    # tolerance within a few steps (the products reach the Nyquist mode),
    # in either composition
    @pytest.mark.parametrize("scheme", ["RK4", "IMEX1"])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_integrate_is_the_real_space_composition(self, dim, dealias, scheme):
        grid = GridSpec(dim=dim, n=16, length=2 * np.pi)
        ps = convert(perturbed_state(grid, seed=9, amplitude=5e-2))
        cfg = StepperConfig(scheme=scheme, dt=1e-3, t_end=2e-2, dealias=dealias)
        oracle = {"RK4": oracles.perturbation_rk4_step, "IMEX1": oracles.perturbation_imex1_step}
        ys = [ps.u_tilde.values, ps.v.values, ps.theta_tilde.values]
        for i, _, got in integrate(ps, cfg, self.PARAMS):
            if i:
                ys = oracle[scheme](grid, ys, self.PARAMS, cfg.dt, dealias)
            want = ys + [solve_array(grid, ys[1])]
            for name, w in zip(("u_tilde", "v", "theta_tilde", "phi"), want):
                assert np.abs(getattr(got, name).values - w).max() <= 1e-12 * np.abs(w).max()
        assert i == 20

    # real-field transforms of an undealiased one-off step from a state
    # that carries no spectrum (want): its forward transform 3, then per RHS
    # evaluation one batched inverse of the 4*dim gradients and 3
    # Laplacians, plus the stage's 3 values after k1, and the forward
    # transform of the 3 rates, and the closing inverse of (y_hat, phi_hat)
    # 4.  A dealiased one-off step projects the state first, which adds the
    # projection's closing inverse 4, and then runs band transforms only
    @pytest.mark.parametrize("dim, scheme, want", [
        (2, "RK4", 72), (2, "IMEX1", 21), (3, "RK4", 88), (3, "IMEX1", 25),
    ])
    def test_step_transform_count(self, monkeypatch, dim, scheme, want):
        grid = GridSpec(dim=dim, n=8, length=2 * np.pi)
        ps = convert(perturbed_state(grid, seed=9, amplitude=5e-2))
        calls = {"RK4": 10, "IMEX1": 4}[scheme]
        for dealias, extra in ((False, 0), (True, 4)):
            cfg = StepperConfig(scheme=scheme, dt=1e-3, dealias=dealias)
            bands = []
            counted = count_transforms(monkeypatch, bands)
            new = step(ps, cfg, self.PARAMS)
            assert sum(counted) == want + extra
            assert len(counted) == calls + (extra > 0)
            # the new state carries its spectrum, so its own step skips the
            # forward transform and the projection
            counted.clear()
            bands.clear()
            step(new, cfg, self.PARAMS)
            assert sum(counted) == want - 3
            assert bands == [dealias] * (calls - 1)

    def test_stage_breach_aborts_inside_the_rhs(self, monkeypatch):
        # the initial state clears the floor; the first stage of a step far
        # past the stability bound does not, and the step aborts right after
        # that stage's inverse transform: the state's forward transform 3 and
        # its projection's closing inverse 4, k1's 7 and 3, and the stage's
        # 10 at dim 1
        grid = GridSpec(dim=1, n=32, length=1.0)
        ps = perturbation_state(grid, seed=31, amplitude=5e-2, kmax=10)
        cfg = StepperConfig(scheme="RK4", dt=1.0, positivity_floor=0.9)
        counted = count_transforms(monkeypatch)
        with pytest.raises(StepAbort, match=r"positivity floor breached: min\(\w"):
            step(ps, cfg, self.PARAMS)
        assert counted == [3, 4, 7, 3, 10]


class TestBandStepping:
    """With dealias on, a step works on the band projection of its state,
    and every transform of it is a band transform."""

    @given(dim=st.integers(1, 3), n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 10_000),
           scheme=st.sampled_from(["RK4", "IMEX1"]), primitive=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_carried_spectrum_stays_in_the_band(self, dim, n, seed, scheme, primitive):
        # the carried spectrum is exactly 0 outside the band after 10
        # steps, from a state with content outside it (kmax = n/2)
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=1e-3, kmax=n // 2)
        cfg = StepperConfig(scheme=scheme, dt=1e-5, t_end=1e-4)
        outside = ~grid.dealias_mask
        for i, _, state in integrate(s if primitive else convert(s), cfg, PhysParams()):
            assert not state.spec[:, outside].any()
        assert i == 10

    @given(dim=st.integers(1, 3), n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 10_000),
           primitive=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_schemes_start_from_the_same_projection(self, dim, n, seed, primitive):
        # a random_band state with band > n//3: RK4 and IMEX1 start from
        # its projection, which drops the content above n//3
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = cli.random_band_state(grid, seed, grid.n // 3 + 1, 1e-2)
        s = s if primitive else convert(s)
        starts = []
        for scheme in ("RK4", "IMEX1"):
            cfg = StepperConfig(scheme=scheme, dt=1e-5, t_end=1e-5)
            _, _, start = next(integrate(s, cfg, PhysParams()))
            starts.append(start)
        rows = ("n", "p", "theta") if primitive else ("u_tilde", "v", "theta_tilde")
        for name in rows + ("phi",):
            assert np.array_equal(getattr(starts[0], name).values,
                                  getattr(starts[1], name).values)
        for name in rows:
            orig = getattr(s, name).values
            got = getattr(starts[0], name).values
            assert np.array_equal(got, dealiased(grid, orig)) and not np.array_equal(got, orig)


class TestClosingCheck:
    """A stepped state is scanned once, by its step's closing check
    (finiteness, the floor, neutrality); the State or PerturbationState the
    step builds runs none of its constructor's scans.  A bad value that
    only the new state holds still aborts the step that made it."""

    @pytest.mark.parametrize("fault, message", [
        ("nan", "non-finite values in "), ("floor", "positivity floor breached: min("),
    ])
    @pytest.mark.parametrize("scheme", ["RK4", "IMEX1"])
    @pytest.mark.parametrize("primitive", [True, False], ids=["primitive", "perturbation"])
    def test_a_bad_new_state_aborts_its_step(self, monkeypatch, primitive, scheme, fault,
                                              message):
        # the last RHS evaluation of step 3 (k4 of RK4, the IMEX1 core)
        # returns a theta rate whose k = 0 entry is NaN, or lowers the mean
        # of theta by at least 3: no stage reads it, only the new state
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=4, amplitude=1e-2)
        cfg = StepperConfig(scheme=scheme, dt=1e-3, t_end=6e-3)
        name = "_rhs_primitive_core" if primitive else "_rhs_perturbation_core"
        real = getattr(dynamics, name)
        calls = []

        def faulty(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3 * {"RK4": 4, "IMEX1": 1}[scheme]:
                origin = (2,) + (0,) * grid.dim
                out[origin] = np.nan if fault == "nan" else -18.0 * grid.n**grid.dim / cfg.dt
            return out

        monkeypatch.setattr(dynamics, name, faulty)
        seen = []
        # (IMEX1's elimination carries a NaN at k = 0 into every row); both
        # forms check the primitive theta, the perturbation form
        # convert_back's 1 + theta_tilde
        if fault == "floor":
            message += "theta)"
        with pytest.raises(StepAbort, match=re.escape(message)):
            for i, _, _ in integrate(s if primitive else convert(s), cfg, PhysParams()):
                seen.append(i)
        assert seen == [0, 1, 2]


class TestSpectralCore:
    """The RHS cores take and return spectra; the public RHS is the forward
    transform, the core, the mask and the inverse transform, and IMEX1
    calls the core on the spectrum it already holds."""

    PARAMS = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_core_keeps_its_input_spectrum(self, dim, n, dealias):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        ys = [s.n.values, s.p.values, s.theta.values]
        spec = grid.fft(np.stack(ys))
        kept = spec.copy()
        # with full transforms the core leaves the mask to its caller
        mask = grid.dealias_mask if dealias else 1.0
        out = grid.ifft(mask * _rhs_primitive_core(grid, spec, *ys, self.PARAMS))
        assert np.array_equal(spec, kept)
        for a, b in zip(out, rhs_primitive(s, self.PARAMS, dealias)):
            assert np.array_equal(a, b.values)

        ps = convert(s)
        ys = [ps.u_tilde.values, ps.v.values, ps.theta_tilde.values]
        spec = grid.fft(np.stack(ys))
        kept = spec.copy()
        got = mask * _rhs_perturbation_core(grid, spec, PhysParams(), values=ys)
        assert np.array_equal(spec, kept)
        # given no fields, the core takes them from the spectrum's inverse
        # transform, as a stage does, and still keeps the spectrum
        staged = mask * _rhs_perturbation_core(grid, spec, PhysParams())
        assert np.array_equal(spec, kept)
        assert np.abs(staged - got).max() <= 1e-12 * np.abs(got).max()
        want = [f.values for f in rhs_perturbation(ps, PhysParams(), dealias)]
        if dealias:
            assert all(np.array_equal(a, b) for a, b in zip(grid.ifft(got), want))
        else:
            assert np.array_equal(got, grid.fft(np.stack(want)))

    def test_imex1_step_cost(self, monkeypatch):
        # a one-off dealiased step of a state that carries no spectrum: the
        # forward transform of (n, p, theta) 3 and its projection's closing
        # inverse 4, the band core 18 (four Darcy inverses per axis 12, the
        # Laplacians 3 and one forward transform of (-div j_n, -div j_p,
        # dtheta) 3) and the step's closing inverse of (y_hat, phi_hat) 4
        # (33 while the core took dn and dp from the forward transforms of
        # the six fluxes, as the undealiased core still does; 30 when the
        # update's inverse 3 and a Poisson solve of the new State 2 followed
        # the core, and nothing was projected)
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        counted = count_transforms(monkeypatch)
        step(s, StepperConfig(scheme="IMEX1", dt=1e-3), self.PARAMS)
        assert sum(counted) == 29

    # the step of a run, from a state that carries its spectrum.  With
    # dealias on, each core is 18 fields in 16 calls: four one-field Darcy
    # inverses per axis 12, the Laplacians 3 and one 3-field forward
    # transform of the pointwise (-div j_n, -div j_p, dtheta); RK4's four
    # cores 4 * 18, the three stages' inverse transforms 3 * 3 and the
    # closing inverse of (y_hat, phi_hat) 4 make 85 fields in 68 calls, and
    # IMEX1's core and the closing 4 make 22 in 17, every one of them a band
    # transform.  With dealias off, each core also forward-transforms the
    # six fluxes one by one for the spectral divergence and dtheta on its
    # own, 22 fields in 22 calls: RK4 101 in 92 and IMEX1 26 in 23, as the
    # dealiased step was too before it took the pointwise divergences (114
    # in 106 and 30 in 26 when every stage and rate went through real space
    # and a Poisson solve closed the step).
    @pytest.mark.parametrize("dealias, scheme, fields_, calls", [
        (True, "RK4", 85, 68), (False, "RK4", 101, 92),
        (True, "IMEX1", 22, 17), (False, "IMEX1", 26, 23),
    ])
    def test_run_step_transform_count(self, monkeypatch, dealias, scheme, fields_, calls):
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        cfg = StepperConfig(scheme=scheme, dt=1e-3, dealias=dealias)
        slots = fields.new_slots(grid)
        s = carried(perturbed_state(grid, seed=9, amplitude=5e-2), cfg, slots)
        bands = []
        counted = count_transforms(monkeypatch, bands)
        step(s, cfg, self.PARAMS, slots=slots)
        assert sum(counted) == fields_ and len(counted) == calls
        assert bands == [dealias] * calls

    # real-field transforms at dim 3: the public RHS, which runs the
    # undealiased core, is the forward transform 3, four one-field Darcy
    # inverses per axis 12, the forward transforms of j_p,i and j_n,i per
    # axis 6, the Laplacians 3, the forward transform of dtheta 1 and the
    # inverse 3, one field per call after the first; a one-off dealiased
    # RK4 step is the forward transform 3 and the projection's closing
    # inverse 4 of the state, which carries no spectrum, and a run's step,
    # 85 (test_run_step_transform_count; 108 and 120 below while the
    # dealiased core took the six fluxes' forward transforms); an audit
    # sink adds the residual's 3 + 3*dim to the step; flux_audit makes the
    # Darcy pass itself, 3 + 4*dim, plus that residual
    COSTS = {
        "rhs_arrays": rhs_primitive,
        "rk4_step": lambda s, p: step(s, StepperConfig(scheme="RK4", dt=1e-3), p),
        "audited_rk4_step": lambda s, p: step(
            s, StepperConfig(scheme="RK4", dt=1e-3), p, fields.AuditSink(s, p)),
        "flux_audit": fields.flux_audit,
    }

    @pytest.mark.parametrize("kernel, want", [
        ("rhs_arrays", 28), ("rk4_step", 92), ("audited_rk4_step", 104), ("flux_audit", 27),
    ])
    def test_transform_count(self, monkeypatch, kernel, want):
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        counted = count_transforms(monkeypatch)
        self.COSTS[kernel](s, self.PARAMS)
        assert sum(counted) == want

    def test_rhs_transforms_at_most_two_fields_per_call(self, monkeypatch):
        # only the forward transform of the input (n, p, theta) is wider
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        counted = count_transforms(monkeypatch)
        self.COSTS["rhs_arrays"](s, self.PARAMS)
        assert counted[0] == 3 and max(counted[1:]) <= 2
        assert sum(counted) == 28

    # 21.8 full grids at 32^3, slots and the band projection of the state
    # included (see TestStreamedKernels; 17.8 on the real arrays with no
    # projection), with the update running in place in the core's output
    # (24.8 with new arrays for the linear rates, the right-hand sides and
    # the solution rows, 28.2 with the nine running sums as well)
    def test_imex1_step_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme="IMEX1", dt=1e-3)
        assert peak_grids(lambda: step(s, cfg, self.PARAMS), grid) <= 22.2


class TestImex1Update:
    """One IMEX1 update serves both forms: with a = dt |k|^2 each mode
    solves (I + a M) y_new = y + dt (f + |k|^2 M y), M the form's
    _linear_block, by eliminating rows 0 and 1 into row 2."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3), seed=st.integers(0, 10_000),
        dt=st.sampled_from([1e-4, 1e-2, 1.0]), primitive=st.booleans(),
        prim_params=PARAM_SETS, c=st.floats(1.1, 5.0),
    )
    def test_update_solves_the_linear_block(self, dim, seed, dt, primitive, prim_params, c):
        params = prim_params if primitive else PhysParams(c_p=c, c_n=c)
        m = _linear_block(params, primitive)
        # the elimination, stability_bound and ETDRK4 rely on these
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        ev = np.linalg.eigvals(m)
        assert np.abs(ev.imag).max() <= 1e-12 * np.abs(ev).max()
        assert ev.real.min() > 0.0

        grid = GridSpec(dim=dim, n=8, length=2 * np.pi)
        gen = np.random.Generator(np.random.Philox(key=seed))
        ys = list(1.0 + 0.1 * gen.standard_normal((3,) + grid.shape))
        f = grid.fft(gen.standard_normal((3,) + grid.shape))
        stub_rhs = lambda spec_y, values: f.copy()  # the explicit rates, fixed
        got = _imex1(grid, grid.fft(np.stack(ys)), stub_rhs, dt, m, None)

        # the same system solved mode by mode, modes along the first axis
        k2 = grid.k2.reshape(-1, 1)
        y = grid.fft(np.stack(ys)).reshape(3, -1).T
        b = y + dt * (f.reshape(3, -1).T + k2 * (y @ m.T))
        lhs = np.eye(3) + (dt * k2)[:, :, None] * m
        want = np.linalg.solve(lhs, b[:, :, None])[:, :, 0]
        want = want.T.reshape(got.shape)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestStabilityBound:
    def test_rk4_bound_is_sharp_order_of_magnitude(self, params):
        grid = GridSpec(dim=1, n=32, length=1.0)
        dt_max = stability_bound(grid, params, "RK4", primitive=False)
        ps = perturbation_state(grid, seed=31, amplitude=1e-3, kmax=10)

        def survives(dt):
            cfg = StepperConfig(scheme="RK4", dt=dt, t_end=dt * 60)
            out = ps
            try:
                for _ in range(60):
                    out = step(out, cfg, params)
            except StepAbort:
                return False
            return bool(np.abs(out.v.values).max() < 1.0)

        assert survives(0.6 * dt_max)
        assert not survives(8.0 * dt_max)

    def test_imex1_bound_and_unknown_scheme(self, params):
        # IMEX1 solves the diffusion block implicitly: only the deviation
        # times the stiffest rate, plus the screening term 2, limits dt
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        k2max = 2 * (16 // 3) ** 2
        rho = float(np.abs(np.linalg.eigvals(_linear_block(params, True))).max())
        got = stability_bound(grid, params, "IMEX1", deviation=0.1)
        assert got == 1.0 / (0.1 * k2max * rho + 2.0)
        assert got > stability_bound(grid, params, "RK4")
        # a zero deviation is taken as 1e-6, not as an unbounded step
        assert stability_bound(grid, params, "IMEX1", deviation=0.0) == 1.0 / (
            1e-6 * k2max * rho + 2.0)
        with pytest.raises(ValueError, match="unknown scheme 'euler'"):
            stability_bound(grid, params, "euler")
        # without dealiasing the stiffest mode is the Nyquist mode, 16 // 2
        k2full = 2 * (16 // 2) ** 2
        assert stability_bound(grid, params, "IMEX1", deviation=0.1, dealias=False) == 1.0 / (
            0.1 * k2full * rho + 2.0)

    def test_undealiased_rk4_bound_takes_the_nyquist_mode(self, params):
        # an undealiased step keeps every mode up to n//2: at n = 32 the
        # n//3 cutoff gave a bound (16/10)^2 = 2.56 times too large, and 0.9
        # of it aborts at step 15 (min n = -2.7), while 0.9 of the n//2
        # bound completes 200 steps
        grid = GridSpec(dim=2, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=1, amplitude=1e-3)
        full = stability_bound(grid, params, "RK4", dealias=False)
        assert stability_bound(grid, params, "RK4") == pytest.approx(2.56 * full, rel=1e-14)

        def completed(dt):
            cfg = StepperConfig(scheme="RK4", dt=dt, t_end=200 * dt, dealias=False)
            i = 0
            try:
                for i, _, _ in integrate(s, cfg, params):
                    pass
            except StepAbort:
                pass
            return i

        assert completed(0.9 * 2.56 * full) < 20
        assert completed(0.9 * full) == 200

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            StepperConfig(scheme="euler")
        with pytest.raises(ValueError, match="positive"):
            StepperConfig(dt=-1.0)
