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
        # the core transforms at most two fields per call after its input
        # spectrum; pocketfft computes each field the same way in any
        # batch and the divergence sums keep their order, so the output
        # spectrum and the audit sample have the batched kernel's bits,
        # also with band transforms of a carried (band-projected) spectrum
        # against the oracle's full transforms and mask
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


def energy_rate(s, params, dealias, heat_error=0.0):
    """(|sum of the semi-discrete energy rate|, its rounding scale) of s:
    the rate of e = (c_p p + c_n n) theta + (p - n) phi/2 with
    Delta(phi) = n - p, summed over the grid, and the sum of the
    magnitudes of its four terms.  heat_error is a relative error put into
    the heat-rate term."""
    grid = s.grid
    dn, dp, dth = (f.values for f in rhs_primitive(s, params, dealias))
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
    # 15.9 and one-off RK4 step 29.3, slots included (the step makes its
    # own) and 7.2 of them the band projection of the state, which carries
    # no spectrum: its four fields and its spectrum.  A run's step of a
    # carried state, given the run's slots, peaks at 17.0 for RK4 and 9.6
    # for IMEX1 (test_run_step_peak_memory).  While each flux's forward
    # transform made a new spectrum, and the step ran on real arrays and
    # closed with a Poisson solve, they were 17.0, 23.0 (no projection),
    # 17.9 and 12.8
    def test_rhs_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        assert peak_grids(lambda: rhs_primitive(s, self.PARAMS), grid) <= 16.3

    def test_rk4_step_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme="RK4", dt=1e-4)
        assert peak_grids(lambda: step(s, cfg, self.PARAMS), grid) <= 29.7

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
        # (IMEX1's elimination carries a NaN at k = 0 into every row)
        if fault == "floor":
            message += "theta" if primitive else "1 + theta_tilde"
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
        # a one-off step of a state that carries no spectrum: the forward
        # transform of (n, p, theta) 3 and its projection's closing inverse
        # 4, the core 22 (the RHS's 28 less its own forward and inverse
        # transforms) and the step's closing inverse of (y_hat, phi_hat) 4
        # (30 when the update's inverse 3 and a Poisson solve of the new
        # State 2 followed the core, and nothing was projected)
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        counted = count_transforms(monkeypatch)
        step(s, StepperConfig(scheme="IMEX1", dt=1e-3), self.PARAMS)
        assert sum(counted) == 33

    # the step of a run, from a state that carries its spectrum: RK4's four
    # cores 4 * 22 in 22 one-field calls each, the three stages' inverse
    # transforms 3 * 3 and the closing inverse of (y_hat, phi_hat) 4, so 101
    # fields in 92 calls (114 in 106 when every stage and rate went through
    # real space and a Poisson solve closed the step); IMEX1's core 22 and
    # the closing 4, 26 in 23 (30 in 26).  With dealias on, every one of
    # them is a band transform.
    @pytest.mark.parametrize("scheme, fields_, calls", [("RK4", 101, 92), ("IMEX1", 26, 23)])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_run_step_transform_count(self, monkeypatch, scheme, fields_, calls, dealias):
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        cfg = StepperConfig(scheme=scheme, dt=1e-3, dealias=dealias)
        slots = fields.new_slots(grid)
        s = carried(perturbed_state(grid, seed=9, amplitude=5e-2), cfg, slots)
        bands = []
        counted = count_transforms(monkeypatch, bands)
        step(s, cfg, self.PARAMS, slots=slots)
        assert sum(counted) == fields_ and len(counted) == calls
        assert bands == [dealias] * calls

    # real-field transforms at dim 3: the public RHS is the forward transform
    # 3, two 2-field Darcy inverses per axis 12, one 2-field forward
    # transform of (j_p,i, j_n,i) per axis 6, the Laplacians 2 + 1, the
    # forward transform of dtheta 1 and the inverse 3, one field per call;
    # a one-off RK4 step is the forward transform 3 and the projection's
    # closing inverse 4 of the state, which carries no spectrum, and a
    # run's step, 101 (test_run_step_transform_count); an audit sink adds
    # the residual's 3 + 3*dim to the step; flux_audit makes the Darcy pass
    # itself, 3 + 4*dim, plus that residual
    COSTS = {
        "rhs_arrays": rhs_primitive,
        "rk4_step": lambda s, p: step(s, StepperConfig(scheme="RK4", dt=1e-3), p),
        "audited_rk4_step": lambda s, p: step(
            s, StepperConfig(scheme="RK4", dt=1e-3), p, fields.AuditSink(s, p)),
        "flux_audit": fields.flux_audit,
    }

    @pytest.mark.parametrize("kernel, want", [
        ("rhs_arrays", 28), ("rk4_step", 108), ("audited_rk4_step", 120), ("flux_audit", 27),
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

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            StepperConfig(scheme="euler")
        with pytest.raises(ValueError, match="positive"):
            StepperConfig(dt=-1.0)
