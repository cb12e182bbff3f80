"""Right-hand sides and time stepping: equilibrium fixed point, analytic
slices, cross-formulation consistency, conservation structure, stepping
order, and the potential-sign reconciliation."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnpf import fields
from pnpf.dynamics import (
    PerturbationState,
    _rhs_perturbation_arrays,
    _rhs_perturbation_core,
    _rhs_primitive_arrays,
    _rhs_primitive_core,
    StepAbort,
    StepperConfig,
    convert,
    convert_back,
    rhs_perturbation,
    rhs_primitive,
    stability_bound,
    step,
)
from pnpf.fields import PhysParams, State
from pnpf.grid import GridSpec, ScalarField, grad_arrays
from pnpf.poisson import solve

from . import oracles
from .conftest import (
    band_limited, count_transforms, inner, laplacian, peak_grids, perturbation_state,
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
        n=st.sampled_from([8, 16]),
        seed=st.integers(0, 10_000),
        dealias=st.booleans(),
        caps=CAPS,
        mobs=MOBS,
    )
    @settings(max_examples=30, deadline=None)
    def test_core_mass_modes_are_exactly_zero(self, dim, n, seed, dealias, caps, mobs):
        # the continuity rates are spectral divergences, whose k = 0
        # multiplier is 0: ion masses are conserved exactly, not to rounding
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=5e-2)
        params = PhysParams(c_p=caps[0], c_n=caps[1], D_p=mobs[0], D_n=mobs[1], k=0.9)
        ys = [s.n.values, s.p.values, s.theta.values]
        out = _rhs_primitive_core(grid, grid.fft(np.stack(ys)), *ys, params, dealias)
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
        got = _rhs_primitive_arrays(grid, *ys, params, dealias)
        want = oracles.nine_sum_rhs(grid, *ys, params, dealias)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.abs(got[2] - want[2]).max() <= 1e-13 * np.abs(want[2]).max()


class TestEnergyIdentity:
    @given(dealias=st.booleans(), params=PARAM_SETS, **STATES)
    @settings(max_examples=30, deadline=None)
    def test_semi_discrete_energy_rate_vanishes(self, dim, n, seed, amplitude, dealias, params):
        # e = (c_p p + c_n n) theta + (p - n) phi/2 with Delta(phi) = n - p:
        # for a dealiased state the RHS conserves the integral of e
        # exactly, so its rate is rounding against the size of the
        # heat-rate term
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=seed, amplitude=amplitude)
        dn, dp, dth = (f.values for f in rhs_primitive(s, params, dealias))
        n_, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
        phi_t = solve(ScalarField(grid, dn - dp)).values
        heat = (params.c_p * p + params.c_n * n_) * dth
        rate = heat + th * (params.c_p * dp + params.c_n * dn)
        rate += 0.5 * (dp - dn) * phi + 0.5 * (p - n_) * phi_t
        assert abs(rate.sum()) <= 1e-13 * np.abs(heat).sum()


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

    def test_mass_conserved_over_steps(self, params):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        s = perturbed_state(grid, seed=23, amplitude=1e-2)
        cfg = StepperConfig(scheme="RK4", dt=2e-3, t_end=0.2)
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

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_rk4_step_is_the_textbook_combination(self, dim, n, dealias):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        dt = 1e-3
        f = lambda ys: _rhs_primitive_arrays(grid, *ys, self.PARAMS, dealias)
        y = [s.n.values, s.p.values, s.theta.values]
        k1 = f(y)
        k2 = f([a + 0.5 * dt * k for a, k in zip(y, k1)])
        k3 = f([a + 0.5 * dt * k for a, k in zip(y, k2)])
        k4 = f([a + dt * k for a, k in zip(y, k3)])
        want = [
            a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        got = step(s, StepperConfig(scheme="RK4", dt=dt, dealias=dealias), self.PARAMS)
        for a, b in zip((got.n, got.p, got.theta), want):
            assert np.array_equal(a.values, b)

    # peaks at 32^3 above the call's entry, in full grids: measured RHS
    # 22.0 and RK4 step 31.0; the nine running sums of the unfolded heat
    # rate peak at 28.2 and 37.2, a darcy_axes that keeps its 4-field
    # spectrum and phi_hat alive through each axis adds 2.3, and a kernel
    # holding every axis's gradients and the Laplacians in one inverse
    # transform, with a stage array per RK4 derivative, peaks at 51.8 and
    # 69.9
    def test_rhs_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        assert peak_grids(lambda: rhs_primitive(s, self.PARAMS), grid) <= 22.5

    def test_rk4_step_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme="RK4", dt=1e-4)
        assert peak_grids(lambda: step(s, cfg, self.PARAMS), grid) <= 32.0


class TestPerturbationPeaks:
    """The perturbation RHS fills its (4*dim+3)-field spectral array in
    place and frees it after the inverse transform.  Measured peaks in full
    grids: RHS 28.3 at 64^2 and 34.1 at 32^3, RK4 step 37.4 at 64^2; a
    list of spectra stacked into a second array, alive to the end of the
    RHS, peaks at 40.7, 51.1 and 49.8."""

    @staticmethod
    def state(dim, n):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        return grid, convert(perturbed_state(grid, seed=5, amplitude=5e-2))

    @pytest.mark.parametrize("dim, n, bound", [(2, 64, 29.0), (3, 32, 35.0)])
    def test_rhs_peak_memory(self, dim, n, bound):
        grid, ps = self.state(dim, n)
        assert peak_grids(lambda: rhs_perturbation(ps, PhysParams()), grid) <= bound

    def test_rk4_step_peak_memory(self):
        grid, ps = self.state(2, 64)
        cfg = StepperConfig(scheme="RK4", dt=1e-4)
        assert peak_grids(lambda: step(ps, cfg, PhysParams()), grid) <= 38.0


class TestSpectralCore:
    """The RHS cores take and return spectra; the array RHS is the forward
    transform, the core and the inverse transform, and IMEX1 calls the
    core on the spectrum it already holds."""

    PARAMS = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_core_keeps_its_input_spectrum(self, dim, n, dealias):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        ys = [s.n.values, s.p.values, s.theta.values]
        spec = grid.fft(np.stack(ys))
        kept = spec.copy()
        out = grid.ifft(_rhs_primitive_core(grid, spec, *ys, self.PARAMS, dealias))
        assert np.array_equal(spec, kept)
        for a, b in zip(out, _rhs_primitive_arrays(grid, *ys, self.PARAMS, dealias)):
            assert np.array_equal(a, b)

        ps = convert(s)
        ys = [ps.u_tilde.values, ps.v.values, ps.theta_tilde.values]
        spec = grid.fft(np.stack(ys))
        kept = spec.copy()
        got = _rhs_perturbation_core(grid, spec, *ys, PhysParams(), dealias)
        assert np.array_equal(spec, kept)
        want = _rhs_perturbation_arrays(grid, *ys, PhysParams(), dealias)
        if dealias:
            assert all(np.array_equal(a, b) for a, b in zip(grid.ifft(got), want))
        else:
            assert np.array_equal(got, grid.fft(np.stack(want)))

    def test_imex1_step_cost(self, monkeypatch):
        # forward transform of (n, p, theta) 3, the core 22 (the RHS's 28
        # less its own forward and inverse transforms), the update's inverse
        # 3 and the Poisson solve of the new State 2
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        counted = count_transforms(monkeypatch)
        step(s, StepperConfig(scheme="IMEX1", dt=1e-3), self.PARAMS)
        assert counted[0] == 30

    # real-field transforms at dim 3: the array RHS is the forward transform
    # 3, one 4-field Darcy inverse per axis 12, the Laplacians 3, the outer
    # forward transform of (j_p, j_n, dtheta) 7 and the inverse 3; an RK4
    # step is four of them and the Poisson solve of the new State 2; an
    # audit sink adds the residual's 3 + 3*dim to the step; flux_audit makes
    # the Darcy pass itself, 3 + 4*dim, plus that residual
    COSTS = {
        "rhs_arrays": lambda s, p: _rhs_primitive_arrays(
            s.grid, s.n.values, s.p.values, s.theta.values, p),
        "rk4_step": lambda s, p: step(s, StepperConfig(scheme="RK4", dt=1e-3), p),
        "audited_rk4_step": lambda s, p: step(
            s, StepperConfig(scheme="RK4", dt=1e-3), p, fields.AuditSink(s, p)),
        "flux_audit": fields.flux_audit,
    }

    @pytest.mark.parametrize("kernel, want", [
        ("rhs_arrays", 28), ("rk4_step", 114), ("audited_rk4_step", 126), ("flux_audit", 27),
    ])
    def test_transform_count(self, monkeypatch, kernel, want):
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        counted = count_transforms(monkeypatch)
        self.COSTS[kernel](s, self.PARAMS)
        assert counted[0] == want

    # 25.3 full grids at 32^3 (28.2 with the nine running sums)
    def test_imex1_step_peak_memory(self):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme="IMEX1", dt=1e-3)
        assert peak_grids(lambda: step(s, cfg, self.PARAMS), grid) <= 26.0


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
