"""Decay harness: Lyapunov functional values (the screening term through
the Poisson equation included), monotone decay, screening-rate ordering,
amplitude scaling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pnpf.decay import (
    ROUNDING_FLOOR,
    DecayExperiment,
    _fit_rate,
    _h2_sq,
    initial_condition,
    lyapunov,
    run,
    smallness_size,
    spectra,
    spectral_lyapunov,
    summary,
)
from pnpf.dynamics import PerturbationState, StepperConfig, convert
from pnpf.fields import State
from pnpf.grid import GridSpec, ScalarField

from .conftest import count_transforms, perturbation_state
from . import oracles


class TestLyapunov:
    def test_zero_perturbation(self, grid3d, params):
        assert lyapunov(convert(State.equilibrium(grid3d)), params) == 0.0

    def test_single_mode_analytic(self, params):
        # u_tilde = a sin(2 pi x), unit box, 3D:
        # Lambda = a^2 (1 + (2 pi)^2 + (2 pi)^4)/2
        grid = GridSpec(dim=3, n=16, length=1.0)
        a = 0.05
        x = grid.axes_coordinates()[0]
        zero = ScalarField.constant(grid, 0.0)
        ps = PerturbationState.from_fields(
            ScalarField(grid, a * np.sin(2 * np.pi * x)), zero, zero
        )
        want = a**2 * (1 + (2 * np.pi) ** 2 + (2 * np.pi) ** 4) / 2
        assert abs(lyapunov(ps, params) - want) <= 1e-10 * want

    def test_single_v_mode_poisson_algebra(self, params):
        # pure v mode a sin(k x): ||v||_H2^2 = (a^2/2)(1 + k^2 + k^4) and,
        # through the Poisson equation, ||grad phi||^2 = ||v||^2 / k^2
        grid = GridSpec(dim=3, n=16, length=1.0)
        a = 1e-2
        k = 2 * np.pi / grid.length
        x = grid.axes_coordinates()[0]
        zero = ScalarField.constant(grid, 0.0)
        ps = PerturbationState.from_fields(
            zero, ScalarField(grid, a * np.sin(k * x)), zero
        )
        v_l2_sq = a**2 / 2
        v_h2_sq = v_l2_sq * (1 + k**2 + k**4)
        got = lyapunov(ps, params)
        assert abs(got - (v_h2_sq + v_l2_sq / k**2)) <= 1e-10 * got
        assert abs((got - v_h2_sq) - v_l2_sq / k**2) <= 1e-12 * v_l2_sq

    def test_matches_term_by_term_oracle(self, params):
        grid = GridSpec(dim=2, n=8, length=1.0)
        ps = perturbation_state(grid, seed=3, amplitude=1e-2)
        got = lyapunov(ps, params)
        want = (
            oracles.dense_hk_norm(grid, ps.u_tilde.values, 2) ** 2
            + oracles.dense_hk_norm(grid, ps.v.values, 2) ** 2
            + 2 * params.c * oracles.dense_hk_norm(grid, ps.theta_tilde.values, 2) ** 2
            + sum(
                oracles.fsum_integral(grid, g**2)
                for g in oracles.dense_gradient(grid, ps.phi.values)
            )
        )
        assert abs(got - want) <= 1e-10 * max(1.0, want)


    @pytest.mark.parametrize("dim, n", [(2, 64), (3, 16)])
    def test_batched_spectra_are_the_single_transforms(self, params, dim, n):
        # lyapunov of a state given no spectrum (the audit's) takes one
        # batched transform; its rows keep the bits of one transform per
        # field
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        ps = perturbation_state(grid, seed=5, amplitude=1e-2)
        spec = spectra(ps)
        for row, f in zip(spec, (ps.u_tilde, ps.v, ps.theta_tilde, ps.phi)):
            assert np.array_equal(row, grid.fft(f.values))
        assert spectral_lyapunov(grid, spec, params) == lyapunov(ps, params)


class TestDissipationLedger:
    """The component norms each decay sample records next to Lambda:
    ||v||_L2, ||grad phi||_L2, ||u_tilde||_L2 and the H^2 norms of u_tilde
    and theta_tilde."""

    columns = ("v_l2", "grad_phi_l2", "u_l2", "u_h2", "theta_h2")

    def test_zero(self, params):
        grid = GridSpec(dim=2, n=8, length=1.0)
        cfg = StepperConfig(scheme="RK4", dt=1e-4, t_end=2e-4)
        series = run(DecayExperiment(delta0=0.0, cfg=cfg, sample_every=1), grid, params)
        assert len(series.t) == 3
        for name in self.columns:
            assert np.abs(getattr(series, name)).max() == 0.0, name

    def test_matches_norm_oracle(self, params):
        grid = GridSpec(dim=2, n=8, length=1.0)
        cfg = StepperConfig(scheme="RK4", dt=1e-4, t_end=1e-4)
        exp = DecayExperiment(delta0=1e-2, seed=5, mode_profile="random_band", cfg=cfg)
        series = run(exp, grid, params)
        ps = initial_condition(exp, grid, params)
        grad_phi_sq = sum(
            oracles.fsum_integral(grid, g**2)
            for g in oracles.dense_gradient(grid, ps.phi.values)
        )
        want = {
            "v_l2": oracles.dense_hk_norm(grid, ps.v.values, 0),
            "grad_phi_l2": math.sqrt(grad_phi_sq),
            "u_l2": oracles.dense_hk_norm(grid, ps.u_tilde.values, 0),
            "u_h2": oracles.dense_hk_norm(grid, ps.u_tilde.values, 2),
            "theta_h2": oracles.dense_hk_norm(grid, ps.theta_tilde.values, 2),
        }
        for name in self.columns:
            got = getattr(series, name)[0]
            assert got > 0, name
            assert abs(got - want[name]) <= 1e-10 * max(1.0, want[name]), name


class TestInitialCondition:
    def test_zero_delta(self, grid3d, params):
        exp = DecayExperiment(delta0=0.0)
        ps = initial_condition(exp, grid3d, params)
        assert lyapunov(ps, params) == 0.0

    def test_scaled_to_requested_size(self, params):
        grid = GridSpec(dim=3, n=16, length=1.0)
        for profile in ("single_mode", "random_band"):
            exp = DecayExperiment(delta0=1e-2, seed=4, mode_profile=profile)
            ps = initial_condition(exp, grid, params)
            size = smallness_size(grid, ps.u_tilde.values, ps.v.values, ps.theta_tilde.values)
            assert abs(size - 1e-2) <= 1e-12

    def test_smallness_flag(self):
        assert DecayExperiment(delta0=0.5).outside_smallness_regime
        assert not DecayExperiment(delta0=1e-2).outside_smallness_regime

    def test_philox_reproducible(self, params):
        grid = GridSpec(dim=2, n=16, length=1.0)
        exp = DecayExperiment(delta0=1e-2, seed=11, mode_profile="random_band")
        a = initial_condition(exp, grid, params)
        b = initial_condition(exp, grid, params)
        assert np.array_equal(a.v.values, b.v.values)


class TestRun:
    def test_zero_delta_constant_series(self, params):
        grid = GridSpec(dim=2, n=8, length=1.0)
        cfg = StepperConfig(scheme="RK4", dt=1e-4, t_end=2e-3)
        exp = DecayExperiment(delta0=0.0, cfg=cfg, sample_every=2)
        series = run(exp, grid, params)
        assert series.completed
        assert np.abs(series.lyapunov).max() == 0.0
        assert series.monotone()

    def test_first_sample_is_the_initial_state(self, params):
        # each column from its own single-field transform of the initial
        # data, phi_hat = -v_hat/|k|^2 (the sample transforms no phi)
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        cfg = StepperConfig(scheme="RK4", dt=1e-4, t_end=1e-4)
        exp = DecayExperiment(delta0=1e-2, seed=2, mode_profile="random_band", cfg=cfg)
        series = run(exp, grid, params)
        ps = initial_condition(exp, grid, params)
        spec = lambda f: grid.fft(f.values)
        h2 = lambda f: math.sqrt(_h2_sq(grid, spec(f)))
        phi_hat = -grid.inv_k2 * spec(ps.v)
        four = (spec(ps.u_tilde), spec(ps.v), spec(ps.theta_tilde), phi_hat)
        assert series.lyapunov[0] == spectral_lyapunov(grid, four, params)
        assert series.v_l2[0] == math.sqrt(grid.spectral_l2_sum(spec(ps.v)))
        assert series.grad_phi_l2[0] == math.sqrt(grid.spectral_l2_sum(phi_hat, grid.h1_weight))
        assert series.u_l2[0] == math.sqrt(grid.spectral_l2_sum(spec(ps.u_tilde)))
        assert series.u_h2[0] == h2(ps.u_tilde)
        assert series.theta_h2[0] == h2(ps.theta_tilde)

    # real-field transforms: the initial condition 12 (three band draws, 2
    # each, the smallness size 4 and the Poisson solve 2) and the run's
    # band projection of it, its forward transform 3 and closing inverse 4;
    # then per RK4 step 69 (see test_dynamics.py TestCarriedSpectrum, less
    # the forward transform of the state, which the run carries) and per
    # sample none (86 and 4 when every stage and sample was transformed from
    # the real fields)
    def test_transform_count_per_step(self, params, monkeypatch):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        totals = []
        for steps in (10, 20):
            cfg = StepperConfig(scheme="RK4", dt=1e-4, t_end=steps * 1e-4)
            exp = DecayExperiment(delta0=1e-2, seed=2, mode_profile="random_band", cfg=cfg,
                                  sample_every=1)
            counted = count_transforms(monkeypatch)
            assert len(run(exp, grid, params).t) == steps + 1
            totals.append(sum(counted))
        assert totals[1] - totals[0] == 10 * 69
        assert totals[0] == 19 + 10 * 69

    def test_single_v_mode_monotone_and_ordered(self, params):
        grid = GridSpec(dim=2, n=16, length=1.0)
        dt = 2.0e-4
        cfg = StepperConfig(scheme="RK4", dt=dt, t_end=0.12)
        exp = DecayExperiment(delta0=1e-2, cfg=cfg, sample_every=20)
        series = run(exp, grid, params)
        assert series.completed
        assert series.monotone()
        assert series.fitted_rates["v_l2"] > series.fitted_rates["u_l2"]
        assert series.fitted_rates["grad_phi_l2"] > series.fitted_rates["u_l2"]

    def test_terminal_scaling(self, params):
        grid = GridSpec(dim=2, n=16, length=1.0)
        dt = 2.0e-4
        cfg = StepperConfig(scheme="RK4", dt=dt, t_end=0.05)
        lam = {}
        for d0 in (1e-2, 5e-3):
            exp = DecayExperiment(
                delta0=d0, seed=21, mode_profile="random_band", cfg=cfg, sample_every=25
            )
            lam[d0] = run(exp, grid, params).lyapunov[-1]
        ratio = lam[1e-2] / lam[5e-3]
        assert abs(ratio - 4.0) <= 0.8

    def test_summary_verdicts(self, params):
        grid = GridSpec(dim=2, n=8, length=1.0)
        cfg = StepperConfig(scheme="RK4", dt=5e-4, t_end=0.05)
        exp = DecayExperiment(delta0=1e-2, cfg=cfg, sample_every=10)
        series = run(exp, grid, params)
        out = summary(exp, series, scaling_ratio=4.1)
        assert out["monotonicity_verdict"] == "pass"
        assert out["scaling_verdict"] == "pass"
        assert not out["outside_smallness_regime"]

    def test_one_sample_is_inconclusive(self, params):
        # 4 steps with the default sample_every keep only the t = 0 sample:
        # it is monotone, and its scaling ratio is 4, by construction
        grid = GridSpec(dim=2, n=8, length=1.0)
        cfg = StepperConfig(scheme="RK4", dt=5e-4, t_end=2e-3)
        exp = DecayExperiment(delta0=1e-2, seed=3, mode_profile="random_band", cfg=cfg)
        series = run(exp, grid, params)
        half = run(replace(exp, delta0=5e-3), grid, params)
        assert len(series.lyapunov) == len(half.lyapunov) == 1
        ratio = float(series.lyapunov[-1] / half.lyapunov[-1])
        assert abs(ratio - 4.0) <= 1e-12
        out = summary(exp, series, scaling_ratio=ratio)
        assert out["monotonicity_verdict"] == "inconclusive"
        assert out["rate_ordering_verdict"] == "inconclusive"
        assert out["scaling_verdict"] == "inconclusive"
        assert out["terminal_scaling_ratio"] == ratio


class TestRateOrderingVerdict:
    """The ordering "v and grad(phi) decay faster than u_tilde" is only
    tested when u_tilde decays."""

    @staticmethod
    def short_run(params, profile, seed=0):
        grid = GridSpec(dim=2, n=8, length=1.0)
        cfg = StepperConfig(scheme="RK4", dt=5e-4, t_end=0.05)
        exp = DecayExperiment(
            delta0=1e-2, seed=seed, mode_profile=profile, cfg=cfg, sample_every=10
        )
        return exp, run(exp, grid, params)

    def test_growing_u_is_inconclusive(self, params):
        # single_mode starts u_tilde at 0, so it grows and the ordering
        # would hold trivially
        exp, series = self.short_run(params, "single_mode")
        assert series.fitted_rates["u_l2"] <= 0
        assert summary(exp, series)["rate_ordering_verdict"] == "inconclusive"

    def test_decaying_u_keeps_the_verdict(self, params):
        exp, series = self.short_run(params, "random_band", seed=21)
        rates = series.fitted_rates
        assert rates["u_l2"] > 0
        ordered = rates["v_l2"] > rates["u_l2"] and rates["grad_phi_l2"] > rates["u_l2"]
        assert ordered  # the screening signature
        assert summary(exp, series)["rate_ordering_verdict"] == "pass"

    def test_faster_u_decay_is_flagged(self, params):
        exp, series = self.short_run(params, "random_band", seed=21)
        rates = dict(series.fitted_rates, u_l2=100.0)
        out = summary(exp, replace(series, fitted_rates=rates))
        assert out["rate_ordering_verdict"] == "flagged"


class TestRoundingFloor:
    """A long random_band run takes v and grad(phi) down to rounding
    (about 1e-20) while Lambda, held up by the slow u_tilde and
    theta_tilde, is still far above it.  Their fits end at the last sample
    above 1e-12 Lambda^(1/2) and read the linearized rate |k|^2 + 2 = 3 of
    the screened v mode; fitted through the floor they read about 1.9 and
    2.1."""

    def test_fast_rates_end_at_the_floor(self, params):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        cfg = StepperConfig(scheme="RK4", dt=16 / 638, t_end=16.0)
        exp = DecayExperiment(delta0=1e-2, seed=0, mode_profile="random_band", cfg=cfg,
                              sample_every=3)
        series = run(exp, grid, params)
        assert series.completed
        rates = series.fitted_rates
        for name in ("v_l2", "grad_phi_l2"):
            col = getattr(series, name)
            assert abs(rates[name] - 3.0) <= 1e-3, name
            assert col[-1] < ROUNDING_FLOOR * math.sqrt(series.lyapunov[-1])
            assert _fit_rate(series.t, col) < 2.5, name  # the fit through the floor
        # the slow norms stay above the floor: their fits keep every bit
        for name in ("lyapunov", "u_l2", "u_h2", "theta_h2"):
            assert rates[name] == _fit_rate(series.t, getattr(series, name)), name
        assert summary(exp, series)["rate_ordering_verdict"] == "pass"

    def test_floor_ends_the_fit_at_the_last_sample_above(self):
        t = np.arange(8.0)
        series = np.exp(-t)
        # a zero first sample (single_mode's u_tilde) is below any floor
        # and is kept: only samples after the last one above are cut
        series[0] = 0.0
        floor = np.full(8, math.exp(-5.5))
        assert _fit_rate(t, series, floor) == _fit_rate(t[:6], series[:6])
        assert _fit_rate(t, series, np.zeros(8)) == _fit_rate(t, series)
        assert _fit_rate(t, series, np.ones(8)) == 0.0
