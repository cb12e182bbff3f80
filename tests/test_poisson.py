"""Poisson solves: eigenfunction checks, the dense constrained-solve
oracle, linearity, self-adjointness, and the gauge/sign conventions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnpf.grid import GridSpec, ScalarField, grad_arrays
from pnpf.poisson import NonNeutralSource, greens_apply, solve

from .conftest import band_limited, inner, laplacian
from . import oracles


def residual_norm(phi: ScalarField, v: ScalarField) -> float:
    """||Delta(phi) - v||_L2, computed spectrally."""
    g = phi.grid
    res = (-g.k2) * g.fft(phi.values) - g.fft(v.values)
    return math.sqrt(g.spectral_l2_sum(res))


class TestSolve:
    def test_zero_source(self, grid3d):
        v = ScalarField.constant(grid3d, 0.0)
        phi = solve(v)
        assert np.abs(phi.values).max() == 0.0
        assert residual_norm(phi, v) <= 1e-14

    def test_eigenfunction(self):
        grid = GridSpec(dim=1, n=16, length=2 * np.pi)
        (x,) = grid.axes_coordinates()
        phi = solve(ScalarField(grid, np.sin(x)))
        assert np.abs(phi.values + np.sin(x)).max() <= 1e-13

    def test_zero_mean_gauge(self, grid3d):
        phi = solve(ScalarField(grid3d, band_limited(grid3d, seed=1)))
        assert abs(phi.values.mean()) <= 1e-14

    def test_residual_bound(self, grid3d):
        v = ScalarField(grid3d, band_limited(grid3d, seed=2))
        v_l2 = math.sqrt(inner(grid3d, v.values, v.values))
        assert residual_norm(solve(v), v) <= 1e-10 * v_l2

    def test_matches_dense_constrained_solve(self, grid3d):
        vals = band_limited(grid3d, seed=3)
        phi = solve(ScalarField(grid3d, vals))
        want = oracles.dense_poisson_solve(grid3d, vals)
        assert np.abs(phi.values - want).max() <= 1e-10

    def test_rejects_non_neutral(self, grid3d):
        v = ScalarField.constant(grid3d, 1e-6)
        with pytest.raises(NonNeutralSource):
            solve(v)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, seed):
        grid = GridSpec(dim=2, n=8, length=1.0)
        v1 = band_limited(grid, seed=seed, kmax=3)
        v2 = band_limited(grid, seed=seed + 77, kmax=3)
        a, b = 2.0, -0.7
        lhs = solve(ScalarField(grid, a * v1 + b * v2)).values
        rhs = a * solve(ScalarField(grid, v1)).values + b * solve(ScalarField(grid, v2)).values
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestInverseLaplacian:
    """(-Delta)^{-1} is greens_apply."""

    def test_zero(self, grid3d):
        out = greens_apply(grid3d, np.zeros(grid3d.shape))
        assert np.abs(out).max() == 0.0

    def test_eigenfunction(self):
        grid = GridSpec(dim=1, n=16, length=2 * np.pi)
        (x,) = grid.axes_coordinates()
        out = greens_apply(grid, np.sin(x))
        assert np.abs(out - np.sin(x)).max() <= 1e-13

    def test_forward_operator_roundtrip(self, grid3d):
        g = band_limited(grid3d, seed=5)
        out = greens_apply(grid3d, g)
        back = -laplacian(grid3d, out)
        assert np.abs(back - g).max() <= 1e-11

    def test_self_adjoint(self, grid3d):
        f = band_limited(grid3d, seed=6)
        g = band_limited(grid3d, seed=7)
        lhs = inner(grid3d, greens_apply(grid3d, f), g)
        rhs = inner(grid3d, f, greens_apply(grid3d, g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_sign_convention(self, grid3d):
        # with Delta(phi) = v, <-phi, v> = ||grad phi||^2 >= 0
        v = band_limited(grid3d, seed=8)
        phi = solve(ScalarField(grid3d, v)).values
        grad_sq = sum(inner(grid3d, c, c) for c in grad_arrays(grid3d, phi))
        lhs = inner(grid3d, -phi, v)
        assert lhs >= 0.0
        assert abs(lhs - grad_sq) <= 1e-12 * max(1.0, grad_sq)


class TestGreensApply:
    def test_mean_is_filtered(self, grid3d):
        vals = band_limited(grid3d, seed=9) + 0.37
        out = greens_apply(grid3d, vals)
        assert abs(out.mean()) <= 1e-14
        # equals (-Delta)^{-1} applied to the mean-removed source
        want = -solve(ScalarField(grid3d, vals - vals.mean())).values
        assert np.abs(out - want).max() <= 1e-13

    def test_self_adjoint_with_nonzero_means(self, grid3d):
        f = band_limited(grid3d, seed=10) + 0.2
        g = band_limited(grid3d, seed=11) - 0.5
        vol = grid3d.cell_volume
        lhs = float((greens_apply(grid3d, f) * g).sum() * vol)
        rhs = float((f * greens_apply(grid3d, g)).sum() * vol)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
