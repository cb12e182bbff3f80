"""Spectral calculus: exactness on resolved modes, dense-matrix oracles,
Parseval consistency, and the spectral norms the decay harness takes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

import pnpf
from pnpf.decay import _h2_sq
from pnpf.grid import (
    GridSpec,
    ScalarField,
    divergence_arrays,
    grad_arrays,
    integrate,
)

from .conftest import band_limited, dealiased, inner, laplacian
from . import oracles
from .oracles import VectorField


class TestGridSpec:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            GridSpec(dim=4, n=8, length=1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(dim=1, n=12, length=1.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(dim=1, n=4, length=1.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="length"):
            GridSpec(dim=2, n=8, length=0.0)

    def test_memory_cap(self):
        with pytest.raises(ValueError, match="MAX_POINTS"):
            GridSpec(dim=3, n=512, length=1.0)
        # the cap is the module's, not a per-grid setting
        with pytest.raises(TypeError):
            GridSpec(dim=3, n=64, length=1.0, max_points=2**30)

    def test_immutability(self):
        g = GridSpec(dim=1, n=8, length=1.0)
        with pytest.raises(AttributeError):
            g.n = 16


class TestScalarField:
    def test_shape_validation(self, grid3d):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(grid3d, np.zeros((4, 4, 4)))

    def test_finite_validation(self, grid3d):
        vals = np.zeros(grid3d.shape)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid3d, vals)

    def test_vector_component_count(self, grid3d):
        with pytest.raises(ValueError, match="components"):
            VectorField(grid3d, (np.zeros(grid3d.shape),))


class TestGradient:
    def test_constant_gives_zero(self, grid3d):
        for c in grad_arrays(grid3d, np.full(grid3d.shape, 3.7)):
            assert np.abs(c).max() <= 1e-14

    @pytest.mark.parametrize("n,L", [(16, 1.0), (16, 2.5)])
    def test_single_mode_analytic(self, n, L):
        grid = GridSpec(dim=1, n=n, length=L)
        (x,) = grid.axes_coordinates()
        (g,) = grad_arrays(grid, np.sin(2 * np.pi * x / L))
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.abs(g - expected).max() <= 1e-12

    def test_matches_dense_matrix_oracle(self, grid3d):
        f = band_limited(grid3d, seed=11, kmax=2)
        dg = oracles.dense_gradient(grid3d, f)
        for got, want in zip(grad_arrays(grid3d, f), dg):
            assert np.abs(got - want).max() <= 1e-10

    def test_components_have_zero_mean(self, grid3d):
        for c in grad_arrays(grid3d, band_limited(grid3d, seed=3)):
            assert abs(c.mean()) <= 1e-14

    def test_shift_invariance(self, grid3d):
        f = band_limited(grid3d, seed=5)
        g1 = grad_arrays(grid3d, f)
        g2 = grad_arrays(grid3d, f + 4.2)
        for a, b in zip(g1, g2):
            assert np.abs(a - b).max() <= 1e-13


class TestLaplacian:
    def test_constant(self, grid3d):
        out = laplacian(grid3d, np.full(grid3d.shape, 2.0))
        assert np.abs(out).max() <= 1e-13

    def test_eigenfunction(self):
        grid = GridSpec(dim=1, n=32, length=3.0)
        (x,) = grid.axes_coordinates()
        k = 2 * np.pi / grid.length
        f = np.sin(k * x)
        out = laplacian(grid, f)
        assert np.abs(out + k**2 * f).max() <= 1e-11

    def test_equals_div_grad(self, grid3d):
        f = band_limited(grid3d, seed=7)
        lhs = laplacian(grid3d, f)
        rhs = divergence_arrays(grid3d, grad_arrays(grid3d, f))
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestDivergence:
    def test_constant_vector(self, grid3d):
        v = [np.full(grid3d.shape, c) for c in (1.0, -2.0, 0.5)]
        assert np.abs(divergence_arrays(grid3d, v)).max() <= 1e-13

    def test_zero_mean_output(self, grid3d):
        v = [band_limited(grid3d, seed=20 + i) for i in range(3)]
        out = divergence_arrays(grid3d, v)
        assert abs(out.mean()) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lazy_components_keep_the_batched_bits(self, dim):
        # components built one at a time, each transformed on its own: the
        # bits of one batched forward transform and the summed spectra
        grid = GridSpec(dim=dim, n=16, length=2 * np.pi)
        gen = np.random.Generator(np.random.Philox(key=dim))
        v = gen.standard_normal((dim,) + grid.shape)
        spec = grid.fft(v)
        want = grid.ifft(sum(m * spec[i] for i, m in enumerate(grid.grad_mult)))
        assert np.array_equal(divergence_arrays(grid, (c.copy() for c in v)), want)


def l2_norm(grid: GridSpec, f: np.ndarray) -> float:
    return math.sqrt(grid.spectral_l2_sum(grid.fft(f)))


def h1_norm(grid: GridSpec, f: np.ndarray) -> float:
    """The H^1 norm with the combined Sobolev weight, as decay._h2_sq
    takes the H^2 norm."""
    return math.sqrt(grid.spectral_l2_sum(grid.fft(f), 1.0 + grid.h1_weight))


def h2_norm(grid: GridSpec, f: np.ndarray) -> float:
    return math.sqrt(_h2_sq(grid, grid.fft(f)))


class TestNorms:
    """The spectral L2, H1 and H2 norms: spectral_l2_sum with the
    h1_weight and h2_norm_weight multipliers, the sums decay._h2_sq and the
    Lyapunov functional take."""

    def test_zero_field(self, grid3d):
        z = np.zeros(grid3d.shape)
        for norm in (l2_norm, h1_norm, h2_norm):
            assert norm(grid3d, z) == 0.0

    def test_sine_l2_3d(self):
        grid = GridSpec(dim=3, n=16, length=1.0)
        x = grid.axes_coordinates()[0]
        assert abs(l2_norm(grid, np.sin(2 * np.pi * x)) - math.sqrt(0.5)) <= 1e-12

    def test_h2_matches_dense_oracle(self, grid3d):
        f = band_limited(grid3d, seed=13, kmax=2)
        got = h2_norm(grid3d, f)
        want = oracles.dense_hk_norm(grid3d, f, 2)
        assert abs(got - want) <= 1e-10 * max(1.0, want)

    def test_h1_matches_dense_oracle(self, grid3d):
        f = band_limited(grid3d, seed=14, kmax=2)
        got = h1_norm(grid3d, f)
        want = oracles.dense_hk_norm(grid3d, f, 1)
        assert abs(got - want) <= 1e-10 * max(1.0, want)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, seed):
        grid = GridSpec(dim=2, n=8, length=1.7)
        f = band_limited(grid, seed=seed, kmax=3, zero_mean=False)
        phys = float((f**2).sum() * grid.cell_volume)
        spec = grid.spectral_l2_sum(grid.fft(f))
        assert abs(phys - spec) <= 1e-12 * max(1.0, phys)


class TestDealias:
    def test_preserves_low_modes(self, grid3d):
        f = band_limited(grid3d, seed=2, kmax=2)  # within N/3 for n=8
        out = dealiased(grid3d, f)
        assert np.abs(out - f).max() <= 1e-13

    def test_removes_high_modes(self):
        grid = GridSpec(dim=1, n=16, length=1.0)
        (x,) = grid.axes_coordinates()
        high = np.cos(2 * np.pi * 7 * x)  # mode 7 > 16/3
        out = dealiased(grid, high)
        assert np.abs(out).max() <= 1e-13

    def test_idempotent(self, grid3d):
        f = band_limited(grid3d, seed=9, kmax=3)
        once = dealiased(grid3d, f)
        twice = dealiased(grid3d, once)
        assert np.abs(once - twice).max() <= 1e-14


class TestQuadrature:
    def test_integral_matches_fsum(self, grid3d):
        f = band_limited(grid3d, seed=31, kmax=3, zero_mean=False) + 1.0
        got = integrate(ScalarField(grid3d, f))
        want = oracles.fsum_integral(grid3d, f)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_inner_symmetry(self, grid3d):
        f, g = band_limited(grid3d, 41), band_limited(grid3d, 42)
        assert abs(inner(grid3d, f, g) - inner(grid3d, g, f)) <= 1e-15


@st.composite
def real_fields(draw):
    """(grid, values): a grid of dim 1-3 with 8-64 points per side (at
    most 2**15 points) and seeded real values on it, unbatched or with up
    to 4 fields."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from([m for m in (8, 16, 32, 64) if m**dim <= 2**15]))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grid, gen.standard_normal(batch + grid.shape)


class TestForwardTransform:
    """GridSpec.fft gives the bits of scipy.fft.rfftn, for contiguous and
    strided inputs, and leaves its input as it was."""

    @settings(max_examples=60, deadline=None)
    @given(real_fields())
    def test_equals_scipy_rfftn(self, case):
        grid, values = case
        axes = tuple(range(values.ndim - grid.dim, values.ndim))
        want = scipy.fft.rfftn(values, axes=axes)
        kept = values.copy()
        got = grid.fft(values)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(values, kept)
        # the same values as every other element of a wider array
        strided = np.repeat(values, 2, axis=-1)[..., ::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(grid.fft(strided), want)


class TestDependencies:
    def test_the_package_does_not_import_scipy(self):
        # a fresh interpreter, so no test's import of scipy counts
        src = os.path.dirname(os.path.dirname(pnpf.__file__))
        code = (
            "import importlib, pkgutil, sys, pnpf\n"
            "names = [m.name for m in pkgutil.iter_modules(pnpf.__path__, 'pnpf.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "assert 'pnpf.cli' in names, names\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"


@st.composite
def spectra(draw):
    """(grid, spectrum): a grid of dim 1-3 with 8-64 points per side (at
    most 2**15 points) and a seeded complex spectrum in its rfftn layout,
    unbatched or with up to 4 fields.  The spectrum is not Hermitian: its
    DC and Nyquist planes carry imaginary parts, which the inverse must
    treat as scipy.fft.irfftn does."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from([m for m in (8, 16, 32, 64) if m**dim <= 2**15]))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + grid.spectral_shape
    return grid, gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


class TestInverseTransform:
    """GridSpec.ifft gives the bits of scipy.fft.irfftn, into a new array
    or into out, and consumes its input."""

    @settings(max_examples=60, deadline=None)
    @given(spectra())
    def test_equals_scipy_irfftn(self, case):
        grid, spec = case
        axes = tuple(range(spec.ndim - grid.dim, spec.ndim))
        want = scipy.fft.irfftn(spec, s=grid.shape, axes=axes)
        got = grid.ifft(spec.copy())
        out = np.empty(spec.shape[: spec.ndim - grid.dim] + grid.shape)
        into = grid.ifft(spec.copy(), out=out)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert into is out and np.array_equal(out, want)

    def test_spec_is_overwritten(self):
        # the leading axes' complex inverses run in place in spec
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        gen = np.random.default_rng(4)
        spec = gen.standard_normal((2,) + grid.spectral_shape) + 0j
        kept = spec.copy()
        grid.ifft(spec)
        assert not np.array_equal(spec, kept)
        assert np.array_equal(spec, np.fft.ifft(np.fft.ifft(kept, axis=1), axis=2))


@st.composite
def band_cases(draw):
    """(grid, real fields, spectrum vanishing outside the 2/3 band): dim
    1-3, n in {8, 16, 32}, unbatched or with up to 4 fields."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from([8, 16, 32]))
    batch = draw(st.sampled_from([(), (1,), (3,), (4,)]))
    grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + grid.spectral_shape
    spec = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return grid, gen.standard_normal(batch + grid.shape), grid.dealias_mask * spec


@st.composite
def kmax_band_cases(draw):
    """(grid, kmax, real fields, spectrum vanishing outside |m_i| <= kmax):
    dim 1-3, n in {8, 16, 32}, kmax from 0 to n//2, unbatched or with up
    to 4 fields."""
    dim = draw(st.integers(1, 3))
    n = draw(st.sampled_from([8, 16, 32]))
    kmax = draw(st.integers(0, n // 2))
    batch = draw(st.sampled_from([(), (1,), (3,), (4,)]))
    grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = batch + grid.spectral_shape
    spec = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return grid, kmax, gen.standard_normal(batch + grid.shape), grid.band_mask(kmax) * spec


class TestBandTransform:
    """A band transform skips the lanes outside its band (the 2/3 band,
    or |m_i| <= kmax for an int band) and keeps the full transform's bits:
    the forward transform in the band, where the caller's mask keeps it,
    and the inverse of a spectrum that vanishes outside the band,
    everywhere."""

    @settings(max_examples=60, deadline=None)
    @given(band_cases())
    def test_band_transforms_keep_the_bits(self, case):
        grid, values, spec = case
        mask = grid.dealias_mask
        full = grid.fft(values)
        out = np.empty_like(full)
        band = grid.fft(values, out=out, band=True)
        assert band is out and np.array_equal(band[..., mask], full[..., mask])
        assert np.array_equal(grid.ifft(spec.copy(), band=True), grid.ifft(spec.copy()))

    def test_lanes_outside_the_band_are_skipped(self):
        # a forward band transform leaves the last axis's real transform in
        # the lanes it skips; a full one transforms them too
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        values = np.random.default_rng(3).standard_normal(grid.shape)
        band = grid.fft(values, band=True)
        last = np.fft.rfft(values, axis=-1)
        c = grid.n // 3
        assert np.array_equal(band[..., c + 1 :], last[..., c + 1 :])
        assert not np.array_equal(grid.fft(values)[..., c + 1 :], last[..., c + 1 :])

    @settings(max_examples=80, deadline=None)
    @given(kmax_band_cases())
    def test_any_kmax_keeps_the_bits(self, case):
        # against scipy's n-dimensional transforms, whose bits the full
        # transforms have (TestForwardTransform, TestInverseTransform)
        grid, kmax, values, spec = case
        axes = tuple(range(values.ndim - grid.dim, values.ndim))
        mask = grid.band_mask(kmax)
        full = scipy.fft.rfftn(values, axes=axes)
        assert np.array_equal(grid.fft(values, band=kmax)[..., mask], full[..., mask])
        want = scipy.fft.irfftn(spec, s=grid.shape, axes=axes)
        assert np.array_equal(grid.ifft(spec.copy(), band=kmax), want)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_kmax_from_half_takes_the_full_path(self, n):
        # at kmax = n//2 the low and high halves of a full-length axis
        # overlap, so the transform is not pruned; below it, it is
        grid = GridSpec(dim=3, n=n, length=2 * np.pi)
        values = np.random.default_rng(n).standard_normal(grid.shape)
        full = scipy.fft.rfftn(values)
        for kmax in (n // 2, n // 2 + 1, n):
            assert np.array_equal(grid.fft(values, band=kmax), full)
        assert not np.array_equal(grid.fft(values, band=n // 2 - 1), full)

    def test_true_is_the_two_thirds_band_not_kmax_1(self):
        # True == 1 in Python: the flag is told from a kmax by its type
        grid = GridSpec(dim=3, n=16, length=2 * np.pi)
        values = np.random.default_rng(5).standard_normal(grid.shape)
        two_thirds = grid.fft(values, band=True)
        assert np.array_equal(two_thirds, grid.fft(values, band=grid.n // 3))
        assert np.array_equal(two_thirds, grid.fft(values, band=np.True_))
        assert not np.array_equal(two_thirds, grid.fft(values, band=1))
        assert np.array_equal(grid.fft(values, band=False), grid.fft(values))
