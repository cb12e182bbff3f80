"""Shared fixtures and field builders for the test suite.

Random fields are generated with the counter-based Philox generator so
every test is reproducible from its integer seed.  Band-limited means:
no spectral content outside mode indices |m_i| <= kmax on any axis, so
products of two such fields are alias-free under the 2/3 rule whenever
kmax <= N/3.
"""

import tracemalloc

import numpy as np
import pytest

from pnpf.grid import GridSpec, ScalarField, integrate
from pnpf.fields import PhysParams, State
from pnpf.dynamics import PerturbationState


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def band_limited(grid: GridSpec, seed: int, kmax: int = 2, amplitude: float = 1.0,
                 zero_mean: bool = True) -> np.ndarray:
    """Random real field with modes confined to |m_i| <= kmax, scaled to
    the requested max-abs amplitude."""
    gen = rng(seed)
    white = gen.standard_normal(grid.shape)
    spec = np.where(grid.band_mask(kmax), grid.fft(white), 0.0)
    if zero_mean:
        spec[(0,) * grid.dim] = 0.0
    vals = grid.ifft(spec)
    peak = np.abs(vals).max()
    if peak > 0:
        vals = vals * (amplitude / peak)
    return vals


def perturbed_state(grid: GridSpec, seed: int, amplitude: float = 1e-3,
                    kmax: int = 2) -> State:
    """Random admissible State near equilibrium: neutral, positive,
    band-limited perturbations of (1, 1, 1)."""
    ut = band_limited(grid, seed, kmax, amplitude)
    v = band_limited(grid, seed + 1, kmax, amplitude)
    tt = band_limited(grid, seed + 2, kmax, amplitude)
    n = ScalarField(grid, 1.0 + 0.5 * (ut + v))
    p = ScalarField(grid, 1.0 + 0.5 * (ut - v))
    theta = ScalarField(grid, 1.0 + tt)
    return State.from_primitives(n, p, theta)


def perturbation_state(grid: GridSpec, seed: int, amplitude: float = 1e-3,
                       kmax: int = 2) -> PerturbationState:
    ut = ScalarField(grid, band_limited(grid, seed, kmax, amplitude))
    v = ScalarField(grid, band_limited(grid, seed + 1, kmax, amplitude))
    tt = ScalarField(grid, band_limited(grid, seed + 2, kmax, amplitude))
    return PerturbationState.from_fields(ut, v, tt)


def laplacian(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The Laplacian as the steppers build it: the -k2 multiplier on the
    forward spectrum."""
    return grid.ifft(-grid.k2 * grid.fft(values))


def dealiased(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """values truncated by the steppers' dealias_mask."""
    return grid.ifft(grid.dealias_mask * grid.fft(values))


def inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> float:
    """L2 inner product <f, g>: grid.integrate of the product."""
    return integrate(ScalarField(grid, f * g))


def peak_grids(fn, grid: GridSpec) -> float:
    """tracemalloc peak of one call of fn above the memory held at its
    entry, in full-grid float64 arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * grid.n**grid.dim)


def count_transforms(monkeypatch, bands=None) -> list[int]:
    """Record, in call order, the real fields each GridSpec.fft/ifft call
    transforms from now on (batch elements count one each); the returned
    list's sum is the total.  bands, a list, takes each call's band flag
    in the same order."""
    widths: list[int] = []
    for name in ("fft", "ifft"):
        orig = getattr(GridSpec, name)

        def counting(grid, arr, *args, _orig=orig, **kwargs):
            widths.append(int(np.prod(arr.shape[: arr.ndim - grid.dim])))
            if bands is not None:
                bands.append(kwargs.get("band", False))
            return _orig(grid, arr, *args, **kwargs)

        monkeypatch.setattr(GridSpec, name, counting)
    return widths


@pytest.fixture
def grid1d() -> GridSpec:
    return GridSpec(dim=1, n=16, length=1.0)


@pytest.fixture
def grid3d() -> GridSpec:
    return GridSpec(dim=3, n=8, length=1.0)


@pytest.fixture
def grid3d_2pi() -> GridSpec:
    return GridSpec(dim=3, n=8, length=2.0 * np.pi)


@pytest.fixture
def params() -> PhysParams:
    return PhysParams()
