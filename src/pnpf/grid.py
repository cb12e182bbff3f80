"""
Periodic uniform grids with Fourier-spectral calculus.

All fields live on a d-dimensional torus [0, L)^d sampled on N points per
axis (row-major / C order).  Derivatives are exact for resolved Fourier
modes; quadrature is the plain cell sum weighted by (L/N)^d, which is the
exact integral of the trigonometric interpolant.

Conventions fixed here and relied on everywhere else:

* wavenumbers k_i = 2*pi*m_i/L with mode indices m_i from fftfreq,
* first-derivative multipliers (grad_mult) zero the Nyquist mode so d/dx
  maps real fields to real fields and is skew-adjoint,
* the Laplacian multiplier is -k2 = -|k|^2 with the Nyquist mode
  included, so the divergence of the gradient equals the Laplacian
  exactly only for fields with no Nyquist content (all dealiased fields
  qualify),
* dealiasing (dealias_mask) keeps mode indices |m_i| <= floor(N/3) per
  axis (2/3 rule).

Everything in this module is a pure function of its inputs, except that
GridSpec.ifft consumes its input spectrum; grids are frozen after
construction and safe to share across threads.

Transforms.  Both directions are numpy's pocketfft on one thread (out=
needs numpy 2.0).  GridSpec.fft runs the real transform of the last axis,
then the complex transform of each leading grid axis in place, in
increasing axis order: that order gives the bits of pocketfft's own
n-dimensional real transform, the reference of tests/test_grid.py
TestForwardTransform, while numpy's rfftn, which takes the leading axes
the other way round, differs from them by up to 6e-13 at 64^3.
GridSpec.ifft mirrors it and has the bits of the n-dimensional inverse
(TestInverseTransform); it consumes its input spectrum and can write into
a caller's buffer, so a kernel can keep its gradients in buffers it
reuses instead of new arrays.  GridSpec.fft can write into a caller's
buffer too.

Band transforms prune the complex passes to a band |m_i| <= c of mode
indices (Markel's pruning): band=True is the 2/3 band, c = n//3, and an
int band is c itself (a probe's kmax).  A lane whose wavenumbers on the
other axes lie outside the band is skipped.  The forward transform runs
the axis-0 pass only on the lanes with k_last <= c and the axis-1 pass
only on those where k_0 is in the band too; its entries outside the band
are left for the caller's mask, and those in it are the full transform's
bit for bit.  The inverse transform needs a spectrum that vanishes
outside the band; it runs the axis-0 pass only on the lanes with k_1 and
k_last in the band and the axis-1 pass only on those with k_last in it,
and gives the full inverse's bits, since a skipped lane holds only zeros
(TestBandTransform, over every c from 0 to n//2).  A band with
c >= n//2 runs the full transform: its low and high halves on a
full-length axis would overlap and transform some lanes twice.  The last
axis's real transform is never pruned.  At 64^3 the 2/3 band's forward
passes run on 2/3 and 4/9 of the lanes (22/33 and 43/64 * 22/33), and a
3-D band transform costs about 0.8 of a full one: one 64^3 field took
2.45 -> 1.94 ms forward and 2.36 -> 1.90 ms inverse, in process CPU on a
2-vCPU shared x86-64 host, into kept buffers.  In 2-D only the one
leading pass is pruned, and in 1-D nothing.  A stepper whose carried
spectrum is band-limited (dynamics, with dealias on) runs every transform
of its steps this way, and varcheck transforms its probe in the probe's
band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# memory guard: a grid may hold at most this many points
MAX_POINTS = 2**24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """
    Periodic uniform grid in dim in {1, 2, 3} dimensions.

    Parameters
    ----------
    dim : int
        Spatial dimension.
    n : int
        Points per axis; power of two, >= 8, with n**dim at most MAX_POINTS.
    length : float
        Box side L (> 0), same along every axis.

    Spectral tables (wavenumbers, inverse Laplacian multipliers, dealias
    mask, Sobolev weights) are precomputed once and immutable.
    """

    dim: int
    n: int
    length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.length > 0):
            raise ValueError(f"length must be positive, got {self.length}")
        if self.n**self.dim > MAX_POINTS:
            raise ValueError(f"{self.n}^{self.dim} points exceed MAX_POINTS={MAX_POINTS}")

        n, L, d = self.n, float(self.length), self.dim
        object.__setattr__(self, "shape", (n,) * d)
        object.__setattr__(self, "spectral_shape", (n,) * (d - 1) + (n // 2 + 1,))
        object.__setattr__(self, "cell_volume", (L / n) ** d)

        k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(n, d=L / n)
        # broadcastable wavenumber component arrays in rfftn layout
        ks = []
        for ax in range(d):
            k1 = k_half if ax == d - 1 else k_full
            shape = [1] * d
            shape[ax] = k1.size
            ks.append(k1.reshape(shape))

        k2 = sum(ki**2 for ki in ks)
        k2 = np.broadcast_to(k2, self.spectral_shape).copy()
        object.__setattr__(self, "k2", k2)

        inv_k2 = np.zeros_like(k2)
        nz = k2 > 0
        inv_k2[nz] = 1.0 / k2[nz]
        object.__setattr__(self, "inv_k2", inv_k2)

        # first-derivative multipliers: i*k with the Nyquist mode zeroed
        nyq = 2.0 * np.pi * (n // 2) / L
        grad_mult = []
        for ki in ks:
            g = 1j * np.where(np.abs(ki) >= nyq * (1 - 1e-12), 0.0, ki)
            grad_mult.append(g)
        object.__setattr__(self, "grad_mult", tuple(grad_mult))

        object.__setattr__(self, "dealias_mask", self.band_mask(n // 3))

        # Sobolev multipliers: sum over multi-indices |alpha| = 1, 2
        # (mixed second derivatives counted once each); h2_norm_weight is
        # the whole H^2 weight 1 + w1 + w2, the one table decay._h2_sq reads
        w1 = k2
        w2 = sum(ki**4 for ki in ks)
        for a in range(d):
            for b in range(a + 1, d):
                w2 = w2 + ks[a] ** 2 * ks[b] ** 2
        object.__setattr__(self, "h1_weight", w1)
        object.__setattr__(self, "h2_norm_weight", 1.0 + w1 + w2)

        # Parseval weights for rfftn layout: conjugate-pair modes on the
        # halved axis count twice
        pw = np.full(self.spectral_shape, 2.0)
        sl = [slice(None)] * d
        sl[d - 1] = 0
        pw[tuple(sl)] = 1.0
        sl[d - 1] = n // 2
        pw[tuple(sl)] = 1.0
        object.__setattr__(self, "parseval_weight", pw)

    def band_mask(self, kmax: int) -> np.ndarray:
        """Boolean mask, in rfftn layout, of the modes with |m_i| <= kmax
        on every axis."""
        n, d = self.n, self.dim
        mask = np.ones(self.spectral_shape, dtype=bool)
        for ax in range(d):
            m1 = np.fft.rfftfreq(n) * n if ax == d - 1 else np.fft.fftfreq(n) * n
            shape = [1] * d
            shape[ax] = m1.size
            mask &= np.abs(m1.reshape(shape)) <= kmax
        return mask

    # -- transforms ---------------------------------------------------------

    def fft(self, values: np.ndarray, out: np.ndarray | None = None,
            band: bool | int = False) -> np.ndarray:
        """Forward real FFT over the trailing dim axes (batches allowed),
        written into out when given, else into a new complex array, which
        is returned: the real transform of the last axis, then the complex
        transform of each leading grid axis in place, in increasing order
        (see the module docstring).  With band (True for the 2/3 band, an
        int for |m_i| <= band), the complex passes skip the lanes outside
        the band, and only the entries in the band (dealias_mask, or
        band_mask(band)) are the transform's; the others are left for the
        caller's mask."""
        spec = np.fft.rfft(values, axis=-1, out=out)
        for lanes, axis in self._passes(spec, band, inverse=False):
            np.fft.fft(lanes, axis=axis, out=lanes)
        return spec

    def ifft(self, spec: np.ndarray, out: np.ndarray | None = None,
             band: bool | int = False) -> np.ndarray:
        """Inverse of :meth:`fft` (batches allowed), written into out when
        given, else into a new real array, which is returned.

        The transform consumes spec: the complex inverse of every leading
        grid axis runs in place in it, and then the real inverse of the
        last axis reads it into the output.  Its bits are those of the
        n-dimensional inverse (the per-axis 1/n scaling is exact for
        powers of two).  With band, spec must vanish outside the band (as
        in fft), and the complex passes skip the lanes that hold only
        zeros."""
        for lanes, axis in self._passes(spec, band, inverse=True):
            np.fft.ifft(lanes, axis=axis, out=lanes)
        return np.fft.irfft(spec, n=self.n, axis=-1, out=out)

    def _passes(self, spec: np.ndarray, band: bool | int, inverse: bool) -> list:
        """(lanes, axis) of each complex pass of a transform of spec, in
        order: every lane of each leading grid axis, or with band the
        lanes of the module docstring's band transforms (the two halves of
        a band on a full-length axis are two views)."""
        lead = spec.ndim - self.dim
        # True == 1, so a flag is told from a kmax by its type
        if isinstance(band, (bool, np.bool_)):
            c = self.n // 3 if band else self.n // 2
        else:
            c = int(band)
        if not 0 <= c < self.n // 2:
            return [(spec, axis) for axis in range(lead, spec.ndim - 1)]
        low, high = slice(None, c + 1), slice(self.n - c, None)
        if self.dim == 2:
            return [(spec[..., low], lead)]
        if self.dim == 3:
            if inverse:
                return [(spec[..., low, low], lead), (spec[..., high, low], lead),
                        (spec[..., low], lead + 1)]
            return [(spec[..., low], lead), (spec[..., low, :, low], lead + 1),
                    (spec[..., high, :, low], lead + 1)]
        return []

    def axes_coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinate arrays (ij indexing), one per axis."""
        x1 = np.arange(self.n) * (self.length / self.n)
        return tuple(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    def spectral_l2_sum(self, spec: np.ndarray, weight=None) -> float:
        """vol * sum_k w(k) |f_hat(k)|^2 / n^d, the Parseval form of
        integral(w-weighted |f|^2)."""
        mag2 = (spec.real**2 + spec.imag**2) * self.parseval_weight
        if weight is not None:
            mag2 = mag2 * weight
        return float(mag2.sum() * self.cell_volume / self.n**self.dim)


@dataclass(frozen=True)
class ScalarField:
    """A real scalar sampled on a GridSpec (values shaped (n,)*dim, C order)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("ScalarField values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


# -- spectral calculus on raw arrays, and quadrature ----------------------


def grad_arrays(grid: GridSpec, values: np.ndarray) -> list[np.ndarray]:
    """Spectral gradient: one forward transform, the dim derivative
    spectra written in place into one preallocated batch, and one batched
    inverse transform of it; the forward spectrum dies before that
    transform."""
    spec = grid.fft(values)
    batch = np.empty((grid.dim,) + spec.shape, dtype=complex)
    for i, m in enumerate(grid.grad_mult):
        np.multiply(m, spec, out=batch[i])
    del spec
    return list(grid.ifft(batch))


def divergence_arrays(grid: GridSpec, comps) -> np.ndarray:
    """Spectral divergence of the dim components comps, which may build
    them lazily: each is forward transformed on its own (the bits of a
    batched transform) and its derivative spectrum added in axis order,
    then one inverse transform."""
    spec = 0
    for m, c in zip(grid.grad_mult, comps):
        spec += m * grid.fft(c)
    return grid.ifft(spec)


def integrate(f: ScalarField) -> float:
    """integral of f over the box: cell sum times (L/N)^dim."""
    return float(f.values.sum() * f.grid.cell_volume)
