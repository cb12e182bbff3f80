"""Independent dense oracles used to freeze expected values, and the
reference definitions that production shortcuts are compared against.

The dense oracles deliberately avoid the library's FFT code path:
differentiation matrices are assembled from explicitly constructed DFT
matrices, the constrained Poisson solve goes through a dense KKT system,
and quadratures use math.fsum over plain Python loops.
"""

import itertools
import math

import numpy as np

from pnpf import varcheck
from pnpf.fields import darcy_axes
from pnpf.grid import GridSpec, grad_arrays


def dft_matrix(n: int) -> np.ndarray:
    """Explicit DFT matrix F[j, l] = exp(-2*pi*i*j*l/n)."""
    j, l = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * l / n)


def diff_matrix_1d(n: int, length: float, order: int = 1) -> np.ndarray:
    """Dense spectral differentiation matrix (same conventions as the
    library: Nyquist zeroed for odd orders, kept for even orders)."""
    F = dft_matrix(n)
    Finv = np.conj(F).T / n
    m = np.fft.fftfreq(n) * n
    k = 2.0 * np.pi * m / length
    if order % 2 == 1:
        k = np.where(np.abs(m) == n // 2, 0.0, k)
    mult = (1j * k) ** order
    D = Finv @ np.diag(mult) @ F
    return np.real(D)


def apply_axis(mat: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(values, axis, 0)
    out = np.tensordot(mat, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def dense_gradient(grid: GridSpec, values: np.ndarray) -> list:
    D = diff_matrix_1d(grid.n, grid.length, 1)
    return [apply_axis(D, values, ax) for ax in range(grid.dim)]


def dense_derivative(grid: GridSpec, values: np.ndarray, alpha) -> np.ndarray:
    """Apply the multi-index derivative d^alpha via dense 1D matrices."""
    out = values
    for ax, order in enumerate(alpha):
        for _ in range(order):
            D = diff_matrix_1d(grid.n, grid.length, 1)
            out = apply_axis(D, out, ax)
    return out


def multi_indices(dim: int, order: int):
    """All multi-indices alpha with |alpha| == order."""
    for combo in itertools.combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for ax in combo:
            alpha[ax] += 1
        yield tuple(alpha)


def dense_hk_norm(grid: GridSpec, values: np.ndarray, k: int) -> float:
    """H^k norm via dense derivatives and fsum quadrature."""
    total = 0.0
    for order in range(k + 1):
        for alpha in multi_indices(grid.dim, order):
            d = dense_derivative(grid, values, alpha)
            total += fsum_integral(grid, d * d)
    return math.sqrt(total)


def dense_laplacian_matrix(grid: GridSpec) -> np.ndarray:
    """Dense Laplacian on the flattened grid (sum of 1D second-derivative
    matrices Kronecker-lifted along each axis)."""
    n, d = grid.n, grid.dim
    D2 = diff_matrix_1d(n, grid.length, 2)
    eye = np.eye(n)
    total = np.zeros((n**d, n**d))
    for ax in range(d):
        mats = [eye] * d
        mats[ax] = D2
        acc = mats[0]
        for m in mats[1:]:
            acc = np.kron(acc, m)
        total += acc
    return total


def dense_poisson_solve(grid: GridSpec, source: np.ndarray) -> np.ndarray:
    """Solve Delta(phi) = source with the zero-mean constraint through a
    dense KKT system."""
    npts = grid.n**grid.dim
    A = dense_laplacian_matrix(grid)
    kkt = np.zeros((npts + 1, npts + 1))
    kkt[:npts, :npts] = A
    kkt[:npts, npts] = 1.0
    kkt[npts, :npts] = 1.0
    rhs = np.concatenate([source.ravel(), [0.0]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:npts].reshape(grid.shape)


def fsum_integral(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature via math.fsum over a plain Python loop."""
    return math.fsum(float(x) for x in values.ravel()) * grid.cell_volume


def dissipation_functional(s, params, j_p, j_n, j_e) -> float:
    """The quadratic entropy production of arbitrary fluxes, with q
    eliminated through the energy-flux relation (grad(phi) built here):
    the definition that varcheck's linearly split scan evaluates."""
    gphi = grad_arrays(s.grid, s.phi.values)
    q, _, _ = varcheck._eliminate_heat_flux(s, params, j_p, j_n, j_e, gphi)
    return varcheck._dissipation(s, params, j_p, j_n, q)


def nine_sum_rhs(grid: GridSpec, n, p, th, params, dealias=True) -> np.ndarray:
    """(dn, dp, dtheta) of the primitive system with the temperature rate
    in its expanded form, nine dot products summed over the axes:

        (c_p p + c_n n) dtheta = k Delta(theta) + |j_p|^2/(D_p p)
            + |j_n|^2/(D_n n) - theta div(j_p) + (theta/p) j_p.grad(p)
            - theta div(j_n) + (theta/n) j_n.grad(n)
            - (c_p j_p + c_n j_n).grad(theta).

    The fluxes, the outer divergence and the dealiasing are the RHS's, so
    dn and dp have its bits; the folded three-sum heat rate of
    dynamics._fluxes_and_heat_rate differs from this one by rounding."""
    d = grid.dim
    Dp, Dn = params.D_p, params.D_n
    spec = grid.fft(np.stack([n, p, th]))
    out = np.empty((2 * d + 1,) + grid.shape)
    gp_gth, gn_gth, gp_gphi, gn_gphi, jp2, jn2, jp_gp, jn_gn, jheat_gth = np.zeros(
        (9,) + grid.shape
    )
    for gn, gp, gth, gphi, jp, jn in darcy_axes(grid, spec, n, p, th, params, out):
        gp_gth += gp * gth
        gn_gth += gn * gth
        gp_gphi += gp * gphi
        gn_gphi += gn * gphi
        jp2 += jp**2
        jn2 += jn**2
        jp_gp += jp * gp
        jn_gn += jn * gn
        jheat_gth += (params.c_p * jp + params.c_n * jn) * gth

    lap_n, lap_p, lap_th = grid.ifft(-grid.k2 * spec)
    rho = n - p
    div_jp = -Dp * (p * lap_th + 2.0 * gp_gth + th * lap_p + gp_gphi + p * rho)
    div_jn = -Dn * (n * lap_th + 2.0 * gn_gth + th * lap_n - gn_gphi - n * rho)
    heat = params.k * lap_th + jp2 / (Dp * p) + jn2 / (Dn * n)
    heat -= th * div_jp - (th / p) * jp_gp
    heat -= th * div_jn - (th / n) * jn_gn
    heat -= jheat_gth
    np.divide(heat, params.c_p * p + params.c_n * n, out=out[2 * d])

    spec_j = grid.fft(out)
    dp_hat = -sum(grid.grad_mult[i] * spec_j[i] for i in range(d))
    dn_hat = -sum(grid.grad_mult[i] * spec_j[d + i] for i in range(d))
    dth_hat = spec_j[2 * d]
    if dealias:
        mask = grid.dealias_mask
        dn_hat, dp_hat, dth_hat = mask * dn_hat, mask * dp_hat, mask * dth_hat
    return grid.ifft(np.stack([dn_hat, dp_hat, dth_hat]))
