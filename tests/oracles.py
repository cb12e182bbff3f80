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
from pnpf.dynamics import (
    _linear_block, _rhs_perturbation_arrays, _rhs_perturbation_core, _rhs_primitive_core,
)
from pnpf.fields import darcy_axes, new_slots
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
    q = varcheck._eliminate_heat_flux(s, params, j_p, j_n, j_e, gphi)
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
    for gn, gp, gth, gphi, jp, jn in darcy_axes(grid, spec, n, p, th, params, _flux_blocks(out)):
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
    return grid.ifft(_outer_divergence(grid, out, dealias))


def _flux_blocks(out: np.ndarray) -> np.ndarray:
    """The (dim, 2) flux blocks of a (2*dim+1)-row buffer, as a view: rows
    2i and 2i+1 take (j_p,i, j_n,i), and the last row is left for
    dtheta."""
    d = (len(out) - 1) // 2
    return out[: 2 * d].reshape((d, 2) + out.shape[1:])


def _outer_divergence(grid: GridSpec, out, dealias) -> np.ndarray:
    """Spectrum of (dn, dp, dtheta) from the (2*dim+1)-row buffer of
    _flux_blocks and dtheta, in one forward transform of every row."""
    d = grid.dim
    spec_j = grid.fft(out)
    dp_hat = -sum(grid.grad_mult[i] * spec_j[2 * i] for i in range(d))
    dn_hat = -sum(grid.grad_mult[i] * spec_j[2 * i + 1] for i in range(d))
    dth_hat = spec_j[2 * d]
    if dealias:
        mask = grid.dealias_mask
        dn_hat, dp_hat, dth_hat = mask * dn_hat, mask * dp_hat, mask * dth_hat
    return np.stack([dn_hat, dp_hat, dth_hat])


def _batched_darcy_axes(grid: GridSpec, spec, n, p, th, params, j):
    """fields.darcy_axes with one 4-field inverse transform per axis, of
    (d_i n, d_i p, d_i theta, d_i phi)."""
    neg_inv_k2 = -grid.inv_k2
    for i, m in enumerate(grid.grad_mult):
        four = np.empty((4,) + spec.shape[1:], dtype=complex)
        for k in range(3):
            np.multiply(m, spec[k], out=four[k])
        phih = four[3]
        np.subtract(spec[0], spec[1], out=phih)
        np.multiply(neg_inv_k2, phih, out=phih)
        np.multiply(m, phih, out=phih)
        gn, gp, gth, gphi = grid.ifft(four)
        jp = np.multiply(-params.D_p, th * gp + p * gth + p * gphi, out=j[i, 0])
        jn = np.multiply(-params.D_n, th * gn + n * gth - n * gphi, out=j[i, 1])
        yield gn, gp, gth, gphi, jp, jn


def batched_rhs_core(grid: GridSpec, spec, n, p, th, params, dealias=True, sink=None):
    """dynamics._rhs_primitive_core with its transforms batched: one
    4-field inverse transform per axis, the three Laplacians in one, and
    one forward transform of a (2*dim+1)-row buffer of the fluxes and
    dtheta.  The arithmetic is the core's, so the output spectrum and an
    AuditSink's sample are the core's bit for bit."""
    d = grid.dim
    Dp, Dn = params.D_p, params.D_n
    wp, wn = params.c_p + 1.0, params.c_n + 1.0
    out = np.empty((2 * d + 1,) + grid.shape)
    j = _flux_blocks(out)
    a_p, a_n, b = np.zeros((3,) + grid.shape)
    slots = new_slots(grid)  # the sink's scratch
    for gn, gp, gth, gphi, jp, jn in _batched_darcy_axes(grid, spec, n, p, th, params, j):
        a_p += gp * (2.0 * gth + gphi)
        a_n += gn * (2.0 * gth - gphi)
        b += jp * (wp * gth + gphi) + jn * (wn * gth - gphi)
        if sink is not None:
            sink.axis(gth, jp, jn, slots.tmp)
    if sink is not None:
        sink.production()

    lap_n, lap_p, lap_th = grid.ifft(-grid.k2 * spec)
    rho = n - p
    heat = Dp * (p * lap_th + th * lap_p + p * rho + a_p)
    heat += Dn * (n * lap_th + th * lap_n - n * rho + a_n)
    heat *= th
    heat += params.k * lap_th
    heat -= b
    np.divide(heat, params.c_p * p + params.c_n * n, out=out[2 * d])
    if sink is not None:
        sink.residual(j, slots)
    return _outer_divergence(grid, out, dealias)


def primitive_rk4_step(grid: GridSpec, ys, params, dt, dealias=True) -> np.ndarray:
    """One RK4 step of the primitive form composed the textbook way on its
    spectrum, with full transforms: y_hat, the forward transform of ys
    (times dealias_mask when dealias, ys then being its inverse
    transform); k1 ... k4 of dynamics._rhs_primitive_core on y_hat with ys
    and on each stage spectrum with its inverse transform; y_hat + dt/6
    (k1 + 2 k2 + 2 k3 + k4).  Returns (n, p, theta, phi) of the new
    spectrum, phi_hat = -(n_hat - p_hat)/|k|^2, in one array."""
    y = grid.fft(np.stack(ys))
    if dealias:
        y = grid.dealias_mask * y
        ys = grid.ifft(y.copy())
    f = lambda z, fields: _rhs_primitive_core(grid, z, *fields, params, dealias)
    stage = lambda k, h: (lambda z: f(z, grid.ifft(z.copy())))(y + h * k)
    k1 = f(y, ys)
    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)
    new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return grid.ifft(np.concatenate([new, [-grid.inv_k2 * (new[0] - new[1])]]))


def perturbation_rk4_step(grid: GridSpec, ys, params, dt, dealias=True) -> list:
    """One RK4 step of the perturbation form composed in real space, the
    textbook way: k1 ... k4 of dynamics._rhs_perturbation_arrays (each a
    forward transform of its stage, the RHS and an inverse transform) and
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4)."""
    f = lambda ys: _rhs_perturbation_arrays(grid, *ys, params, dealias)
    k1 = f(ys)
    k2 = f([a + 0.5 * dt * k for a, k in zip(ys, k1)])
    k3 = f([a + 0.5 * dt * k for a, k in zip(ys, k2)])
    k4 = f([a + dt * k for a, k in zip(ys, k3)])
    return [
        a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(ys, k1, k2, k3, k4)
    ]


def perturbation_imex1_step(grid: GridSpec, ys, params, dt, dealias=True) -> list:
    """One IMEX1 step of the perturbation form composed in real space: the
    forward transform of ys, the explicit rates f of
    dynamics._rhs_perturbation_core, the system (I + dt |k|^2 M) y_new =
    y + dt (f + |k|^2 M y), M = _linear_block(params, False), solved mode
    by mode with numpy.linalg.solve, the mask, and the inverse transform."""
    spec_y = grid.fft(np.stack(ys))
    f = _rhs_perturbation_core(grid, spec_y, params, dealias, values=ys)
    m = _linear_block(params, False)
    k2 = grid.k2.reshape(-1, 1)
    y = spec_y.reshape(3, -1).T
    b = y + dt * (f.reshape(3, -1).T + k2 * (y @ m.T))
    lhs = np.eye(3) + (dt * k2)[:, :, None] * m
    new = np.linalg.solve(lhs, b[:, :, None])[:, :, 0]
    if dealias:
        new *= grid.dealias_mask.reshape(-1, 1)
    return list(grid.ifft(np.ascontiguousarray(new.T).reshape(spec_y.shape)))
