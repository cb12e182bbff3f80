"""
Spectral Poisson solves on the torus with the zero-mean gauge.

solve(v) returns phi with Delta(phi) = v and mean(phi) = 0; this is the
periodic stand-in for the whole-space potential with decay at infinity
(potentials only enter the dynamics through grad(phi), which is gauge
independent).  The solvability condition is neutrality, mean(v) = 0; a
violation signals an initial-condition bug and is reported, never
repaired.

greens_apply is the one inverse Laplacian, (-Delta)^{-1}: the torus
Green's function of -Delta including its constant-mode filter.  It
accepts sources with nonzero mean (the mean is annihilated, matching the
zero-mean-gauge kernel) and is self-adjoint; on a neutral source it is
-solve.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField

NEUTRALITY_TOL = 1e-12


class NonNeutralSource(ValueError):
    """Poisson source with |mean| above tolerance: no periodic solution."""


def solve_array(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """phi_hat = -v_hat/|k|^2 for k != 0, phi_hat(0) = 0 (raw arrays)."""
    return grid.ifft(-grid.inv_k2 * grid.fft(v))


def solve(v: ScalarField) -> ScalarField:
    """
    The potential phi solving Delta(phi) = v on the torus, zero-mean gauge.

    Raises
    ------
    NonNeutralSource
        If |mean(v)| > 1e-12 (periodic solvability requires neutrality).
    """
    g = v.grid
    m = float(v.values.mean())
    if abs(m) > NEUTRALITY_TOL:
        raise NonNeutralSource(
            f"Poisson source has mean {m:.3e} (tolerance {NEUTRALITY_TOL:.0e}); "
            "the periodic problem requires a neutral source"
        )
    return ScalarField(g, solve_array(g, v.values))


def greens_apply(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """
    Torus Green's operator of -Delta on raw arrays: the constant mode is
    annihilated (zero-mean gauge), arbitrary-mean inputs allowed.  The
    free-space convolutions with 1/(4*pi*|x-y|) in the variational
    closed forms are realized through this operator.
    """
    return -solve_array(grid, values)
