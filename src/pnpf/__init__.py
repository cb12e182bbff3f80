"""Pseudospectral solver for the coupled Poisson-Nernst-Planck-Fourier
system on a periodic box, with continuous thermodynamic-structure audits
(conservation, entropy production, reciprocal relations, variational
force identities, Lyapunov decay)."""

from .grid import GridSpec, ScalarField
from .fields import PhysParams, State, PositivityError
from .poisson import NonNeutralSource
from .dynamics import PerturbationState, StepperConfig, StepAbort

__all__ = [
    "GridSpec",
    "ScalarField",
    "PhysParams",
    "State",
    "PositivityError",
    "NonNeutralSource",
    "PerturbationState",
    "StepperConfig",
    "StepAbort",
]

__version__ = "0.1.0"
