"""Purification of noisy two-qubit entanglement: exact Bell-state algebra,
twirling, the pair-sacrifice recurrence protocols, and parity-hashing
breeding runs, with seeded reproducible Monte Carlo throughout."""

__version__ = "0.1.0"

from .bell import BellDiagonal, BellLabel, PauliAxis
from .measures import werner
from .protocols import NotDistillableError
from .qstate import DensityMatrix, PureState

__all__ = [
    "BellDiagonal",
    "BellLabel",
    "DensityMatrix",
    "NotDistillableError",
    "PauliAxis",
    "PureState",
    "werner",
    "__version__",
]
