"""Purification of noisy two-qubit entanglement: exact Bell-state algebra,
twirling, the pair-sacrifice recurrence protocols, and parity-hashing
breeding runs, with seeded reproducible Monte Carlo throughout.

The exports below load on first access (PEP 562), so importing the package,
or running `python -m bellpure`, does not import numpy by itself."""

__version__ = "0.2.0"

#: Each export and the submodule that defines it.
_EXPORTS = {
    "BellDiagonal": "bell",
    "BellLabel": "bell",
    "PauliAxis": "bell",
    "werner": "measures",
    "NotDistillableError": "measures",
    "DensityMatrix": "qstate",
    "PureState": "qstate",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
