"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """A time argument lies outside the measure's domain [0, a]."""


class GridError(ValueError):
    """A time is not a grid node, or sampled data does not match the grid."""


class UsageError(ValueError):
    """An operation was called outside its stated preconditions."""


class ConfigError(ValueError):
    """A scenario document failed validation.

    Carries the JSON path of the offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class InstabilityError(ArithmeticError):
    """A mode solve exceeded the overflow guard.

    Attributes
    ----------
    mode : int
        The offending mode number (1-based).
    """

    def __init__(self, mode: int, bound: float):
        self.mode = mode
        super().__init__(f"mode {mode} exceeded the overflow guard {bound:g}")


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge.

    Attributes
    ----------
    deltas : list of float
        Sup-norm differences between successive iterates.
    """

    def __init__(self, message: str, deltas: list[float]):
        self.deltas = list(deltas)
        super().__init__(message)


class SteeringError(RuntimeError):
    """Steering missed the target.

    Either max_outer passes reached no fixed point of the steering loop,
    or the loop reached its fixed point with the terminal error still
    above tol_target.

    Attributes
    ----------
    history : list of float
        Terminal errors: the Picard seed's, then one per outer iteration.
    """

    def __init__(self, message: str, history: list[float]):
        self.history = list(history)
        super().__init__(message)


class DegenerateModeError(RuntimeError):
    """A mode Gramian fell below the floor: no control authority there.

    Attributes
    ----------
    mode : int
        The degenerate mode number (1-based).
    """

    def __init__(self, mode: int, gramian: float, floor: float):
        self.mode = mode
        super().__init__(
            f"mode {mode} Gramian {gramian:.3e} is at or below the floor "
            f"{floor:.3e}; the system is not steerable at this resolution"
        )
