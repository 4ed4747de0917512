"""Exception types shared across the package."""

__all__ = [
    "QbsimError",
    "ConfigError",
    "NumericalError",
    "ConvergenceError",
    "MemoryCapError",
    "ResonantDenominatorError",
    "NotAnEigenpairError",
]


class QbsimError(Exception):
    """Base class for package-specific failures."""


class ConfigError(QbsimError):
    """Invalid or inconsistent run configuration."""


class NumericalError(QbsimError):
    """A numerical routine failed to meet its accuracy contract."""


class ConvergenceError(NumericalError):
    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message if estimate is None
                         else f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class MemoryCapError(NumericalError):
    def __init__(self, required: int, cap: int):
        super().__init__(
            f"estimated allocation {required / 1e9:.2f} GB exceeds cap {cap / 1e9:.2f} GB"
        )
        self.required = required
        self.cap = cap


class ResonantDenominatorError(NumericalError):
    def __init__(self, mode_index: int, harmonic: int):
        super().__init__(
            f"perturbative denominator vanishes for bath mode {mode_index}, "
            f"harmonic n={harmonic}"
        )
        self.mode_index = mode_index
        self.harmonic = harmonic


class NotAnEigenpairError(NumericalError):
    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"vector is not a one-period eigenstate: residual {residual:.3e} > {tol:.1e}"
        )
        self.residual = residual
