"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a scenario config or experiment spec is malformed."""


class InfeasibleError(RuntimeError):
    """Raised when a power-allocation problem has no feasible solution.

    stage identifies which solver gave up (e.g. "femto", "robust",
    "macro", "centralized", "zf"); detail carries the diagnostic the caller
    would otherwise have to recompute.
    """

    def __init__(self, stage, detail=""):
        self.stage = stage
        self.detail = detail
        msg = f"infeasible at stage '{stage}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NumericalError(RuntimeError):
    """Raised when an iterative routine fails to converge or produces
    non-finite values."""
