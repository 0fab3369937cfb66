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
    """Raised when a computed result fails its own check.

    The simulator raises it only from solve_macro, when the closed-form
    macro powers miss an SINR target or overrun an interference cap beyond
    rounding. The linops helpers dominant_eigpair and spectral_radius,
    which no experiment calls, raise it on a stalled power iteration or
    non-finite entries.
    """
