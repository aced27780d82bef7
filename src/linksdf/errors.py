"""Exception types shared across the library."""


class LinkSdfError(Exception):
    """Base class for all library errors."""


class ValidationError(LinkSdfError):
    """Invalid configuration, file content, or scenario parameters."""


class NoOverlapError(LinkSdfError):
    """A placement window has no intersection with the environment grid."""


class LimitViolationError(ValidationError):
    """One or more configurations violate joint position limits.

    Carries ``violations``, a list of (config_index, joint_index) pairs.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        preview = ", ".join(f"(c={c}, j={j})" for c, j in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" and {len(self.violations) - 8} more"
        super().__init__(f"joint limits violated at {preview}{more}")


class NonWatertightError(LinkSdfError):
    """Signed distances were requested for an open or inconsistently oriented mesh."""


class GridMismatchError(LinkSdfError):
    """Two objects built against different environment grids were combined."""


class DimensionMismatchError(ValidationError):
    """A model's output size does not match the requested sample window."""


class NotConvergedError(LinkSdfError):
    """Training finished without reaching the target error.

    Carries ``achieved_error`` and the partially trained ``model``.
    """

    def __init__(self, achieved_error, target_error, model=None):
        self.achieved_error = achieved_error
        self.target_error = target_error
        self.model = model
        super().__init__(
            f"max error {achieved_error:.3e} did not reach target {target_error:.3e}"
        )
