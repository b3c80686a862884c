"""Exception types shared across the package."""


class AmbientDegenerate(Exception):
    """Metric evaluation produced a non-symmetric-positive-definite matrix,
    or the ambient's fields are not periodic along a surface's winding."""


class StructureViolation(Exception):
    """Almost-complex structure failed J^2 = -I or metric compatibility."""


class NotImmersed(Exception):
    """Surface grid has a node where the induced metric is singular."""


class NotSymplectic(Exception):
    """An operation requiring cos(alpha) > 0 met nodes at or below the floor."""

    def __init__(self, message, bad_nodes=0):
        super().__init__(message)
        self.bad_nodes = bad_nodes


class FlowStalled(Exception):
    """Line search hit the minimum step size without an acceptable update,
    or the descent direction it was given is not finite."""


class ConfigError(Exception):
    """Malformed run configuration (file or command line)."""
