"""Error types shared across the package.

Bad arguments and malformed input raise plain ValueError. ComputationError
marks runs that were configured correctly but failed numerically (for
example a discrete-time walk whose norm drifts from 1). The CLI maps
ValueError to exit 2, and ComputationError, like numpy's LinAlgError from
a failed eigendecomposition, to exit 3.
"""


class ComputationError(RuntimeError):
    """A numerically impossible or unreliable computation was requested."""
