"""Exception types shared across the package.

One class per CLI exit code: every rejected input (a bad argument, config,
model wiring, dataset file or checkpoint, or an API called out of order) is a
ValidationError, exit 2; a NaN or Inf in a computation is a NonFiniteError,
exit 3. The message names what was rejected, so no caller needs a finer type.
"""


class ValidationError(Exception):
    """An input or a call violates a documented precondition."""


class NonFiniteError(Exception):
    """A NaN or Inf appeared in a computation."""
