"""Exception hierarchy shared across the package.

Every error raised on a bad input derives from GridFireError so the CLI can
map "user problem" to one exit code and genuine bugs to another. The CLI
prints only the message, so a class exists only where some code catches
it apart from the rest: OutOfBoundsError, which `place_ignitions`,
`line_cells` and `cmd_simulate` re-raise naming the line or the file, and
CoverageError, which `run_batch` re-raises naming the config key. Every
other bad input raises InvalidInputError.
"""


class GridFireError(Exception):
    """Base class for all input and consistency errors."""


class InvalidInputError(GridFireError):
    """An input is outside its documented domain or breaks its format."""


class OutOfBoundsError(GridFireError):
    """A point or segment falls outside the raster extent."""


class CoverageError(GridFireError):
    """The weather series does not span a requested window."""
