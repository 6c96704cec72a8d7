"""Exception types shared across the package, and the CLI's exit codes.

Every package error derives from :class:`RankadaptError` and carries its
exit code as ``exit_code``; this module is the one table of them. The CLI
exits 0 on success, and with the ``exit_code`` of the error that ended a
command: ``EXIT_IO`` (1) for I/O problems (a plain ``OSError`` too),
``EXIT_VALIDATION`` (2) for validation problems, ``EXIT_PROPERTY`` (3) for
numerical and property-sweep failures, ``EXIT_DIVERGED`` (4) for training
divergence and ``EXIT_INTERRUPTED`` (130), which no error carries, for a run
stopped by Ctrl-C or SIGTERM. Each error also keeps the builtin base it
always had, so code that catches ``ValueError`` or ``FileNotFoundError``
still catches it.
"""

EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3
EXIT_DIVERGED = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


class RankadaptError(Exception):
    """Base of the package's errors; ``exit_code`` is the CLI's exit code for it.

    It is ``EXIT_IO``, as for a plain ``OSError``, unless a subclass sets another.
    """

    exit_code = EXIT_IO


class ValidationError(RankadaptError, ValueError):
    """An argument violates a documented precondition."""

    exit_code = EXIT_VALIDATION


class DegenerateSpectrumError(ValidationError):
    """All singular values are zero; effective ranks are undefined."""


class NumericError(RankadaptError, ArithmeticError):
    """A numerical routine failed (e.g. SVD did not converge)."""

    exit_code = EXIT_PROPERTY


class BundleNotFoundError(RankadaptError, FileNotFoundError):
    """A bundle manifest or data file is missing."""


class BundleCorruptionError(RankadaptError, RuntimeError):
    """A bundle's data files disagree with its manifest."""


class UnsupportedFormatError(ValidationError):
    """A bundle declares a dtype this library does not handle."""


class TrainingDivergedError(RankadaptError, RuntimeError):
    """A gradient-descent run blew up instead of converging."""

    exit_code = EXIT_DIVERGED
