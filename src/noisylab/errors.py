"""Exception types shared across the package."""


class NoisylabError(Exception):
    """Base class for package errors."""


class ShapeError(NoisylabError, ValueError):
    """A tensor does not have the shape an operation requires."""


class ParameterError(NoisylabError, ValueError):
    """A value is outside the range an operation accepts."""


class ConfigError(NoisylabError, ValueError):
    """A run configuration failed validation (CLI exit code 2)."""


class TrainingError(NoisylabError, RuntimeError):
    """Training produced a non-finite loss or otherwise diverged (exit code 3).

    Carries epoch/batch context when available.
    """

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class EmptySupportError(NoisylabError):
    """The support set is empty; geometry must be skipped this epoch."""


def undecodable(path, exc: UnicodeDecodeError) -> ConfigError:
    """ConfigError naming a file whose bytes do not decode as text."""
    return ConfigError(f"{path} is not {exc.encoding} text: {exc.reason} "
                       f"(byte {exc.object[exc.start]:#04x})")
