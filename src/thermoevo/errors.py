"""Exception hierarchy shared across the toolkit."""


class ThermoevoError(Exception):
    """Base class for all toolkit errors."""


class InputError(ThermoevoError):
    """Invalid or inconsistent input data (bad samples, mismatched grids, ...)."""


class ConfigError(InputError):
    """Malformed run configuration (unknown keys, missing sections, bad values)."""


class PoleProximityError(ThermoevoError):
    """A rational symbol was evaluated too close to one of its poles."""


class RealizationError(ThermoevoError):
    """A rational function cannot be realized: it is not a real scalar law, or
    it has a complex or a repeated pole."""


class SingularSystemError(ThermoevoError):
    """The implicit step matrix could not be factorized."""


class ArtifactWriteError(ThermoevoError):
    """An output file could not be written."""


class OracleRejectionError(InputError):
    """The spectral reference solver does not support the given problem."""
