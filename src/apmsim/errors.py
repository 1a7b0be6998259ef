"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the physical or mathematical domain of an operation."""


class UnbracketedRootError(DomainError):
    """A root solve failed because the target lies outside the search bracket.

    index is the flat index of the first such target when the solve was given
    an array, and 0 for a single target.
    """

    def __init__(self, message: str, index: int = 0) -> None:
        super().__init__(message)
        self.index = index


class DataError(ValueError):
    """A required data record (e.g. a measured length at a pressure) is missing."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""
