"""Exception types shared across the package.

Config/validation problems map to CLI exit code 2, runtime/capacity
problems to exit code 3.
"""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ValidationError(ValueError):
    """Model or scheme parameters violate a structural constraint."""


class ConvergenceError(RuntimeError):
    """An iterative solver exceeded its iteration cap."""


class CapacityError(RuntimeError):
    """An instance is too large for the requested exact computation."""


class PopulationCapError(RuntimeError):
    """A branching-process population exceeded the configured cap."""

    def __init__(self, generation: int, count: int, cap: int):
        self.generation = generation
        self.count = count
        self.cap = cap
        super().__init__(
            f"population cap exceeded at generation {generation}: {count} > {cap}"
        )

    def __reduce__(self):
        # the default reduction re-calls __init__ with the message alone
        return type(self), (self.generation, self.count, self.cap)


class SimulationError(RuntimeError):
    """A Monte Carlo routine could not produce the requested output."""
