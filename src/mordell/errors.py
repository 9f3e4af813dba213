"""Exception types shared across the package.

The CLI maps InputError (and subclasses) to exit code 2 and
QuotientCeilingError (ArityCeilingError and DigitLimitError included) to
exit code 3.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input: bad literals, off-variety points,
    arity mismatches, unreadable spec files."""


class SpecValidationError(InputError):
    """A group spec file parsed but failed validation (singular curve,
    generators off the variety, failed independence audit)."""


class PreconditionError(RuntimeError):
    """An operation was called on data that has not met its precondition,
    e.g. divisibility queries on a point whose decomposition is Undecided."""


class QuotientCeilingError(RuntimeError):
    """An enumeration would exceed the configured ceiling; what names the
    thing refused (a coefficient box, a decompose shell, a quotient, a
    residue enumeration, a histogram, a point enumeration)."""

    def __init__(self, attempted: int, ceiling: int, what: str):
        self.attempted = attempted
        self.ceiling = ceiling
        self.what = what
        super().__init__(self._message())

    def _message(self) -> str:
        return f"{self.what} of size {self.attempted} exceeds ceiling {self.ceiling}"


class ArityCeilingError(QuotientCeilingError):
    """A polynomial would have more variables than the ceiling allows;
    attempted is its arity, the length of every exponent vector."""

    def __init__(self, attempted: int, ceiling: int):
        super().__init__(attempted, ceiling, "polynomial arity")

    def _message(self) -> str:
        return (
            f"polynomial arity {self.attempted}: an exponent vector of size"
            f" {self.attempted} exceeds ceiling {self.ceiling}"
        )


class DigitLimitError(QuotientCeilingError):
    """A number has more decimal digits than the int-to-str limit lets
    print; attempted is its digit count."""

    def __init__(self, attempted: int, ceiling: int):
        super().__init__(attempted, ceiling, "number")

    def _message(self) -> str:
        return (
            f"number of {self.attempted} digits exceeds ceiling {self.ceiling},"
            " the int-to-str digit limit"
        )
