"""Typed errors raised across the package."""


class ModscreenError(Exception):
    """Base class for every error this package raises deliberately."""


class ModulusMismatch(ModscreenError):
    """Two operands live over different moduli."""


class NonInvertible(ModscreenError):
    """Matrix determinant shares a factor with the modulus."""


class NonDivisor(ModscreenError):
    """Target modulus does not divide the source modulus (or vice versa)."""


class EvenPrimeUnsupported(ModscreenError):
    """The nonsplit Cartan construction is defined here for odd primes only."""


class NotASubgroup(ModscreenError):
    """A claimed containment between groups fails on a generator."""


class NotFullDeterminant(ModscreenError):
    """The determinant image is a proper subgroup of the units."""


class NonIntegral(ModscreenError):
    """A closed-form quotient that must be an integer is not."""


class InvariantFailed(ModscreenError):
    """An identity that holds for every valid group failed: a defect, not bad input."""


class ComputationCap(ModscreenError):
    """Base class for deliberate resource limits.

    Carries the operation that stopped, its modulus, the count it reached
    and the cap it passed, besides the message.
    """

    def __init__(self, message: str, *, operation: str, modulus: int,
                 reached: int, cap: int):
        super().__init__(message)
        self.operation = operation
        self.modulus = modulus
        self.reached = reached
        self.cap = cap


class TooLarge(ComputationCap):
    """Enumeration would exceed the element cap."""


class OrbitTooLarge(ComputationCap):
    """A coset orbit walk would exceed the orbit cap."""


class CatalogError(ModscreenError):
    """Base class for catalog ingestion problems."""


class ParseError(CatalogError):
    """Malformed catalog record; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonInvertibleGenerator(CatalogError):
    """A catalog generator is singular modulo the record's level."""

    def __init__(self, label: str, row: int):
        super().__init__(f"entry {label!r}: generator #{row} is not invertible")
        self.label = label
        self.row = row
