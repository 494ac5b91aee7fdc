"""Exception types shared across the package."""


class RiccstabError(Exception):
    """Base class for all package errors."""


class DimensionError(RiccstabError):
    """Operands have incompatible or invalid shapes."""


class ContractError(RiccstabError):
    """A documented precondition was violated (bad values, not bad shapes)."""


class SizeGuardError(RiccstabError):
    """Input exceeds a combinatorial size guard."""


class ClassMismatchError(RiccstabError):
    """A pair does not match the structural class a routine requires."""
