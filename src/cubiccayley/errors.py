"""Exception types shared across the package.

Each exception maps to a documented CLI exit code; see ``cubiccayley.cli``.
"""


class CubicCayleyError(Exception):
    """Base class for all package errors."""


class ParseError(CubicCayleyError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownGenerator(ParseError):
    pass


class EmptyRelator(ParseError):
    pass


class InvalidParams(CubicCayleyError):
    pass


class NotCubic(CubicCayleyError):
    pass


class NotInCatalogue(CubicCayleyError):
    """Presentation is cubic-eligible but matches none of the nine families.

    The message names the nearest pattern the input resembles; ``case``
    is 1 or 2 when that is a case of the non-planar screen, else None.
    """

    def __init__(self, message, case=None):
        super().__init__(message)
        self.case = case


class Overflow(CubicCayleyError):
    """Coset enumeration hit its cap where completion was required."""


class ConstructionIncomplete(CubicCayleyError):
    pass


class UndefinedInterior(CubicCayleyError):
    pass


class OracleInconclusive(CubicCayleyError):
    pass


class BallTooSmall(CubicCayleyError):
    pass


class NoSeparatorFound(CubicCayleyError):
    pass


class SpinConflict(CubicCayleyError):
    pass


class WrongType(CubicCayleyError):
    pass


class Inconclusive(CubicCayleyError):
    """Ball radius too small to decide an attribute; names the attribute."""

    def __init__(self, attribute):
        super().__init__(f"radius too small to decide: {attribute}")
        self.attribute = attribute


class RenderError(CubicCayleyError):
    pass
