"""Exception hierarchy for the kernel and the surface language, and the
guard that turns a RecursionError into TooDeep."""

from __future__ import annotations

import functools


class CattError(Exception):
    """Base class for every error raised by this package."""


class UnknownVariable(CattError):
    def __init__(self, name: str, where: str = ""):
        self.name = name
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown variable '{name}'{suffix}")


class SubstitutionUndefined(CattError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"substitution has no entry for '{name}'")


class DuplicateVariable(CattError):
    def __init__(self, name: str, where: str = ""):
        self.name = name
        suffix = f" in {where}" if where else ""
        super().__init__(f"duplicate variable '{name}'{suffix}")


class MalformedSyntax(CattError):
    """Structural invariant of a syntax node violated at construction time."""


class DimensionError(CattError):
    pass


class NotPasting(CattError):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"not a pasting context (entry {position}): {message}")


class NotLocallyMaximal(CattError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable '{name}' is not locally maximal")


class PathInvalid(CattError):
    pass


class LinearHeightTooSmall(CattError):
    pass


class HeadMismatch(CattError):
    pass


class IllTyped(CattError):
    """Raised by typing routines when a judgement fails."""


class TypeMismatch(IllTyped):
    pass


class EndpointTypeMismatch(IllTyped):
    pass


class ArityMismatch(IllTyped):
    pass


class SupportViolation(IllTyped):
    pass


class GlobularityViolation(IllTyped):
    pass


class TooDeep(CattError):
    """A term is nested deeper than the kernel's recursion can traverse."""

    def __init__(self) -> None:
        super().__init__("a term is nested too deeply for the kernel")


def bounded(entry):
    """A public entry point that raises TooDeep, not RecursionError, on a
    term too deep for the kernel."""

    @functools.wraps(entry)
    def guarded(*args, **kw):
        try:
            return entry(*args, **kw)
        except RecursionError:
            raise TooDeep() from None

    return guarded


class SurfaceSyntaxError(CattError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ElaborationError(CattError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line else ""
        super().__init__(f"{where}{message}")
