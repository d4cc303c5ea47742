"""Exception hierarchy shared by all newtonpoly modules.

The CLI maps these onto its exit-code contract: domain errors and failed
verifications exit 1, structural/usage errors exit 2, cap overruns exit 3.
"""


class StructuralError(ValueError):
    """Ill-formed input: mismatched variable sets, bad JSON, mixed radicands."""


class DomainError(ArithmeticError):
    """Mathematically undefined request: pole hit, zero discriminant, a = 0."""


class ResourceCapError(RuntimeError):
    """Iteration index beyond the configured cap (coefficient blow-up guard)."""


DEFAULT_CAP = 8


def check_index(n: int, cap: int) -> None:
    """Guard an iteration index: usage error below 0, cap error above ``cap``."""
    if n < 0:
        raise StructuralError(f"iteration index must be nonnegative, got {n}")
    if n > cap:
        raise ResourceCapError(f"n = {n} exceeds the cap {cap}; raise the cap explicitly")
