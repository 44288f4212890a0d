"""Exact polynomial Pell equation toolkit built on Redei polynomials."""

from types import ModuleType as _ModuleType

from .polyring import (
    DomainError,
    NEG_INF,
    NotIntegral,
    ONE,
    ParseError,
    Poly,
    X,
    ZERO,
    format_poly,
    parse_poly,
)
from .polymat import DimensionMismatch, PolyMatrix, build_circulant
from .redei import (
    AnswerTooLarge,
    GenRedeiVec,
    InvalidIndex,
    RedeiPair,
    gen_redei,
    gen_redei_oracle,
    gen_redei_sequence,
    norm_identity_holds,
    redei_closed_form,
    redei_matrix,
    redei_recurrence,
    redei_sequence,
    step_matrix,
)
from .pell2 import (
    IntegralityClass,
    NotASolution,
    OddIndexUndefined,
    PellProblem,
    PreconditionViolated,
    UnsupportedD,
    ZeroD,
    classify,
    descend,
    identify_solution,
    nathanson,
    solve,
    solve_sequence,
    solve_square_shift,
    verify,
)
from .pellm import (
    DivisibilityReport,
    IrrationalNormalizer,
    NotPrime,
    ZeroR,
    classify_m,
    divisibility_probe,
    solve_m,
    verify_m,
)

#: Every public name imported above, and the two solution records, which
#: ``__getattr__`` loads on first use; the submodules themselves are not listed.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["PellSolution", "PellMSolution"]

__version__ = "0.1.0"


def __getattr__(name):
    # The solution records are frozen dataclasses; importing ``dataclasses``
    # is left to the first command or call that needs them (PEP 562).
    if name in ("PellSolution", "PellMSolution"):
        from . import solutions

        return getattr(solutions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
