"""The two solution records, ``pell2.PellSolution`` and ``pellm.PellMSolution``.

They stay frozen dataclasses, so ``dataclasses.replace`` makes a variant of
a solution.  This module is the only one that imports ``dataclasses``: the
first ``solve``, ``solve_sequence`` or ``solve_m`` call loads it, and so does
the first read of either name from ``pellred``, ``pell2`` or ``pellm``
(PEP 562 ``__getattr__``).  A command that builds no solution never pays
for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import Poly


@dataclass(frozen=True)
class PellSolution:
    """A normalized solution pair with its provenance index and scale."""

    P: Poly
    Q: Poly
    n: int
    integral: bool
    normalizer: int


@dataclass(frozen=True)
class PellMSolution:
    """Normalized degree-m solution: the circulant of ``sols`` has det 1."""

    m: int
    n: int
    R: Poly
    sols: tuple[Poly, ...]
    integral: bool
    normalizer: int
