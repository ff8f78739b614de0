"""Shared constants for the word-combinatorics and map-condition modules.

All derived constants are functions of the two primitive parameters ``M``
(combinatorial depth cutoff) and ``b`` (perturbation size).  They are
recomputed on access so a ``Params`` can never hold a stale derived value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    """Primitive parameters M and b plus their derived constants.

    M : int
        Order cutoff for simple symbols, M >= 4.  Desk-scale values are
        10..1000; the analytic inequalities hold with room only for much
        larger M, so large-M-only bounds are reported rather than assumed.
    b : float
        Perturbation bound in [0, 1).  b = 0 is the degenerate 1-D case.
    """

    M: int = 100
    b: float = 1e-8

    def __post_init__(self) -> None:
        if self.M < 4:
            raise ValueError(f"M must be >= 4, got {self.M}")
        if not (0.0 <= self.b < 1.0):
            raise ValueError(f"b must lie in [0, 1), got {self.b}")
        if self.c_minus <= 0:
            # c_minus = c - 1/sqrt(M) is positive only for M >= 9.
            warnings.warn(
                f"c_minus = {self.c_minus:.4f} <= 0 at M = {self.M}; "
                "checks that use c_minus are vacuous at this M",
                stacklevel=2,
            )

    @property
    def theta(self) -> float:
        """1/|log b|; 0 when b = 0 (the neighborhood collapses)."""
        if self.b == 0.0:
            return 0.0
        return 1.0 / abs(math.log(self.b))

    @property
    def c(self) -> float:
        """Base expansion rate log(2)/2."""
        return 0.5 * math.log(2.0)

    @property
    def c_plus(self) -> float:
        """Derivative ceiling log 5."""
        return math.log(5.0)

    @property
    def epsilon(self) -> float:
        """1/sqrt(M)."""
        return 1.0 / math.sqrt(self.M)

    @property
    def c_minus(self) -> float:
        """c - epsilon."""
        return self.c - self.epsilon

    @property
    def log_Xi(self) -> float:
        """log of the regularity weight Xi = e^{sqrt M}.

        Kept in log form: Xi itself overflows float for M > ~500000, and
        every use is a comparison that works in log space.
        """
        return math.sqrt(self.M)

    @property
    def Xi(self) -> float:
        """e^{sqrt M}; inf when it overflows (use log_Xi then)."""
        try:
            return math.exp(self.log_Xi)
        except OverflowError:
            return math.inf

    @property
    def lam(self) -> float:
        """Covering-sum decay target e^{-M^(1/4)}."""
        return math.exp(-self.M ** 0.25)
