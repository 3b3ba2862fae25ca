"""Exact linear-recurrence analysis of rational sequences.

Everything here is exact rational arithmetic; there is no floating tolerance
anywhere.  Verdicts are deliberately bounded: FOUND recurrences are verified
against every available term, and a negative result only ever says "no
recurrence of order <= L fits the window".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import InsufficientData


def _sequence(values) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(v) for v in values)
    if not vals:
        raise ValueError("empty sequence")
    return vals


@dataclass(frozen=True)
class RecurrenceReport:
    status: str  # FOUND | NONE_UP_TO
    order: int | None  # order r when FOUND, else the cap L
    coefficients: tuple[Fraction, ...] | None  # phi_0..phi_{r-1}, monic implied
    checked_terms: int
    order_cap: int

    def char_poly(self) -> exact.CharPoly:
        if self.status != "FOUND":
            raise ValueError("no recurrence was found")
        return exact.CharPoly(self.coefficients)


@dataclass(frozen=True)
class HankelProfile:
    ranks: tuple[int, ...]  # rank of H_s for s = 1..S

    @property
    def max_size(self) -> int:
        return len(self.ranks)

    def stagnation_rank(self) -> int | None:
        """The stabilized rank, if the profile has flattened out."""
        if len(self.ranks) >= 2 and self.ranks[-1] == self.ranks[-2]:
            return self.ranks[-1]
        return None


def _solve_recurrence(vals, r):
    """Monic order-r recurrence coefficients fitting all terms, or None.

    Row-reduces the equations sum_i phi_i a_{n+i} = -a_{n+r} for all
    admissible n; they are inconsistent exactly when the right-hand side
    column gets a pivot.  Free variables are pinned to 0; the solution is then
    re-verified against every equation.
    """
    N = len(vals)
    rows = ([vals[n + i] for i in range(r)] + [-vals[n + r]] for n in range(N - r))
    _, pivots = exact.row_reduce(rows)
    if r in pivots:
        return None  # inconsistent
    phi = tuple(pivots[j][r] if j in pivots else Fraction(0) for j in range(r))
    for n in range(N - r):
        if sum((phi[i] * vals[n + i] for i in range(r)), vals[n + r]) != 0:
            return None
    return phi


def minimal_recurrence(values, max_order: int) -> RecurrenceReport:
    """Minimal-order monic recurrence fitting the whole sequence, if any.

    A meaningful verdict at order L needs N >= 2L + 2 terms; shorter input
    caps the verdict at floor((N - 2) / 2).
    """
    vals = _sequence(values)
    N = len(vals)
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    cap = min(max_order, (N - 2) // 2)
    if cap < 1:
        raise InsufficientData(
            f"need at least 4 terms for any verdict (got {N})", needed=4
        )
    for r in range(1, cap + 1):
        phi = _solve_recurrence(vals, r)
        if phi is not None:
            return RecurrenceReport(
                status="FOUND",
                order=r,
                coefficients=phi,
                checked_terms=N,
                order_cap=cap,
            )
    return RecurrenceReport(
        status="NONE_UP_TO",
        order=cap,
        coefficients=None,
        checked_terms=N,
        order_cap=cap,
    )


def _rank_hankel(vals, s) -> int:
    rows = [[vals[i + j] for j in range(s)] for i in range(s)]
    return exact.rank_of_rows(rows)


def hankel_ranks(values, max_size: int) -> HankelProfile:
    """Exact ranks of the s x s Hankel matrices (a_{i+j}) for s = 1..S."""
    vals = _sequence(values)
    N = len(vals)
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    if N < 2 * max_size - 1:
        raise InsufficientData(
            f"need {2 * max_size - 1} terms for Hankel size {max_size} (got {N})",
            needed=2 * max_size - 1,
        )
    return HankelProfile(
        ranks=tuple(_rank_hankel(vals, s) for s in range(1, max_size + 1))
    )


def cayley_hamilton_check(values, chi: exact.CharPoly) -> tuple[Fraction, ...]:
    """Residuals of the recurrence with the characteristic coefficients.

    Entries of matrix powers satisfy the recurrence of their characteristic
    polynomial, so all-zero residuals certify that relation on this window.
    """
    vals = _sequence(values)
    L = chi.degree
    N = len(vals)
    if N < L + 1:
        raise InsufficientData(
            f"need at least degree + 1 = {L + 1} terms (got {N})", needed=L + 1
        )
    residuals = []
    for n in range(N - L):
        res = vals[n + L] + sum(
            (chi.coeffs[i] * vals[n + i] for i in range(L)), Fraction(0)
        )
        residuals.append(res)
    return tuple(residuals)
