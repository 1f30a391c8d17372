"""Exact integer feasibility check for small linear systems.

Phase-1 simplex with Bland's rule; used to test whether a circulation with
prescribed support and componentwise nonnegative effect exists.

The tableau is fraction-free: every row, and the phase-1 objective row, is
kept as Python ints equal to the rational row times some positive scale.  A
pivot on (leave, enter) with p = T[leave][enter] > 0 replaces each other row
by p*row - T[i][enter]*row_leave, which is the rational update times the
positive factor p times the two rows' scales, and then divides the row by the
gcd of its entries.  Every decision reads only signs and ratios of entries
within one row, which a positive scale leaves unchanged: the entering column
is the smallest non-artificial one with positive objective coefficient, and
the leaving row minimises rhs_i/a_i over a_i > 0, compared by
cross-multiplying (both denominators are positive), ties going to the
smaller basic variable.  So the pivot sequence and the answer are those of
the same simplex over rationals, without rational arithmetic.  Artificial
columns are never read by a decision, so they are not stored.
"""
from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple


def _normalised(row: List[int]) -> List[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def feasible(
    num_vars: int,
    eq_rows: Sequence[Tuple[Sequence[int], int]],
    ge_rows: Sequence[Tuple[Sequence[int], int]],
    lower: Sequence[int],
) -> bool:
    """Is there a rational x with A_eq x = b_eq, A_ge x >= b_ge, x >= lower?"""
    # shift to y = x - lower >= 0; each >= row gets a surplus column
    n_surplus = len(ge_rows)
    ncols = num_vars + n_surplus
    tableau: List[List[int]] = []
    for j, (coeffs, b) in enumerate(list(eq_rows) + list(ge_rows)):
        row = list(coeffs) + [0] * n_surplus + [b - sum(c * l for c, l in zip(coeffs, lower))]
        if j >= len(eq_rows):
            row[num_vars + j - len(eq_rows)] = -1
        tableau.append(row if row[-1] >= 0 else [-a for a in row])
    # an artificial variable per row is basic; minimise their sum
    basis = [ncols + i for i in range(len(tableau))]
    obj = [sum(row[j] for row in tableau) for j in range(ncols + 1)]

    while True:
        # Bland: smallest improving non-artificial column
        enter = next((j for j in range(ncols) if obj[j] > 0), -1)
        if enter < 0:
            return obj[-1] == 0
        leave = -1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, both denominators positive
                lhs = row[-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen; treat as no progress
            return obj[-1] == 0
        prow = tableau[leave]
        p = prow[enter]
        for i, row in enumerate(tableau):
            f = row[enter]
            if i != leave and f:
                tableau[i] = _normalised([p * a - f * b for a, b in zip(row, prow)])
        f = obj[enter]
        if f:
            obj = _normalised([p * a - f * b for a, b in zip(obj, prow)])
        basis[leave] = enter
