"""Exact sparse linear algebra over the rationals.

Rows are sparse mappings column-index -> coefficient.  Elimination is
fraction-free internally: each row is scaled to integers, kept gcd-reduced,
and combined by cross-multiplication; only the final normalization pass
divides, producing pivot-1 rational rows.  The reduced echelon form for a
given column order is unique, so the internal representation is not
observable.  Pivot selection within a column takes the eligible row with the
smallest total bit-size of its entries, ties broken by lowest original row
index; this curbs coefficient growth and is deterministic.

One elimination loop, `_forward`, serves both entry points: `rref` adds
back-substitution and normalization; `rank` counts its pivots, scanning
columns in reversed index order (fastest on the relation systems).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

__all__ = [
    "SparseMatrix",
    "EchelonForm",
    "rref",
    "rank",
    "solve_for",
]


class SparseMatrix:
    """Rows of sparse rational coefficients over labeled columns."""

    def __init__(self, n_cols: int, column_labels: Sequence | None = None,
                 rows: Iterable[Mapping[int, object]] | None = None):
        if column_labels is not None and len(column_labels) != n_cols:
            raise ValueError("label count does not match n_cols")
        self.n_cols = n_cols
        self.column_labels = list(column_labels) if column_labels else None
        self.rows: list[dict[int, object]] = []
        for r in rows or ():
            self.add_row(r)

    def add_row(self, row: Mapping[int, object]) -> None:
        clean = {}
        for c, v in row.items():
            if not (0 <= c < self.n_cols):
                raise ValueError(f"column index {c} out of range")
            if v:
                clean[c] = v
        self.rows.append(clean)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols})"


class EchelonForm:
    def __init__(self, n_cols: int, col_order: Sequence[int],
                 pivots: dict[int, int], rows: list[dict[int, Fraction]]):
        self.n_cols = n_cols
        self.col_order = tuple(col_order)
        self.pivots = pivots
        self.rows = rows

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def __repr__(self) -> str:
        return f"EchelonForm(rank={self.rank}, n_cols={self.n_cols})"


# ---------------------------------------------------------------------------
# internal integer-row helpers

def _to_int_row(row: Mapping[int, object]) -> dict[int, int]:
    den = 1
    vals = {}
    for c, v in row.items():
        f = v if isinstance(v, Fraction) else Fraction(v)
        if f:
            vals[c] = f
            den = den * f.denominator // gcd(den, f.denominator)
    return {c: int(f * den) for c, f in vals.items()}


def _reduce_row(row: dict[int, int], pos: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    # sign convention: leading entry (earliest in col_order) positive
    lead = min(row, key=pos.__getitem__)
    if row[lead] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _bitsize(row: dict[int, int]) -> int:
    return sum(v.bit_length() for v in row.values())


def _combine(a: int, row2: dict[int, int], b: int, row1: dict[int, int],
             drop: int) -> dict[int, int]:
    # a*row2 - b*row1 with the drop column cancelling exactly
    out = {}
    for c, v in row2.items():
        out[c] = a * v
    for c, v in row1.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    out.pop(drop, None)
    return out


def _forward(m: SparseMatrix, col_order: Sequence[int],
             pos: dict[int, int]) -> list[tuple[int, dict[int, int]]]:
    """Forward elimination in col_order (pos: column -> place in it);
    returns the (pivot column, integer row) pairs in scan order."""
    active: list[tuple[int, dict[int, int]]] = []
    for idx, r in enumerate(m.rows):
        row = _to_int_row(r)
        if row:
            active.append((idx, _reduce_row(row, pos)))

    echelon: list[tuple[int, dict[int, int]]] = []
    for c in col_order:
        if not active:
            break
        best = -1
        best_key = None
        for i, (orig, row) in enumerate(active):
            if c in row:
                key = (_bitsize(row), orig)
                if best < 0 or key < best_key:
                    best, best_key = i, key
        if best < 0:
            continue
        _, prow = active.pop(best)
        a = prow[c]
        nxt = []
        for orig2, row2 in active:
            b = row2.get(c)
            if b:
                row2 = _combine(a, row2, b, prow, c)
                if row2:
                    nxt.append((orig2, _reduce_row(row2, pos)))
            else:
                nxt.append((orig2, row2))
        active = nxt
        echelon.append((c, prow))
    assert not active, "nonzero rows left after scanning every column"
    return echelon


def rref(m: SparseMatrix, col_order: Sequence[int]) -> EchelonForm:
    """Reduced row echelon form scanning pivot columns in col_order.

    The result (pivot set and reduced rows) is the unique RREF of the row
    space under that column order.
    """
    if sorted(col_order) != list(range(m.n_cols)):
        raise ValueError("col_order is not a permutation of the columns")
    pos = {c: i for i, c in enumerate(col_order)}
    echelon = _forward(m, col_order, pos)

    # back-substitution: clear later pivot columns from earlier rows
    for i in range(len(echelon) - 2, -1, -1):
        c_i, row = echelon[i]
        for j in range(i + 1, len(echelon)):
            c_j, rj = echelon[j]
            e = row.get(c_j)
            if e:
                row = _combine(rj[c_j], row, e, rj, c_j)
        echelon[i] = (c_i, _reduce_row(row, pos))

    pivots: dict[int, int] = {}
    rows: list[dict[int, Fraction]] = []
    for c, row in echelon:
        a = row[c]
        rows.append({c2: Fraction(v, a) for c2, v in row.items()})
        pivots[c] = len(rows) - 1
    return EchelonForm(m.n_cols, col_order, pivots, rows)


def rank(m: SparseMatrix) -> int:
    """Rank of m: the forward pass alone, in reversed column order."""
    order = range(m.n_cols - 1, -1, -1)
    return len(_forward(m, order, {c: i for i, c in enumerate(order)}))


def solve_for(e: EchelonForm, col: int):
    """Expression of a pivot column in the free columns, or None if free.

    Returns {free_col: coeff} with x_col = sum coeff * x_free.
    """
    i = e.pivots.get(col)
    if i is None:
        return None
    return {c: -v for c, v in e.rows[i].items() if c != col}
