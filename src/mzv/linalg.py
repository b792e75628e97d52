"""Exact sparse linear algebra over the rationals.

Rows are sparse mappings column label -> coefficient, where a label is any
hashable value.  `rref` computes the reduced row echelon form for a given
column order with one modular kernel.  It numbers each label once, by its
position in the column order, runs the kernel on those positions, and maps
the result back to labels once on exit.  The result is a dict from each
pivot label, in the order the scan finds the pivots, to its row, pivot entry
1 first.  The kernel:

1. Each row is scaled to integers and divided by its content.
2. The integer rows are eliminated modulo a prime p in column order; within
   a column the pivot is, among the rows whose entry there is nonzero mod p,
   the one with the fewest entries (ties: lowest original row index).  A
   row whose entry is 0 mod p is not a candidate; its entry is dropped when
   the column is eliminated.  Reduction is lazy: rows not yet chosen as
   pivots hold integer representatives of their residues, and a row update
   subtracts b * v without reducing.  The multiplier b is reduced once per
   row and pivot (a row with b = 0 mod p is left alone), and a row is
   reduced in full, its zero residues dropped, when it is chosen as a pivot.
   Pivot rows, back-substitution and the returned echelon hold residues in
   [0, p) and no zeros.
3. Every entry is lifted to Q by Wang's rational reconstruction mod p:
   a/b with |a|, b <= sqrt(p/2).
4. The lift R is certified with integers only, before it is returned:
   - every raw row is orthogonal to the integer-scaled kernel vector
     e_f - sum_c R_c[f] e_c of each free column f, so the row space lies
     inside span(R);
   - the rank mod p is |R|, which is at most the rank over Q;
   - so span(R) is the row space, and R, checked to be in reduced echelon
     form for the column order, is its unique RREF, whatever prime
     produced it.

Each prime's pass stands alone.  When reconstruction or the certificate
fails, the pass is dropped and the next prime of a fixed sequence is tried
on its own: the Mersenne primes 2^e - 1 for the exponents e of
`_MERSENNE_EXPONENTS` (OEIS A000043 from 89, without 107), all known
primes.  A prime whose pivots differ from those over Q (a lower rank, or
other columns) yields a lift the certificate rejects.  2^89 - 1 lifts a/b
with |a|, b up to 2^44: the engine's RREFs in the default order through
weight 14 need one pass (the largest numerator at weight 14, in the table,
is 0.61 of that bound).  2^107 - 1 would lift only up to 2^53, short of
the 58-bit numerators at weight 15, so the next prime is 2^127 - 1, which
lifts up to 2^63.  The last, 2^44497 - 1, lifts about 22,000 bits; should
it not suffice, `rref` raises ArithmeticError.

`rank` is the number of pivots `rref` finds in reversed column-label order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import (Hashable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

__all__ = [
    "SparseMatrix",
    "rref",
    "rank",
]


class SparseMatrix(NamedTuple):
    """Rows of sparse rational coefficients keyed by column label."""
    column_labels: Sequence[Hashable]
    rows: list[Mapping[Hashable, object]]


# ---------------------------------------------------------------------------
# the modular kernel

def _to_int_row(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    """row scaled to coprime integers (content removed)."""
    vals = {c: v for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in vals.values()))
    ints = {c: v.numerator * (den // v.denominator) for c, v in vals.items()}
    g = gcd(*ints.values())
    return ints if g == 1 else {c: v // g for c, v in ints.items()}


_MERSENNE_EXPONENTS = (89, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
                       9689, 9941, 11213, 19937, 21701, 23209, 44497)


def _primes() -> Iterator[int]:
    """The Mersenne primes 2^e - 1 for e in _MERSENNE_EXPONENTS, in order."""
    return ((1 << e) - 1 for e in _MERSENNE_EXPONENTS)


def _eliminate(rows: list[dict[int, int]], col_order: Sequence[int],
               p: int) -> dict[int, dict[int, int]]:
    """RREF mod p: {pivot column: row without its pivot entry}, keys in scan
    order; each row holds only free columns later in col_order, as nonzero
    residues in [0, p).  The pivot of a column is the shortest row whose
    entry there is nonzero mod p; rows not yet chosen as pivots are reduced
    lazily (module docstring, step 2)."""
    active = [dict(r) for r in rows if r]

    echelon: dict[int, dict[int, int]] = {}
    for c in col_order:
        if not active:
            break
        best = -1
        best_len = 0
        for i, row in enumerate(active):
            if c in row and (best < 0 or len(row) < best_len) and row[c] % p:
                best, best_len = i, len(row)
        if best < 0:
            continue
        prow = {k: r for k, v in active.pop(best).items() if (r := v % p)}
        inv = pow(prow.pop(c), -1, p)
        for k in prow:
            prow[k] = prow[k] * inv % p
        items = list(prow.items())
        nxt = []
        for row in active:
            b = row.pop(c, 0) % p
            if b:
                get = row.get
                for k, v in items:
                    row[k] = get(k, 0) - b * v
            if row:
                nxt.append(row)
        active = nxt
        echelon[c] = prow

    # back-substitution, last pivot first: a row holds only columns later
    # than its pivot, so any pivot column in it is already reduced
    for row in reversed(echelon.values()):
        for cj in [k for k in row if k in echelon]:
            e = row.pop(cj)
            get = row.get
            for k, v in echelon[cj].items():
                s = (get(k, 0) - e * v) % p
                if s:
                    row[k] = s
                else:
                    del row[k]
    return echelon


def _ratrec(u: int, m: int, bound: int) -> Fraction | None:
    """a/b = u mod m with |a|, b <= bound, or None."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(echelon: dict[int, dict[int, int]],
          p: int) -> dict[int, dict[int, Fraction]] | None:
    bound = isqrt(p // 2)
    out = {}
    for c, row in echelon.items():
        lifted = {}
        for k, u in row.items():
            q = _ratrec(u, p, bound)
            if q is None:
                return None
            lifted[k] = q
        out[c] = lifted
    return out


def _certify(rows: list[dict[int, int]],
             lifted: dict[int, dict[int, Fraction]]) -> bool:
    """The rows R_c (pivot c, implicit 1) are in reduced echelon form for
    the column order 0, 1, 2, ..., and every raw row is orthogonal to the
    integer-scaled kernel vector D_f (e_f - sum_c R_c[f] e_c) of each free
    column f."""
    scale: dict[int, int] = {}
    for c, row in lifted.items():
        for f, q in row.items():
            if f in lifted or f < c:
                return False
            scale[f] = lcm(scale.get(f, 1), q.denominator)
    kernel: dict[int, dict[int, int]] = {f: {f: d} for f, d in scale.items()}
    for c, row in lifted.items():
        kernel[c] = {f: -q.numerator * (scale[f] // q.denominator)
                     for f, q in row.items()}
    for r in rows:
        acc: dict[int, int] = {}
        for c, v in r.items():
            ker = kernel.get(c)
            if ker is None:
                return False    # a free column no rule mentions: kernel e_c
            for f, w in ker.items():
                acc[f] = acc.get(f, 0) + v * w
        if any(acc.values()):
            return False
    return True


def rref(rows: Iterable[Mapping[Hashable, object]],
         col_order: Sequence[Hashable]
         ) -> dict[Hashable, dict[Hashable, Fraction]]:
    """Reduced row echelon form of rows, scanning pivot columns in col_order.

    A row maps column labels, each listed once in col_order, to rational
    coefficients, ints or Fractions.  The labels are numbered once, by
    position in col_order, and the result is keyed by label again: a dict
    from each pivot label, in scan order, to its row, the pivot entry
    Fraction(1) first.  It is the unique RREF of the row space under
    col_order, certified exactly over Q.
    """
    pos = {c: i for i, c in enumerate(col_order)}
    if len(pos) != len(col_order):
        raise ValueError("column order lists a label twice")
    try:
        keyed = ({pos[c]: v for c, v in row.items()} for row in rows)
        int_rows = [r for r in map(_to_int_row, keyed) if r]
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not in the column "
                         "order") from None

    for p in _primes():
        lifted = _lift(_eliminate(int_rows, range(len(pos)), p), p)
        if lifted is not None and _certify(int_rows, lifted):
            break
    else:
        raise ArithmeticError("no lift certified with the known primes")

    out: dict[Hashable, dict[Hashable, Fraction]] = {}
    for c, tail in lifted.items():
        row = out[col_order[c]] = {col_order[c]: Fraction(1)}
        row.update((col_order[k], v) for k, v in tail.items())
    return out


def rank(m: SparseMatrix) -> int:
    """Rank of m: the pivot count of its RREF in reversed label order."""
    return len(rref(m.rows, m.column_labels[::-1]))
