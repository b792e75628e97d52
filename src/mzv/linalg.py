"""Exact sparse linear algebra over the rationals.

Rows are sparse mappings column label -> coefficient, where a label is any
hashable value.  `rref` computes the reduced row echelon form for a given
column order with one modular kernel.  It numbers each label once, by its
position in the column order, runs the kernel on those positions, and maps
the result back to labels once on exit.  The result is a dict from each
pivot label, in the order the scan finds the pivots, to its row, pivot entry
1 first.  The kernel:

1. Each row is scaled to integers and divided by its content.
2. The integer rows are eliminated modulo a prime p in column order.  At
   each column the active rows that hold it, its holders, are collected
   once; the pivot is, among the holders whose entry is nonzero mod p, the
   one with the fewest entries (ties: lowest original row index), and only
   the holders are updated.  Every holder loses its entry at the column,
   also when none is a candidate.  The pivot row is consumed (cleared), and
   rows left empty, such as dependent ones, are dropped.  Reduction is
   lazy: rows not yet chosen as pivots hold integer representatives of
   their residues, and a row update subtracts b * v without reducing.  The
   multiplier b is reduced once per row and pivot (a row with b = 0 mod p
   is left alone), and a row is reduced in full, its zero residues dropped,
   when it is chosen as a pivot.  Pivot rows and the returned echelon hold
   residues in [0, p) and no zeros.
   Back-substitution, last pivot first, packs each row over the free
   columns into one integer, a fixed-width slot per column (Kronecker
   substitution): its own entries plus, for each pivot column it holds with
   entry e, (p - e) times that column's packed reduced row.  A slot sums at
   most one term in [0, p^2) per pivot, so at 2*bits(p) + bits(#pivots) + 1
   bits it never carries; the sum is unpacked once, each slot reduced mod p.
3. The entries are lifted to Q over one denominator D shared across the
   echelon, starting at D = 1, with a bound t for the integer test.  For a
   residue u, let s be u*D mod p in (-p/2, p/2].  If |s| < t, the entry is
   s/D.  Otherwise maximal quotient rational reconstruction (Monagan, ISSAC
   2004) writes s as a/b: the remainder and cofactor of the extended
   Euclidean algorithm on (p, s) just before its largest quotient, accepted
   only when that quotient exceeds 2^g, with g = `_G` = 16.  Then D becomes
   b*D, and the entry is a/D.  The lift is D and the numerators u*D mod p
   in (-p/2, p/2].  The first pass takes t = p/2^(g+1); an entry whose
   denominator D does not hold yet passes its integer test with
   probability about 2^-g, and the certificate rejects such a lift.
4. The lift (D, N) is certified with integers only, before it is returned:
   - every raw row is orthogonal to the kernel vector
     D e_f - sum_c N_c[f] e_c of each free column f, so the row space lies
     inside span(R), where R_c = e_c + sum_f (N_c[f]/D) e_f;
   - the rank mod p is |R|, which is at most the rank over Q;
   - so span(R) is the row space, and R, checked to be in reduced echelon
     form for the column order, is its unique RREF, whatever prime
     produced it.
   A raw column in no row of R is free, with the kernel vector D e_c, so
   the product rejects a raw row holding it.  The product is packed along
   its shorter side, the kernel vectors or the raw rows: a signed slot per
   vector, of W = bits(largest entry there) + bits(largest L1 norm on the
   other side) + 2 bits, so each slot sum is below 2^(W-2) in size, and a
   packed sum is 0 only when every slot is (its highest nonzero slot
   outweighs all below).  Each vector of the longer side takes one sum of
   products.
   When MQRR fails or the certificate rejects the first pass, the same
   residues are lifted again with t = sqrt(p) and certified again.

Each prime's pass stands alone.  When neither lift is certified, the pass
is dropped and the next prime of a fixed sequence is tried on its own: the
Mersenne primes 2^e - 1 for the exponents e of `_MERSENNE_EXPONENTS` (OEIS
A000043 from 89, without 107), all known primes.  A prime whose pivots
differ from those over Q (a lower rank, or other columns) yields lifts the
certificate rejects.  A prime bounds the numerators over D, not each entry
alone: at 2^89 - 1 the first pass reads numerators over D up to about
2^72.  The engine's RREFs in the default order through weight 15 need one
pass at 2^89 - 1 (at weight 15 the low-fill echelon has 59-bit numerators,
a 38-bit D and 66 bits over D).

The second pass is for an alias: at a Mersenne prime 2^e - 1,
2^-k = 2^(e-k), so while D holds no power of two, an entry 1/2^k with
g + 1 < k < e passes the first integer test as 2^(e-k) at every prime,
and the certificate rejects that lift.  With t = sqrt(p) nothing is lost:
for 0 < |s| < sqrt(p) the first Euclidean quotient p // |s| is at least
|s| and every later one at most |s|, so whenever MQRR reads anything it
reads the integer s.  Above sqrt(p) MQRR decides: 2^(e-k) with k < e/2
has the quotients 2^k - 1, 1 and 2^(e-k) - 1, so it reads 1/2^k, at the
first prime with 2^k <= sqrt(p/2).  One D bounds the product of the
denominators, not each alone: entries with small pairwise-coprime
denominators whose product passes p/2^(g+1) lift at a later prime.
2^107 - 1 is left out: a pass that fails costs a whole elimination, and
over D it would read 18 bits past 2^89 - 1, where 2^127 - 1 reads 38.  The
last prime, 2^44497 - 1, reads numerators over D up to about 2^44480;
should it not suffice, `rref` raises ArithmeticError.

`integer_rref` takes rational rows and returns the same RREF as D and
integer rows whose pivot entry is D; `rref`, its Fraction wrapper, divides
by D once.  `kernel_basis` reads the certificate's kernel vectors off such
an echelon.  `rank` is the number of pivots `integer_rref` finds in
reversed column-label order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import (Hashable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

__all__ = [
    "SparseMatrix",
    "rref",
    "integer_rref",
    "kernel_basis",
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


# the lift's margin: the first pass reads an entry as an integer over D when
# its numerator is below p/2^(_G+1), and MQRR accepts a quotient above 2^_G
_G = 16

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
        holders = [row for row in active if c in row]
        cands = [row for row in holders if row[c] % p]
        if cands:
            best = min(cands, key=len)
            prow = {k: r for k, v in best.items() if (r := v % p)}
            best.clear()
            inv = pow(prow.pop(c), -1, p)
            for k in prow:
                prow[k] = prow[k] * inv % p
            items = list(prow.items())
            echelon[c] = prow
        # every holder loses c; with no candidate, every b is 0
        for row in holders:
            if b := row.pop(c, 0) % p:
                get = row.get
                for k, v in items:
                    row[k] = get(k, 0) - b * v
        if not all(holders):
            active = [row for row in active if row]

    # back-substitution over the free columns, each in a fixed-width slot
    # (module docstring, step 2); any pivot column a row holds comes later
    free = set().union(*echelon.values()).difference(echelon)
    slot = {f: i for i, f in enumerate(c for c in col_order if c in free)}
    size = (2 * p.bit_length() + len(echelon).bit_length() + 8) // 8

    def pack(vals: list[int]) -> int:
        return int.from_bytes(b"".join(v.to_bytes(size, "little")
                                       for v in vals), "little")

    packed: dict[int, int] = {}
    for c in reversed(list(echelon)):
        res, acc = [0] * len(slot), 0
        for k, v in echelon[c].items():
            if k in slot:
                res[slot[k]] = v
            else:
                acc += (p - v) * packed[k]
        if acc:
            data = (acc + pack(res)).to_bytes(size * len(slot), "little")
            res = [int.from_bytes(data[i:i + size], "little") % p
                   for i in range(0, len(data), size)]
        packed[c] = pack(res)
        echelon[c] = {f: r for f, r in zip(slot, res) if r}
    return echelon


def _mqrr(u: int, m: int) -> int | None:
    """The denominator b > 0 of the maximal quotient rational
    reconstruction a/b of u mod m (Monagan, ISSAC 2004): the remainder and
    cofactor of the extended Euclidean algorithm on (m, u) just before its
    largest quotient, if that quotient exceeds 2^_G and gcd(a, b) = 1;
    else None."""
    top, a, b = 1 << _G, 0, 0
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 and r0 > top:
        q = r0 // r1
        if q > top:
            top, a, b = q, r1, t1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return abs(b) if b and gcd(a, b) == 1 else None


def _lift(echelon: dict[int, dict[int, int]], p: int,
          small: int) -> tuple[int, dict[int, dict[int, int]]] | None:
    """(D, numerators over D) with one denominator D grown across the
    echelon, an entry read as an integer over D when its numerator is below
    small in size (module docstring, step 3); or None."""
    den = 1
    for row in echelon.values():
        for u in row.values():
            s = u * den % p
            if small <= s <= p - small:
                b = _mqrr(s, p)
                if b is None:
                    return None
                den *= b
    half = p >> 1
    return den, {c: {k: s - p if (s := u * den % p) > half else s
                     for k, u in row.items()}
                 for c, row in echelon.items()}


def _lifts(rows: list[dict[int, int]], n_cols: int
           ) -> Iterator[tuple[int, dict[int, dict[int, int]]] | None]:
    """At each prime in turn, one elimination, then its lift with the
    integer test below p/2^(_G+1) and below sqrt(p); a lift is None where
    reconstruction failed."""
    for p in _primes():
        echelon = _eliminate(rows, range(n_cols), p)
        yield _lift(echelon, p, p >> (_G + 1))
        yield _lift(echelon, p, isqrt(p))


def kernel_basis(den: int, ech: dict, labels) -> dict:
    """A kernel basis of an echelon over one denominator, (den, ech) as
    integer_rref returns it, pivot entries optional, over labels: one row
    per free label f, den at f and -ech[p][f] at each pivot p."""
    kernel = {f: {f: den} for f in labels if f not in ech}
    for p, row in ech.items():
        for f, v in row.items():
            if f != p:
                kernel[f][p] = -v
    return kernel


def _certify(rows: list[dict[int, int]], den: int,
             num: dict[int, dict[int, int]]) -> bool:
    """The rows R_c = e_c + sum_f num[c][f]/den e_f are in reduced echelon
    form for the column order 0, 1, 2, ..., and every raw row is orthogonal
    to the kernel vector den e_f - sum_c num[c][f] e_c of each free column
    f, den e_f for a raw column f no row of R holds."""
    if any(f in num or f < c for c, row in num.items() for f in row):
        return False
    kernel = kernel_basis(den, num, set().union(*rows, *num.values()))
    # one sum of products per vector of the longer side, the shorter one
    # packed in signed slots (module docstring, step 4)
    xs, ys = rows, list(kernel.values())
    if len(ys) > len(xs):
        xs, ys = ys, xs
    big = max((abs(v) for y in ys for v in y.values()), default=0)
    norm = max((sum(map(abs, x.values())) for x in xs), default=0)
    width = big.bit_length() + norm.bit_length() + 2
    packed: dict[int, int] = {}
    for j, y in enumerate(ys):
        for k, v in y.items():
            packed[k] = packed.get(k, 0) + (v << j * width)
    get = packed.get
    return not any(sum(v * get(k, 0) for k, v in x.items()) for x in xs)


def integer_rref(rows: Iterable[Mapping[Hashable, object]],
                 col_order: Sequence[Hashable]
                 ) -> tuple[int, dict[Hashable, dict[Hashable, int]]]:
    """`rref` as (D, rows) over one common denominator D > 0: rational rows
    in, each row out D times the row `rref` returns, its pivot entry D
    first, all entries integers.  `rref` divides by D once."""
    pos = {c: i for i, c in enumerate(col_order)}
    if len(pos) != len(col_order):
        raise ValueError("column order lists a label twice")
    try:
        keyed = ({pos[c]: v for c, v in row.items()} for row in rows)
        int_rows = [r for r in map(_to_int_row, keyed) if r]
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not in the column "
                         "order") from None

    lifted = next((lift for lift in _lifts(int_rows, len(pos))
                   if lift is not None and _certify(int_rows, *lift)), None)
    if lifted is None:
        raise ArithmeticError("no lift certified with the known primes")

    den, num = lifted
    out: dict[Hashable, dict[Hashable, int]] = {}
    for c, tail in num.items():
        row = out[col_order[c]] = {col_order[c]: den}
        row.update((col_order[k], v) for k, v in tail.items())
    return den, out


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
    den, ech = integer_rref(rows, col_order)
    return {c: {k: Fraction(v, den) for k, v in row.items()}
            for c, row in ech.items()}


def rank(m: SparseMatrix) -> int:
    """Rank of m: the pivot count of its RREF in reversed label order."""
    return len(integer_rref(m.rows, m.column_labels[::-1])[1])
