"""Counting checks: dimension table, generator counts, and the index series.

Everything here is exact integer or rational arithmetic.  The dimension
recurrence and the necklace-style generator counts come with their own
cross-checks (ranks read from the rewrite tables, explicit Lyndon
enumeration over the {2,3} alphabet, and a generating-function bridge tying
the two tables together).  The bigraded counts come from a bivariate series
truncated at the weight cap, held as a LinComb keyed by (x-degree,
y-degree).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd
from typing import NamedTuple

from .engine import echelonize_degree
from .words import LinComb

__all__ = [
    "zagier_dims",
    "DimsRow",
    "verify_zagier",
    "bernoulli",
    "euler_even_zeta",
    "mobius",
    "n23_counts",
    "two_three_lyndon",
    "BkTable",
    "bk_counts",
    "bk_reconstruct",
    "dim_bridge",
]


def _recurrence(seed: list[int], max_n: int) -> list[int]:
    """x[0..max_n]: the four seed values, then x_n = x_{n-2} + x_{n-3}."""
    x = list(seed)
    for n in range(4, max_n + 1):
        x.append(x[n - 2] + x[n - 3])
    return x[:max_n + 1]


def zagier_dims(max_n: int) -> list[int]:
    """d[n] for 0 <= n <= max_n; d_0 = 1 (empty product), d_1 = 0,
    d_2 = d_3 = 1, then d_n = d_{n-2} + d_{n-3}."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return _recurrence([1, 0, 1, 1], max_n)


class DimsRow(NamedTuple):
    degree: int
    words: int
    rank: int
    dim: int
    zagier: int

    @property
    def match(self) -> bool:
        return self.dim == self.zagier


def verify_zagier(max_n: int, cache=None) -> list[DimsRow]:
    """Compare span dimensions against the recurrence; each weight's rank
    and dimension are its rewrite table's rule and basis counts."""
    d = zagier_dims(max_n)
    out = []
    for n in range(3, max_n + 1):
        table = echelonize_degree(n, cache)
        r, dim = len(table.rules), len(table.basis_words)
        out.append(DimsRow(n, r + dim, r, dim, d[n]))
    return out


_bernoulli: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Second Bernoulli convention, B_1 = -1/2, via the defining recurrence
    sum_{j<=m} C(m+1,j) B_j = [m = 0]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_bernoulli) <= n:
        m = len(_bernoulli)
        acc = sum(comb(m + 1, j) * _bernoulli[j] for j in range(m))
        _bernoulli.append(Fraction(-acc, m + 1))
    return _bernoulli[n]


def euler_even_zeta(s: int) -> Fraction:
    """zeta(s)/pi^s for even s, resolved exactly: -(2i)^s B_s / (2 s!)."""
    if s < 2 or s % 2:
        raise ValueError("s must be even and at least 2")
    i_pow = -1 if (s // 2) % 2 else 1
    return Fraction(-(2 ** s) * i_pow, 2 * factorial(s)) * bernoulli(s)


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def n23_counts(max_p: int) -> list[int]:
    """N[p] for 1 <= p <= max_p (index 0 unused): Moebius inversion of the
    {2,3}-necklace weight count."""
    if max_p < 1:
        raise ValueError("max_p must be positive")
    # P_1 = 0, P_2 = 2, P_3 = 3, then P_l = P_{l-2} + P_{l-3}
    P = _recurrence([0, 0, 2, 3], max_p)
    out = [0]
    for p in range(1, max_p + 1):
        acc = sum(mobius(p // l) * P[l] for l in range(1, p + 1) if p % l == 0)
        if acc % p:
            raise ArithmeticError(f"necklace count for weight {p} not integral")
        out.append(acc // p)
    return out


def two_three_lyndon(max_weight: int) -> dict[int, list[tuple[int, ...]]]:
    """Lyndon words over the ordered alphabet 2 < 3, grouped by letter sum:
    Duval's generation, never extending a word whose letter sum passes
    max_weight (every word with that prefix is heavier)."""
    buckets: dict[int, list[tuple[int, ...]]] = {
        w: [] for w in range(2, max_weight + 1)}
    w, weight = [2], 2
    while w:
        if weight <= max_weight:
            buckets[weight].append(tuple(w))
            m = len(w)
            while weight <= max_weight:
                w.append(w[-m])
                weight += w[-1]
        while w and w[-1] == 3:
            weight -= w.pop()
        if w:
            w[-1] = 3
            weight += 1
    for lst in buckets.values():
        lst.sort(key=lambda c: (len(c), c))
    return buckets


# ---------------------------------------------------------------------------
# bigraded counts from the conjectural generating series

_ONE = LinComb.term((0, 0))


def _series_mul(a: LinComb, b: LinComb, cap: int) -> LinComb:
    # product of series keyed by (x-degree, y-degree), truncated above
    # x^cap and y^cap
    def mul(k1, k2):
        i, j = k1[0] + k2[0], k1[1] + k2[1]
        return {(i, j): 1} if i <= cap and j <= cap else {}
    return a.product(b, mul)


def _product(powers: dict[tuple[int, int], int], cap: int) -> LinComb:
    # prod (1 - x^n y^k)^e over {(n, k): e}, truncated above x^cap and y^cap;
    # (x^n y^k)^j has coefficient (-1)^j C(e, j), or C(j - e - 1, j) if e < 0
    prod = _ONE
    for (n, k), e in powers.items():
        factor = LinComb({(n * j, k * j): comb(j - e - 1, j) if e < 0
                          else (-1) ** j * comb(e, j)
                          for j in range(cap // max(n, k) + 1)})
        prod = _series_mul(prod, factor, cap)
    return prod


def _neg_log1p(u: LinComb, cap: int) -> LinComb:
    # -log(1 + u) for u with positive minimal x-degree
    md = min((i for i, _ in u), default=cap + 1)
    if md < 1:
        raise ValueError("series has a constant term")
    acc = LinComb.zero()
    power = _ONE
    sign = -1
    for j in range(1, cap // md + 1):
        power = _series_mul(power, u, cap)
        acc = acc + Fraction(sign, j) * power
        sign = -sign
    return acc


class BkTable(NamedTuple):
    max_weight: int
    values: dict[tuple[int, int], int]
    violations: tuple[tuple[int, int, Fraction], ...]


def _bk_series(cap: int) -> LinComb:
    # 1 - x^3 y / (1 - x^2) + x^12 y^2 (1 - y^2) / ((1 - x^4) (1 - x^6))
    term1 = _series_mul(LinComb.term((3, 1)), _product({(2, 0): -1}, cap), cap)
    term2 = _series_mul(LinComb.term((12, 2)), _product(
        {(0, 2): 1, (4, 0): -1, (6, 0): -1}, cap), cap)
    return _ONE - term1 + term2


def bk_counts(max_weight: int) -> BkTable:
    """Bigraded generator counts D_{n,k}, Moebius-inverted from the series'
    log; integrality violations are reported, never rounded away."""
    if max_weight < 3:
        raise ValueError("max_weight must be at least 3")
    c = _neg_log1p(_bk_series(max_weight) - _ONE, max_weight)

    values: dict[tuple[int, int], int] = {}
    violations = []
    for n in range(1, max_weight + 1):
        for k in range(1, max_weight + 1):
            # c_{n,k} = sum_{j | gcd} D_{n/j,k/j} / j, inverted
            g = gcd(n, k)
            d = sum(Fraction(mobius(j), j) * c[(n // j, k // j)]
                    for j in range(1, g + 1) if g % j == 0)
            if d.denominator != 1 or d < 0:
                violations.append((n, k, d))
            if d.denominator == 1 and d:
                values[(n, k)] = int(d)
    return BkTable(max_weight, values, tuple(violations))


def bk_reconstruct(table: BkTable) -> bool:
    """Re-exponentiation: prod (1 - x^n y^k)^D_{n,k} must reproduce the
    series the counts were extracted from, within the truncation caps."""
    cap = table.max_weight
    return (all(d >= 0 for d in table.values.values())
            and _product(table.values, cap) == _bk_series(cap))


def dim_bridge(max_n: int) -> tuple[list[int], list[int]]:
    """Coefficients of prod_p (1 - t^p)^(-N(p)) next to the dimension table;
    the two agree termwise when the counts are consistent."""
    N = n23_counts(max_n)
    prod = _product({(p, 0): -N[p] for p in range(1, max_n + 1)}, max_n)
    return [prod[(n, 0)] for n in range(max_n + 1)], zagier_dims(max_n)
