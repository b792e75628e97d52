"""Counting checks: dimension table, generator counts, and the index series.

Everything here is exact integer or rational arithmetic.  The dimension
recurrence and the necklace-style generator counts come with their own
cross-checks (ranks read from the rewrite tables, explicit Lyndon
enumeration over the {2,3} alphabet, and a generating-function bridge tying
the two tables together).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .engine import echelonize_degree
from .lyndon import lyndon_words

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


def zagier_dims(max_n: int) -> list[int]:
    """d[n] for 0 <= n <= max_n; d_0 = 1 (empty product), d_1 = 0,
    d_2 = d_3 = 1, then d_n = d_{n-2} + d_{n-3}."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    d = [1, 0, 1, 1]
    for n in range(4, max_n + 1):
        d.append(d[n - 2] + d[n - 3])
    return d[:max_n + 1]


@dataclass(frozen=True)
class DimsRow:
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


def _padovan_like(max_l: int) -> list[int]:
    # P_1 = 0, P_2 = 2, P_3 = 3, then P_l = P_{l-2} + P_{l-3}
    P = [0, 0, 2, 3]
    for l in range(4, max_l + 1):
        P.append(P[l - 2] + P[l - 3])
    return P[:max_l + 1]


def n23_counts(max_p: int) -> list[int]:
    """N[p] for 1 <= p <= max_p (index 0 unused): Moebius inversion of the
    {2,3}-necklace weight count."""
    if max_p < 1:
        raise ValueError("max_p must be positive")
    P = _padovan_like(max_p)
    out = [0]
    for p in range(1, max_p + 1):
        acc = sum(mobius(p // l) * P[l] for l in range(1, p + 1) if p % l == 0)
        if acc % p:
            raise ArithmeticError(f"necklace count for weight {p} not integral")
        out.append(acc // p)
    return out


def two_three_lyndon(max_weight: int) -> dict[int, list[tuple[int, ...]]]:
    """Lyndon words over the ordered alphabet 2 < 3, grouped by letter sum."""
    buckets: dict[int, list[tuple[int, ...]]] = {
        w: [] for w in range(2, max_weight + 1)}
    for length in range(1, max_weight // 2 + 1):
        for w in lyndon_words(length, "23"):
            comp = tuple(int(ch) for ch in w)
            weight = sum(comp)
            if weight <= max_weight:
                buckets[weight].append(comp)
    for lst in buckets.values():
        lst.sort(key=lambda c: (len(c), c))
    return buckets


# ---------------------------------------------------------------------------
# bigraded counts from the conjectural generating series

class _Series2:
    """Bivariate polynomial truncated at x^nx, y^ny; exact coefficients."""

    __slots__ = ("nx", "ny", "c")

    def __init__(self, nx: int, ny: int, c=None):
        self.nx = nx
        self.ny = ny
        self.c = dict(c or {})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return _Series2(self.nx, self.ny, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, f):
        return _Series2(self.nx, self.ny,
                        {k: f * v for k, v in self.c.items()})

    def __mul__(self, other):
        out: dict = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                i, j = i1 + i2, j1 + j2
                if i > self.nx or j > self.ny:
                    continue
                k = (i, j)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return _Series2(self.nx, self.ny, out)

    def min_xdeg(self) -> int:
        return min((i for i, _ in self.c), default=self.nx + 1)


def _geometric_x(step: int, nx: int, ny: int) -> _Series2:
    # 1 / (1 - x^step)
    return _Series2(nx, ny, {(i, 0): 1 for i in range(0, nx + 1, step)})


def _neg_log1p(u: _Series2) -> _Series2:
    # -log(1 + u) for u with positive minimal x-degree
    md = u.min_xdeg()
    if md < 1:
        raise ValueError("series has a constant term")
    acc = _Series2(u.nx, u.ny)
    power = _Series2(u.nx, u.ny, {(0, 0): 1})
    sign = -1
    for j in range(1, u.nx // md + 1):
        power = power * u
        acc = acc + power.scale(Fraction(sign, j))
        sign = -sign
    return acc


@dataclass(frozen=True)
class BkTable:
    max_weight: int
    values: dict[tuple[int, int], int]
    violations: tuple[tuple[int, int, Fraction], ...]

    def value(self, n: int, k: int) -> int:
        return self.values.get((n, k), 0)


def _bk_series(max_weight: int) -> _Series2:
    nx, ny = max_weight, max_weight
    one = _Series2(nx, ny, {(0, 0): 1})
    x3y = _Series2(nx, ny, {(3, 1): 1} if nx >= 3 else {})
    term1 = x3y * _geometric_x(2, nx, ny)
    y2 = _Series2(nx, ny, {(0, 2): 1} if ny >= 2 else {})
    x12y2 = _Series2(nx, ny, {(12, 2): 1} if nx >= 12 and ny >= 2 else {})
    term2 = x12y2 * (one - y2) * _geometric_x(4, nx, ny) \
        * _geometric_x(6, nx, ny)
    return one - term1 + term2


def bk_counts(max_weight: int) -> BkTable:
    """Bigraded generator counts D_{n,k} extracted from the conjectural
    series; integrality violations are reported, never rounded away."""
    if max_weight < 3:
        raise ValueError("max_weight must be at least 3")
    L = _bk_series(max_weight)
    nx, ny = L.nx, L.ny
    one = _Series2(nx, ny, {(0, 0): 1})
    c = _neg_log1p(L - one)

    values: dict[tuple[int, int], int] = {}
    exact: dict[tuple[int, int], Fraction] = {}
    violations = []
    for n in range(1, max_weight + 1):
        for k in range(1, ny + 1):
            d = Fraction(c.c.get((n, k), 0))
            g = gcd(n, k)
            for j in range(2, g + 1):
                if g % j == 0:
                    d -= Fraction(exact.get((n // j, k // j), 0), j)
            exact[(n, k)] = d
            if d.denominator != 1 or d < 0:
                violations.append((n, k, d))
            if d.denominator == 1 and d:
                values[(n, k)] = int(d)
    return BkTable(max_weight, values, tuple(violations))


def bk_reconstruct(table: BkTable) -> bool:
    """Re-exponentiation: prod (1 - x^n y^k)^D_{n,k} must reproduce the
    series the counts were extracted from, within the truncation caps."""
    L = _bk_series(table.max_weight)
    prod = _Series2(L.nx, L.ny, {(0, 0): 1})
    for (n, k), d in sorted(table.values.items()):
        if d < 0:
            return False
        factor = _Series2(L.nx, L.ny, {(0, 0): 1, (n, k): -1})
        for _ in range(d):
            prod = prod * factor
    return prod.c == L.c


def dim_bridge(max_n: int) -> tuple[list[int], list[int]]:
    """Coefficients of prod_p (1 - t^p)^(-N(p)) next to the dimension table;
    the two agree termwise when the counts are consistent."""
    N = n23_counts(max_n)
    coeffs = [1] + [0] * max_n
    for p in range(1, max_n + 1):
        if not N[p]:
            continue
        factor = [0] * (max_n + 1)
        for i in range(0, max_n // p + 1):
            factor[p * i] = comb(N[p] + i - 1, i)
        coeffs = [sum(coeffs[a] * factor[n - a] for a in range(n + 1))
                  for n in range(max_n + 1)]
    return coeffs, zagier_dims(max_n)
