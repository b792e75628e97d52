"""High-precision evaluation of the nested zeta series.

The sum is processed level by level from the innermost index outward.  Each
level keeps two synchronized views of its partial-sum function W(m):

  * exact values W(0..CAL) from direct recursion at working precision, and
  * an asymptotic tail model, a log-polynomial expansion in 1/n obtained by
    pushing the previous level's model through the summation with
    Euler-Maclaurin corrections; the integration constant is calibrated
    against the exact value at CAL.

The constant term of the outermost model is the value of the sum.  Levels
with index 1 diverge logarithmically; their models simply carry log powers,
which the next level damps again (the leading index is at least 2).

All of this runs in fixed point.  Every partial sum W(m) and every
coefficient c of an expansion {(a, p): c}, the term c n^-a log(n)^p, is a
Python int X standing for X * 2^-B, with B the working precision mp.prec plus
GUARD_BITS plus the bits that parts equal to 1 cancel (below).  A product of
two such numbers is (x * y) >> B, and division by a small integer rounds to
the nearest.  The shift E(n-1) is Taylor's series sum_k (-1)^k E^(k)(n)/k!
over the exact derivative, summed over the common denominator K! and
rounded once per coefficient.  The integer multipliers of the derivatives
and the Euler-Maclaurin weights B_2r/(2r)! (from mp.bernfrac) enter as
exact integers or fractions, with one rounding per product.
log(CAL) comes once from mp.log; the value and the bound turn into mpf only
at the end.

Each operation adds at most one unit of 2^-B to a number.  A coefficient
of n^-a log(n)^p reaches the value only through evaluation at some
n >= CAL - 1 >= 119 (the shift re-expands E(n-1), which is E at n - 1),
where n^-a <= 1.  What that evaluation loses is cancellation.  Each part
equal to 1 raises the top log power by one, and the antiderivative of
n^-a log(n)^p has the coefficients p!/pp! / (a-1)^(p-pp+1), pp <= p, far
larger than the value they sum to at CAL.  With k parts equal to 1 about
log2(k!) bits cancel (mpf at the working precision would lose them too).
That outgrows the 8 digits that the precision floor 10^(8-dps) * (1 + |value|)
of the bound charges from k = 18 at tol 1e-20, and at k = 40
ζ(2,{1}^40) = ζ(42) would come out as -0.56.  So B carries the bit length of
k! on top of GUARD_BITS, and the rounding error stays below that floor.

The reported abs_error_bound is computed from the pieces the model threw
away: the magnitude of the last kept expansion order at the calibration
point, the first omitted Euler-Maclaurin correction, and a precision floor,
all under a safety factor.  It is a bound estimate, not a certificate, but
the safety margins are generous and the honesty tests hold it against
references far more accurate than the targets.
"""

from __future__ import annotations

from math import ceil, factorial
from typing import NamedTuple

from mpmath import mp

from .words import Composition, is_admissible

__all__ = ["NumericValue", "mzv_numeric", "numeric_check", "identity_values",
           "IdentityValues", "check_tolerance"]


class NumericValue(NamedTuple):
    comp: Composition
    value: object          # mpf
    abs_error_bound: object


# expansion: {(inverse_power, log_power): fixed-point int coefficient}, with
# no zero coefficients

GUARD_BITS = 16


def _rdiv(x: int, d: int) -> int:
    """x / d rounded to the nearest integer."""
    if d < 0:
        x, d = -x, -d
    return (2 * x + d) // (2 * d)


def _add(E: dict, key: tuple, c: int) -> None:
    if s := E.get(key, 0) + c:
        E[key] = s
    else:
        E.pop(key, None)


def _add_scaled(E: dict, other: dict, num: int, den: int) -> None:
    """E += other * num / den."""
    for key, c in other.items():
        _add(E, key, _rdiv(c * num, den))


def _shift(E: dict, amax: int) -> dict:
    """Re-expand E(n-1) around n, truncated at n^-amax: Taylor's series
    sum_k (-1)^k E^(k)(n) / k!, with k <= amax - min a, since each
    derivative raises every inverse power by one."""
    K = max(0, amax - min((a for a, _ in E), default=amax))
    scale = factorial(K)
    t = {key: scale * c for key, c in E.items() if key[0] <= amax}
    total = dict(t)
    for k in range(1, K + 1):
        # t = (-1)^k K!/k! E^(k) stays exact, as K!/(k-1)! = k K!/k!
        t = {key: c // -k for key, c in _deriv(t).items() if key[0] <= amax}
        for key, c in t.items():
            total[key] = total.get(key, 0) + c
    return {key: x for key, c in total.items() if (x := _rdiv(c, scale))}


def _antideriv(E: dict) -> dict:
    out: dict = {}
    for (a, p), c in E.items():
        if a == 0:
            raise ArithmeticError("non-decaying term cannot be integrated")
        if a == 1:
            _add(out, (0, p + 1), _rdiv(c, p + 1))
        else:
            # n^(1-a) log^pp term: c (-1)^(p-pp) p!/pp! / (1-a)^(p-pp+1)
            num, den = c, 1 - a
            for pp in range(p, -1, -1):
                _add(out, (a - 1, pp), _rdiv(num, den))
                num *= -pp
                den *= 1 - a
    return out


def _deriv(E: dict) -> dict:
    out: dict = {}
    for (a, p), c in E.items():
        if a:
            _add(out, (a + 1, p), -a * c)
        if p:
            _add(out, (a + 1, p - 1), p * c)
    return out


def _deriv2(E: dict) -> dict:
    """_deriv(_deriv(E)) in one pass: c n^-a log^p gives n^-(a+2) times
    a(a+1) c log^p - p(2a+1) c log^(p-1) + p(p-1) c log^(p-2)."""
    out: dict = {}
    for (a, p), c in E.items():
        if a:
            _add(out, (a + 2, p), a * (a + 1) * c)
        if p:
            _add(out, (a + 2, p - 1), -p * (2 * a + 1) * c)
        if p > 1:
            _add(out, (a + 2, p - 2), p * (p - 1) * c)
    return out


def _eval(E: dict, cal: int, logs: list, B: int) -> int:
    """E at n = cal, given logs[p] = log(cal)^p in fixed point."""
    if not E:
        return 0
    top = max(a for a, _ in E)
    total = sum(c * logs[p] * cal ** (top - a) for (a, p), c in E.items())
    return _rdiv(total, cal ** top << B)


def _compute(comp: Composition, dps: int, cal: int, em_order: int,
             amax: int):
    with mp.workdps(dps):
        B = mp.prec + GUARD_BITS + factorial(comp.count(1)).bit_length()
        with mp.workprec(B + GUARD_BITS):
            log_cal = int(mp.nint(mp.ldexp(mp.log(cal), B)))
        logs = [1 << B]
        for _ in comp:
            logs.append(logs[-1] * log_cal >> B)
        # B_2r / (2r)! for r = 1 .. em_order + 1, as (numerator, denominator)
        em = []
        for r in range(1, em_order + 2):
            num, den = mp.bernfrac(2 * r)
            em.append((int(num), int(den) * factorial(2 * r)))
        w_next = [1 << B] * (cal + 1)
        e_next: dict = {(0, 0): 1 << B}
        slack = 0
        for s in reversed(comp):
            # for m >= 2, m^e > 2 w_next[m-1] already rounds the term to 0,
            # so a larger exponent changes nothing
            e = min(s, (2 * max(w_next)).bit_length())
            w = [0] * (cal + 1)
            for m in range(1, cal + 1):
                w[m] = w[m - 1] + _rdiv(w_next[m - 1], m ** e)
            # times n^-s, only orders up to amax - s of the shift survive
            g = {(a + s, p): c
                 for (a, p), c in _shift(e_next, amax - s).items()}
            phi = _antideriv(g)
            _add_scaled(phi, g, 1, 2)
            d = _deriv(g)
            for num, den in em[:em_order]:
                _add_scaled(phi, d, num, den)
                d = _deriv2(d)
            # first omitted correction, taken at the calibration point term
            # by term in magnitude: |c log(cal)^p| = |c| logs[p], as cal > 1
            num, den = em[em_order]
            slack += _rdiv(abs(num) * _eval({k: abs(c) for k, c in d.items()},
                                            cal, logs, B), den)
            const = w[cal] - _eval(phi, cal, logs, B)
            _add(phi, (0, 0), const)
            # magnitude of the last kept expansion order
            tail_band = {k: abs(c) for k, c in phi.items() if k[0] == amax}
            slack += _eval(tail_band, cal, logs, B)
            w_next, e_next = w, phi
        value = mp.ldexp(e_next.get((0, 0), 0), -B)
        bound = 8 * mp.ldexp(slack, -B) + \
            mp.mpf(10) ** (8 - dps) * (1 + abs(value))
        return value, bound


def _params(target_digits: int):
    p = max(8, target_digits)
    dps = max(40, p + 18)
    cal = 120 + 10 * max(0, p - 10)
    em_order = max(4, ceil((p + 6) / 3))
    amax = max(18, 2 * em_order + 6)
    return dps, cal, em_order, amax


_value_cache: dict[Composition, NumericValue] = {}

# the most digits mzv_numeric works to (z(2,1): 14-16 s at 1000, 2-core Xeon)
MAX_DIGITS = 1000


def check_tolerance(tol):
    """tol, a number or its decimal text, as an mpf (text is read at the
    working precision, so it may lie below the float range); ValueError
    unless it is finite and positive."""
    tol = mp.mpf(tol)
    if not (mp.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return tol


def _digits(target) -> int:
    """ceil(-log10(target)), at least 1.  Rounded to the 53 bits of a float
    first, so a float target gets the digits float arithmetic gives it, but
    in mpf, whose exponent does not underflow below 1e-308."""
    with mp.workprec(53):
        target = +target
        return int(mp.ceil(-mp.log10(target))) if target < 1 else 1


def mzv_numeric(comp, target_abs_err=1e-10) -> NumericValue:
    """Value of the nested sum with abs_error_bound <= target_abs_err."""
    if not is_admissible(comp):
        raise ValueError(f"index is not admissible: {comp!r}")
    target = check_tolerance(target_abs_err)
    hit = _value_cache.get(comp)
    if hit is not None and hit.abs_error_bound <= target:
        return hit
    digits = _digits(target)
    # a finer target is out of reach, as is one that four attempts miss
    for attempt in range(4 if digits <= MAX_DIGITS else 0):
        value, bound = _compute(comp, *_params(digits + 6 * attempt))
        if bound <= target:
            _value_cache[comp] = out = NumericValue(comp, value, bound)
            return out
    # an mpf target prints as at the default precision, whatever the
    # working precision of the caller; a text target prints as typed
    if isinstance(target_abs_err, mp.mpf):
        target_abs_err = mp.nstr(target_abs_err, 15)
    raise ArithmeticError(
        f"could not reach target {target_abs_err} for {comp}")


class IdentityValues(NamedTuple):
    lhs: object
    rhs: object
    diff: object
    err: object            # bound on the error of diff from the factor bounds
    tol: object

    @property
    def ok(self) -> bool:
        """The true difference, at most diff + err, is within tol."""
        return self.diff + self.err <= self.tol


def identity_values(ident, tol=1e-6) -> IdentityValues:
    """Evaluate both sides, spending at most half the tolerance on the
    error of the factors.  The products and sums run with enough digits to
    resolve tol."""
    tol = check_tolerance(tol)
    budget = 0
    for side in (ident.lhs, ident.rhs):
        for mono, c in side.items():
            nf = len(mono)
            if nf:
                # all admissible values lie below 2, so a factor-of-2 chain
                # bounds the product sensitivity to per-factor error
                budget += abs(c) * nf * 2 ** (nf - 1)
    # rounded like float(budget), but in mpf, which does not overflow
    tau = (tol / 2) / max(mp.fdiv(budget.numerator, budget.denominator,
                                  prec=53), 1)
    sides = []
    with mp.workdps(max(15, int(mp.ceil(-mp.log10(tol))) + 10)):
        err = mp.mpf(0)
        for side in (ident.lhs, ident.rhs):
            total = mp.mpf(0)
            for mono, c in side.items():
                prod = high = mp.mpf(1)
                for f in mono:
                    nv = mzv_numeric(f, tau)
                    prod *= nv.value
                    high *= abs(nv.value) + nv.abs_error_bound
                coef = mp.mpf(c.numerator) / c.denominator
                total += coef * prod
                # |product of perturbed factors - product| <= high - |prod|
                err += abs(coef) * (high - abs(prod))
            sides.append(total)
        return IdentityValues(sides[0], sides[1], abs(sides[0] - sides[1]),
                              err, tol)


def numeric_check(ident, tol=1e-6) -> bool:
    """True iff the two sides agree within tol numerically."""
    return identity_values(ident, tol).ok
