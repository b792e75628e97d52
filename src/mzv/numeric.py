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

The reported abs_error_bound is computed from the pieces the model threw
away: the magnitude of the last kept expansion order at the calibration
point, the first omitted Euler-Maclaurin correction, and a precision floor,
all under a safety factor.  It is a bound estimate, not a certificate, but
the safety margins are generous and the honesty tests hold it against
references far more accurate than the targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, log10

from mpmath import mp

from .words import Composition, is_admissible, validate_comp

__all__ = ["NumericValue", "mzv_numeric", "numeric_check", "identity_values",
           "IdentityValues", "check_tolerance"]


@dataclass(frozen=True)
class NumericValue:
    comp: Composition
    value: object          # mpf
    abs_error_bound: object


# expansion: {inverse_power: {log_power: mpf coefficient}}

def _term_add(E: dict, a: int, p: int, c) -> None:
    d = E.setdefault(a, {})
    s = d.get(p, 0) + c
    if s:
        d[p] = s
    elif p in d:
        del d[p]
    if not d:
        del E[a]


def _scale(E: dict, f) -> dict:
    return {a: {p: c * f for p, c in d.items()} for a, d in E.items()}


def _add_into(E: dict, other: dict) -> None:
    for a, d in other.items():
        for p, c in d.items():
            _term_add(E, a, p, c)


_spow_cache: dict = {}


def _s_powers(amax: int, qmax: int) -> list[dict]:
    """Powers of log(1 - 1/n) as plain series in 1/n, truncated at n^-amax."""
    key = (amax, qmax, mp.prec)
    hit = _spow_cache.get(key)
    if hit is not None:
        return hit
    s = {c: mp.mpf(-1) / c for c in range(1, amax + 1)}
    powers = [{0: mp.mpf(1)}, s]
    while len(powers) <= qmax:
        prev = powers[-1]
        nxt: dict = {}
        for c1, v1 in prev.items():
            for c2, v2 in s.items():
                c = c1 + c2
                if c <= amax:
                    nxt[c] = nxt.get(c, 0) + v1 * v2
        powers.append(nxt)
    _spow_cache[key] = powers
    return powers


def _shift(E: dict, amax: int) -> dict:
    """Re-expand E(n-1) around n."""
    if not E:
        return {}
    qmax = max(max(d) for d in E.values())
    spow = _s_powers(amax, qmax)
    out: dict = {}
    for a, d in E.items():
        # (1 - 1/n)^(-a) coefficients
        if a:
            binom = {b: mp.mpf(comb(a + b - 1, b))
                     for b in range(amax - a + 1)}
        else:
            binom = {0: mp.mpf(1)}
        for p, coeff in d.items():
            for q in range(p + 1):
                cpq = comb(p, q)
                for cdeg, sc in spow[q].items():
                    base = coeff * cpq * sc
                    for b, bc in binom.items():
                        a2 = a + cdeg + b
                        if a2 <= amax:
                            _term_add(out, a2, p - q, base * bc)
    return out


def _mul_npow(E: dict, s: int, amax: int) -> dict:
    return {a + s: dict(d) for a, d in E.items() if a + s <= amax}


def _antideriv(E: dict) -> dict:
    out: dict = {}
    for a, d in E.items():
        if a == 0:
            raise ArithmeticError("non-decaying term cannot be integrated")
        for p, c in d.items():
            if a == 1:
                _term_add(out, 0, p + 1, c / (p + 1))
            else:
                cur = c
                for pp in range(p, -1, -1):
                    _term_add(out, a - 1, pp, cur / (1 - a))
                    if pp:
                        cur = cur * (-pp) / (1 - a)
    return out


def _deriv(E: dict) -> dict:
    out: dict = {}
    for a, d in E.items():
        for p, c in d.items():
            if a:
                _term_add(out, a + 1, p, -a * c)
            if p:
                _term_add(out, a + 1, p - 1, p * c)
    return out


def _eval(E: dict, x, absolute: bool = False):
    lx = mp.log(x)
    total = mp.mpf(0)
    for a, d in E.items():
        xa = x ** (-a)
        for p, c in d.items():
            t = c * xa * lx ** p
            total += abs(t) if absolute else t
    return total


def _compute(comp: Composition, dps: int, cal: int, em_order: int,
             amax: int):
    with mp.workdps(dps):
        w_next = [mp.mpf(1)] * (cal + 1)
        e_next: dict = {0: {0: mp.mpf(1)}}
        slack = mp.mpf(0)
        for s in reversed(comp):
            w = [mp.mpf(0)] * (cal + 1)
            for m in range(1, cal + 1):
                w[m] = w[m - 1] + mp.mpf(m) ** (-s) * w_next[m - 1]
            g = _mul_npow(_shift(e_next, amax), s, amax)
            phi = _antideriv(g)
            _add_into(phi, _scale(g, mp.mpf(1) / 2))
            d = _deriv(g)
            for r in range(1, em_order + 1):
                _add_into(phi, _scale(d, mp.bernoulli(2 * r) /
                                      mp.factorial(2 * r)))
                d = _deriv(_deriv(d))
            # first omitted correction, taken at the calibration point
            slack += abs(mp.bernoulli(2 * em_order + 2) /
                         mp.factorial(2 * em_order + 2)) * \
                _eval(d, mp.mpf(cal), absolute=True)
            const = w[cal] - _eval(phi, mp.mpf(cal))
            _term_add(phi, 0, 0, const)
            # magnitude of the last kept expansion order
            tail_band = {amax: phi[amax]} if amax in phi else {}
            slack += _eval(tail_band, mp.mpf(cal), absolute=True)
            w_next, e_next = w, phi
        value = e_next.get(0, {}).get(0, mp.mpf(0))
        bound = 8 * slack + mp.mpf(10) ** (8 - dps) * (1 + abs(value))
        return value, bound


def _params(target_digits: int):
    p = max(8, target_digits)
    dps = max(40, p + 18)
    cal = 120 + 10 * max(0, p - 10)
    em_order = max(4, ceil((p + 6) / 3))
    amax = max(18, 2 * em_order + 6)
    return dps, cal, em_order, amax


_value_cache: dict[Composition, NumericValue] = {}


def check_tolerance(tol):
    """tol as an mpf; ValueError unless it is finite and positive."""
    tol = mp.mpf(tol)
    if not (mp.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return tol


def mzv_numeric(comp, target_abs_err=1e-10) -> NumericValue:
    """Value of the nested sum with abs_error_bound <= target_abs_err."""
    comp = validate_comp(comp)
    if not is_admissible(comp):
        raise ValueError(f"index is not admissible: {comp!r}")
    target = check_tolerance(target_abs_err)
    hit = _value_cache.get(comp)
    if hit is not None and hit.abs_error_bound <= target:
        return hit
    digits = int(ceil(-log10(float(target)))) if float(target) < 1 else 1
    for attempt in range(4):
        value, bound = _compute(comp, *_params(digits + 6 * attempt))
        if bound <= target:
            out = NumericValue(comp, value, bound)
            if hit is None or bound < hit.abs_error_bound:
                _value_cache[comp] = out
            return out
    raise ArithmeticError(
        f"could not reach target {target_abs_err} for {comp}")


@dataclass(frozen=True)
class IdentityValues:
    lhs: object
    rhs: object
    diff: object
    tol: object

    @property
    def ok(self) -> bool:
        return self.diff <= self.tol


def identity_values(ident, tol=1e-6) -> IdentityValues:
    """Evaluate both sides, spending half the tolerance per side.  The
    products and sums run with enough digits to resolve tol."""
    tol = check_tolerance(tol)
    budget = 0
    for side in (ident.lhs, ident.rhs):
        for mono, c in side.items():
            nf = len(mono)
            if nf:
                # all admissible values lie below 2, so a factor-of-2 chain
                # bounds the product sensitivity to per-factor error
                budget += abs(c) * nf * 2 ** (nf - 1)
    tau = (tol / 2) / max(float(budget), 1.0)
    sides = []
    with mp.workdps(max(15, int(mp.ceil(-mp.log10(tol))) + 10)):
        for side in (ident.lhs, ident.rhs):
            total = mp.mpf(0)
            for mono, c in side.items():
                prod = mp.mpf(1)
                for f in mono:
                    prod *= mzv_numeric(f, tau).value
                total += mp.mpf(c.numerator) / c.denominator * prod
            sides.append(total)
        return IdentityValues(sides[0], sides[1], abs(sides[0] - sides[1]),
                              tol)


def numeric_check(ident, tol=1e-6) -> bool:
    """True iff the two sides agree within tol numerically."""
    return identity_values(ident, tol).ok
