"""Seeded command sequences for the mzv benchmark.

Nothing here imports mzv.  The identities are built from the algebra alone
(stuffle products and duality), so whether each one is true is known by
construction; the program under test only ever sees argv strings.

A composition (s1, ..., sk) stands for zeta(s1, ..., sk) with s1 >= 2, the
same convention as the mzv command line.  Session k of a run with seed s
gets the sequence drawn from (s, k), so one run samples many sequences and
its medians depend little on a single draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# weight: (rewrite commands, verify commands).  Fewer commands at the
# costly high weights; the middle weight 8 holds the median command, so
# op_p50_ms does not sit on the jump between two weights' parse times.
LOOKUP_MIX = {5: (5, 4), 6: (5, 4), 7: (5, 4), 8: (5, 4),
              9: (4, 4), 10: (4, 4), 11: (4, 3), 12: (3, 2)}
LOOKUP_FALSE_SHARE = 0.3

# The numeric series cost grows with weight, depth, parts equal to 1 and
# digits; one weight-11 identity at 1e-30 alone took 40 s.  These caps keep
# every oracle command below about half a second.
ORACLE_MAX_WEIGHT = 10
ORACLE_MAX_DEPTH = 4
ORACLE_TOL_EXPONENTS = (6, 9, 12, 15, 18, 21, 24, 27, 30)
ORACLE_STUFFLE_SLOTS = 25
ORACLE_FALSE_SHARE = 1 / 3

# Staged tables go to weight 12, the highest the engine finishes today.  A
# cold build of weight 12 and freeness/dims at 11 take 13-28 s here, one
# sample per run; one weight lower they take about 3 s, so a run takes the
# median of several sessions.
CACHE_DEGREE = 12
BUILD_DEGREE = 11
STRUCTURE_DEGREE = 10


# ---------------------------------------------------------------------------
# algebra on compositions


def comp_to_word(c) -> str:
    return "".join("0" * (s - 1) + "1" for s in c)


def word_to_comp(w: str) -> tuple:
    parts, run = [], 0
    for ch in w:
        if ch == "0":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


def dual(c) -> tuple:
    """Duality: reverse the word and swap 0 <-> 1."""
    w = comp_to_word(c)
    swapped = "".join("1" if ch == "0" else "0" for ch in reversed(w))
    return word_to_comp(swapped)


def stuffle(a, b) -> dict:
    """Harmonic (stuffle) product of two compositions, {comp: multiplicity}."""
    if not a:
        return {tuple(b): 1}
    if not b:
        return {tuple(a): 1}
    out: dict = {}
    for head, rest in (((a[0],), stuffle(a[1:], b)),
                       ((b[0],), stuffle(a, b[1:])),
                       ((a[0] + b[0],), stuffle(a[1:], b[1:]))):
        for c, m in rest.items():
            key = head + c
            out[key] = out.get(key, 0) + m
    return out


def compositions(weight: int, max_depth: int | None = None) -> list[tuple]:
    """Admissible compositions of a weight (first part >= 2), sorted."""
    out = []

    def rec(rem: int, cur: list) -> None:
        if rem == 0:
            out.append(tuple(cur))
            return
        if max_depth is not None and len(cur) == max_depth:
            return
        for s in range(2 if not cur else 1, rem + 1):
            cur.append(s)
            rec(rem - s, cur)
            cur.pop()

    rec(weight, [])
    return sorted(out, key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# identities


@dataclass(frozen=True)
class Identity:
    """sum(coeff * prod zeta(factor)) on each side; monomials are tuples of
    compositions."""
    lhs: tuple
    rhs: tuple
    true: bool

    def text(self) -> str:
        return f"{_side_text(self.lhs)} = {_side_text(self.rhs)}"


def _coeff_text(c: Fraction) -> str:
    if c == 1:
        return ""
    if c.denominator == 1:
        return f"{c.numerator}*"
    return f"{c.numerator}/{c.denominator}*"


def _side_text(side) -> str:
    terms = []
    for coeff, mono in side:
        z = "*".join("z(" + ",".join(map(str, f)) + ")" for f in mono)
        terms.append(_coeff_text(coeff) + z)
    return " + ".join(terms)


def stuffle_identity(a, b) -> Identity:
    """z(a)*z(b) = sum of the stuffle terms."""
    terms = sorted(stuffle(a, b).items(), key=lambda t: (len(t[0]), t[0]))
    rhs = tuple((Fraction(m), (c,)) for c, m in terms)
    return Identity(((Fraction(1), (tuple(a), tuple(b))),), rhs, True)


def duality_identity(c) -> Identity:
    return Identity(((Fraction(1), (tuple(c),)),),
                    ((Fraction(1), (dual(c),)),), True)


def perturb(ident: Identity, factor: Fraction) -> Identity:
    """Scale the first left-hand coefficient: false whenever factor != 1."""
    (coeff, mono), *rest = ident.lhs
    return Identity(((coeff * factor, mono), *rest), ident.rhs,
                    factor == 1 and ident.true)


# ---------------------------------------------------------------------------
# commands


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy.

    kind selects the check in checks.py; the other fields are its inputs."""
    argv: list
    kind: str
    weight: int = 0
    comp: tuple = ()
    tol: float = 0.0
    expect_exit: int = 0


def _ones(c) -> int:
    return sum(1 for s in c if s == 1)


def _pick(rng: random.Random, weight: int, depth: int, ones: int,
          avoid=frozenset()):
    """A random admissible composition of this weight, depth and number of
    parts equal to 1, outside avoid if the shape has others.  Slots fix the
    shape because it sets the cost."""
    pool = [c for c in compositions(weight, depth)
            if len(c) == depth and _ones(c) == ones]
    return rng.choice([c for c in pool if c not in avoid] or pool)


def lookup_commands(seed: int, session: int = 0) -> list[Command]:
    """rewrite and symbolic verify at weights 5..12; about 30% of the
    identities are false.

    A command's cost is mostly parsing the tables of the weights it touches,
    so the counts per weight are fixed (LOOKUP_MIX) and every stuffle
    identity has a fixed split of its weight: z(2) times weight w-2, or
    weight w//2 times the rest.  The seed picks the compositions, the false
    identities and the order."""
    rng = random.Random(f"lookup:{seed}:{session}")
    cmds: list[Command] = []
    verifies: list[tuple[int, Identity]] = []
    for w, (n_rewrite, n_verify) in LOOKUP_MIX.items():
        pool = compositions(w)
        for c in rng.sample(pool, n_rewrite):
            cmds.append(Command(["rewrite", ",".join(map(str, c))],
                                "rewrite", weight=w, comp=c))
        for i in range(n_verify):
            if i % 2 == 0:
                w1 = 2 if i % 4 == 0 else w // 2
                a = rng.choice(compositions(w1, 2))
                b = rng.choice(compositions(w - w1, 4 - len(a)))
                verifies.append((w, stuffle_identity(a, b)))
            else:
                c = rng.choice([c for c in pool if dual(c) != c])
                verifies.append((w, duality_identity(c)))
    n_false = round(LOOKUP_FALSE_SHARE * len(verifies))
    for i in rng.sample(range(len(verifies)), n_false):
        w, ident = verifies[i]
        verifies[i] = (w, perturb(ident, rng.choice(
            (Fraction(2), Fraction(3, 2), Fraction(1, 2), Fraction(-1)))))
    for w, ident in verifies:
        cmds.append(Command(["verify", "--mode", "symbolic", ident.text()],
                            "verify_symbolic", weight=w,
                            expect_exit=0 if ident.true else 1))
    rng.shuffle(cmds)
    return cmds


def _value(refs: dict, mono) -> float:
    out = 1.0
    for f in mono:
        out *= float(refs[",".join(map(str, f))])
    return out


def _numeric_slots() -> list[tuple]:
    """(weight, depth, ones, tol exponent) of each numeric command: every
    depth-1 weight and every deeper shape within the caps, once."""
    shapes = [(w, 1, 0) for w in range(3, ORACLE_MAX_WEIGHT + 1)]
    shapes += [(w, d, k) for w in range(3, ORACLE_MAX_WEIGHT + 1)
               for d in range(2, ORACLE_MAX_DEPTH + 1)
               for k in range(d) if 2 * d - k <= w]
    tols = ORACLE_TOL_EXPONENTS
    return [(*shape, tols[i % len(tols)]) for i, shape in enumerate(shapes)]


def _duality_pairs() -> list[tuple]:
    """One side of each duality pair with both sides within the caps."""
    return [c for w in range(3, ORACLE_MAX_WEIGHT + 1)
            for c in compositions(w, ORACLE_MAX_DEPTH)
            if len(dual(c)) <= ORACLE_MAX_DEPTH and dual(c) < c]


def oracle_commands(seed: int, refs: dict, session: int = 0) -> list[Command]:
    """numeric --comp and verify --mode numeric at weight <= 10, depth <= 4,
    tolerances 1e-6 .. 1e-30.

    The cost of the series is set by weight, depth, the number of parts
    equal to 1 and the tolerance, so each slot fixes those and the seed
    picks the rest: the compositions and the false identities.  The order
    is fixed too, numeric commands first; every numeric command and duality
    pair is distinct, so few commands are answered from the value cache and
    the same ones on every seed.  refs maps "s1,...,sk" to a reference
    value (a decimal string); it sizes the perturbation of a false identity
    at 100..100000 times its tolerance, so the expected verdict does not
    hinge on the last digits."""
    rng = random.Random(f"oracle:{seed}:{session}")
    tols = ORACLE_TOL_EXPONENTS
    idents = []
    for c in _duality_pairs():
        ident = duality_identity(c)
        if rng.random() < 0.5:
            ident = Identity(ident.rhs, ident.lhs, True)
        idents.append((sum(c), ident))
    for i in range(ORACLE_STUFFLE_SLOTS):
        # z(p) * z(b), b of depth 1 or 2 (then ending in 1 or not)
        w = 4 + i % (ORACLE_MAX_WEIGHT - 3)
        db, k = 2, (i // 2) % 2
        if i % 2 == 0 or w < 6 - k:
            db, k = 1, 0
        p = 2 + i % (w - (2 * db - k) - 1)
        taken = {ident.lhs for _, ident in idents}
        ident = stuffle_identity((p,), _pick(rng, w - p, db, k))
        for _ in range(10):
            if ident.lhs not in taken:
                break
            ident = stuffle_identity((p,), _pick(rng, w - p, db, k))
        idents.append((w, ident))
    # numeric commands avoid the identities' compositions where they can,
    # so how many are answered from the value cache depends little on seed
    used = {f for _, ident in idents for side in (ident.lhs, ident.rhs)
            for _, mono in side for f in mono}
    cmds: list[Command] = []
    for w, d, k, e in _numeric_slots():
        c = _pick(rng, w, d, k, used)
        used.add(c)
        cmds.append(Command(["numeric", "--comp", ",".join(map(str, c)),
                             "--tol", f"1e-{e}"], "numeric", weight=w, comp=c,
                            tol=float(f"1e-{e}")))
    n_false = round(ORACLE_FALSE_SHARE * len(idents))
    false_slots = set(rng.sample(range(len(idents)), n_false))
    for i, (w, ident) in enumerate(idents):
        e = tols[(i * 4) % len(tols)]
        tol = float(f"1e-{e}")
        if i in false_slots:
            size = _value(refs, ident.lhs[0][1])
            k = rng.randint(2, 4)
            # smallest power of ten with eps * value >= 10^k * tol
            m = 0
            while size * 10.0 ** -(m + 1) >= 10.0 ** k * tol:
                m += 1
            ident = perturb(ident, 1 + Fraction(1, 10 ** m))
        cmds.append(Command(["verify", "--mode", "numeric", ident.text(),
                             "--tol", f"1e-{e}"], "verify_numeric", weight=w,
                            tol=tol, expect_exit=0 if ident.true else 1))
    return cmds


def structure_commands() -> list[Command]:
    return [Command(["freeness", "--degree", str(STRUCTURE_DEGREE)],
                    "freeness", weight=STRUCTURE_DEGREE),
            Command(["dims", "--max", str(STRUCTURE_DEGREE)], "dims",
                    weight=STRUCTURE_DEGREE)]


def cold_build_commands() -> list[Command]:
    return [Command(["cache", "--rebuild", "--degree", str(BUILD_DEGREE)],
                    "cache_rebuild", weight=BUILD_DEGREE)]


def oracle_pool() -> list[tuple]:
    """Every composition an oracle command can touch."""
    return [c for w in range(2, ORACLE_MAX_WEIGHT + 1)
            for c in compositions(w, ORACLE_MAX_DEPTH)]
