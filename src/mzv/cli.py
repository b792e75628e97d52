"""Command-line front end.

Exit codes are a stable scripting contract: 0 on success, 1 when a
mathematical check fails (a mismatch, a failed identity, a violated
invariant), 2 on usage or parse errors and on a numeric tolerance the series
cannot reach.  `--records` switches every report from aligned tables to
line-oriented machine-readable records.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import conjectures, engine, store
from .linalg import rank
from .lyndon import format_lyndon_poly, radford_decompose
from .regularize import full_system, reg
from .words import (
    LinComb,
    comp_sort_key,
    format_comp,
    format_comp_poly,
    format_word_poly,
    parse_comp,
    shuffle,
    stuffle,
    word_poly,
    word_sort_key,
    word_to_comp,
)

HARD_CEILING = 16


def _parse_identity(text: str) -> engine.Identity:
    if text.count("=") != 1:
        raise ValueError("an identity needs exactly one '='")
    lhs, rhs = text.split("=")
    if not lhs.strip() or not rhs.strip():
        raise ValueError("empty identity side")
    return engine.Identity(engine.parse_generator_poly(lhs),
                           engine.parse_generator_poly(rhs))


def _check_degree(args, n: int, low: int = 2) -> None:
    if n < low:
        raise ValueError(f"degree must be at least {low}")
    if n > args.ceiling:
        raise ValueError(
            f"degree {n} exceeds the ceiling {args.ceiling} "
            f"(raise with --ceiling, hard maximum {HARD_CEILING})")


def _tolerance_text(text: str) -> str:
    # kept as text, which numeric.check_tolerance reads in mpf: that reaches
    # below the float range, where float() would give 0.0.  An infinity or
    # nan goes on as float() prints it, since mpf does not read every
    # spelling float() does ("infinity", "+nan")
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    return text if math.isfinite(value) else str(value)


def _cache(args):
    # alternative basis orders never touch the persistent cache
    if args.prefer != "depth":
        return store.TableStore(preference=args.prefer)
    return store.TableStore(store.resolve_root(args.cache_dir))


def _print_terms(args, p: LinComb, text, key=word_sort_key,
                 label=str) -> int:
    # one line of text, or with --records one `term` line per key; the
    # empty key prints as "" so the line keeps three fields
    if args.records:
        for k in sorted(p.support(), key=key):
            print("term", label(k) or '""', p[k])
    else:
        print(text(p))
    return 0


def cmd_shuffle(args) -> int:
    return _print_terms(args, shuffle(word_poly(args.w1), word_poly(args.w2)),
                        format_word_poly)


def cmd_stuffle(args) -> int:
    c1, c2 = parse_comp(args.c1), parse_comp(args.c2)
    return _print_terms(args, stuffle(LinComb.term(c1), LinComb.term(c2)),
                        format_comp_poly, key=comp_sort_key,
                        label=format_comp)


def cmd_reg(args) -> int:
    return _print_terms(args, reg(word_poly(args.word)), format_word_poly)


def cmd_decompose(args) -> int:
    return _print_terms(args, radford_decompose(args.word),
                        format_lyndon_poly, key=None, label=".".join)


def cmd_knt(args) -> int:
    _check_degree(args, args.degree, 3)
    # the restricted rank is the weight's rule count, as `dims` prints it
    r_knt = len(engine.echelonize_degree(args.degree, _cache(args)).rules)
    r_full = rank(full_system(args.degree))
    ok = r_knt == r_full
    if args.records:
        print(f"knt {args.degree} {r_knt} {r_full} {int(ok)}")
    else:
        print(f"degree {args.degree}: restricted rank {r_knt}, "
              f"full rank {r_full} -> {'match' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_dims(args) -> int:
    _check_degree(args, args.max, 3)
    rows = conjectures.verify_zagier(args.max, _cache(args))
    bad = False
    if not args.records:
        print(f"{'n':>3} {'words':>6} {'rank':>6} {'dim':>4} "
              f"{'zagier':>6}  match")
    for row in rows:
        bad |= not row.match
        if args.records:
            print(f"dims {row.degree} {row.words} {row.rank} {row.dim} "
                  f"{row.zagier} {int(row.match)}")
        else:
            print(f"{row.degree:>3} {row.words:>6} {row.rank:>6} "
                  f"{row.dim:>4} {row.zagier:>6}  "
                  f"{'yes' if row.match else 'NO'}")
    return 1 if bad else 0


def cmd_verify(args) -> int:
    if args.mode != "symbolic":
        # mpmath loads only for a numeric check; a usage error comes before
        # any work or output
        from mpmath import mp

        from . import numeric
        numeric.check_tolerance(args.tol)
    ident = _parse_identity(args.identity)
    weight = engine.identity_weight(ident)
    # --ceiling bounds the relation engine, which only the symbolic check runs
    if weight and args.mode != "numeric":
        _check_degree(args, weight)
    failed = False
    if args.mode in ("symbolic", "both"):
        ok, residual = engine.verify_identity(ident, _cache(args))
        if args.records:
            print(f"symbolic {int(ok)}")
        elif ok:
            print("symbolic: PASS")
        else:
            print("symbolic: FAIL  residual = "
                  f"{engine.format_generator_poly(residual)}")
        failed |= not ok
    if args.mode in ("numeric", "both"):
        iv = numeric.identity_values(ident, args.tol)
        if args.records:
            print(f"numeric {int(iv.ok)} {mp.nstr(iv.diff, 4)}")
        elif iv.ok:
            print(f"numeric: PASS  |lhs - rhs| = {mp.nstr(iv.diff, 4)} "
                  f"<= {mp.nstr(iv.tol, 4)}")
        elif iv.diff > iv.tol:
            print(f"numeric: FAIL  |lhs - rhs| = {mp.nstr(iv.diff, 4)} "
                  f"> {mp.nstr(iv.tol, 4)}")
        else:
            print("numeric: FAIL  |lhs - rhs| + error bound = "
                  f"{mp.nstr(iv.diff, 4)} + {mp.nstr(iv.err, 4)} "
                  f"> {mp.nstr(iv.tol, 4)}")
        failed |= not iv.ok
    return 1 if failed else 0


def cmd_rewrite(args) -> int:
    comp = parse_comp(args.comp)
    _check_degree(args, sum(comp))
    gp = engine.express_in_generators(comp, _cache(args))
    print(engine.format_generator_poly(gp))
    return 0


def cmd_n23(args) -> int:
    if args.max < 2:
        raise ValueError("--max must be at least 2")
    counts = conjectures.n23_counts(args.max)
    words = conjectures.two_three_lyndon(args.max)
    bad = False
    if not args.records:
        print(f"{'p':>3} {'N(p)':>5}  words")
    for p in range(2, args.max + 1):
        lst = words[p]
        bad |= len(lst) != counts[p]
        if args.records:
            print(f"n23 {p} {counts[p]} "
                  + " ".join(format_comp(c) for c in lst))
        else:
            text = "  ".join("(" + format_comp(c) + ")" for c in lst) or "-"
            flag = "" if len(lst) == counts[p] else "  COUNT MISMATCH"
            print(f"{p:>3} {counts[p]:>5}  {text}{flag}")
    return 1 if bad else 0


def cmd_bk(args) -> int:
    if args.max_weight < 3:
        raise ValueError("--max-weight must be at least 3")
    table = conjectures.bk_counts(args.max_weight)
    rebuilt = conjectures.bk_reconstruct(table)
    ok = not table.violations and rebuilt
    if args.records:
        for (n, k), d in sorted(table.values.items()):
            print(f"bk {n} {k} {d}")
        for n, k, v in table.violations:
            print(f"violation {n} {k} {v}")
    else:
        print(f"{'weight':>6} {'depth':>6} {'count':>6}")
        print(f"{2:>6} {1:>6} {1:>6}   (tabulated row; the product "
              "starts at weight 3)")
        for n in range(3, args.max_weight + 1):
            cols = [(k, d) for (m, k), d in sorted(table.values.items())
                    if m == n]
            if not cols:
                print(f"{n:>6} {'-':>6} {'-':>6}")
            for k, d in cols:
                print(f"{n:>6} {k:>6} {d:>6}")
        for n, k, v in table.violations:
            print(f"violation at weight {n} depth {k}: {v}")
        if not rebuilt:
            print("re-exponentiation does not reproduce the series")
    return 0 if ok else 1


def cmd_numeric(args) -> int:
    from mpmath import mp

    from . import numeric
    comp = parse_comp(args.comp)
    nv = numeric.mzv_numeric(comp, args.tol)
    digits = max(6, int(-mp.log(nv.abs_error_bound, 10)) - 1)
    if args.records:
        print(f"numeric {format_comp(comp)} {mp.nstr(nv.value, digits)} "
              f"{mp.nstr(nv.abs_error_bound, 3)}")
    else:
        print(f"z({format_comp(comp)}) = {mp.nstr(nv.value, digits)} "
              f"\N{PLUS-MINUS SIGN} {mp.nstr(nv.abs_error_bound, 3)}")
    return 0


def cmd_freeness(args) -> int:
    _check_degree(args, args.degree)
    report = engine.check_polynomial_freeness(args.degree, _cache(args))
    comps = [format_comp(word_to_comp(w)) for w in report.new_generators]
    if args.records:
        print(f"freeness {report.degree} {int(report.ok)} "
              f"{report.new_count} " + " ".join(comps))
    else:
        state = "PASS" if report.ok else "FAIL"
        print(f"degree {report.degree}: {state}, "
              f"{report.new_count} new generator(s)"
              + (": " + ", ".join(f"({c})" for c in comps) if comps else ""))
        if not report.ok:
            shown = ", ".join(
                engine.format_generator_monomial(m)
                for m in report.product_pivots[:4])
            print(f"pivots on product columns: {shown}")
    return 0 if report.ok else 1


def cmd_cache(args) -> int:
    root = store.resolve_root(args.cache_dir)
    if args.path:
        print(root)
        return 0
    if args.rebuild:
        if args.prefer != "depth":
            raise ValueError(
                "only the default preference order is persisted; "
                "drop --prefer for cache operations")
        _check_degree(args, args.degree)
        st = store.TableStore(root)
        st.wipe()
        engine.echelonize_degree(args.degree, st)
        paths = [st.path(n) for n in range(2, args.degree + 1)]
        # a failed write keeps a table in memory only, so look for the files
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            raise ValueError(f"missing table file(s) under {root}: "
                             + ", ".join(missing))
        if args.records:
            for p in paths:
                print(f"table {p.name}")
        else:
            print(f"rebuilt {len(paths)} table file(s) under {root}")
        return 0
    raise ValueError("cache needs --rebuild or --path")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    ap = argparse.ArgumentParser(
        prog="mzv",
        description="Exact relations, counting conjectures, and numeric "
                    "evaluation for multiple zeta values.")
    ap.add_argument("--records", action="store_true",
                    help="line-oriented machine-readable output")
    ap.add_argument("--ceiling", type=int, default=12, metavar="N",
                    help="largest weight the relation engine will attempt "
                         f"(default 12, hard maximum {HARD_CEILING})")
    ap.add_argument("--cache-dir", metavar="DIR",
                    help="rewrite-table cache directory "
                         "(default: $MZV_CACHE_DIR, then ./.mzv-cache)")
    ap.add_argument("--prefer", choices=sorted(engine.PREFERENCES),
                    default="depth",
                    help="basis preference order (non-default orders are "
                         "kept in memory only)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shuffle", help="shuffle product of two words")
    p.add_argument("w1")
    p.add_argument("w2")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("stuffle", help="stuffle product of two indices")
    p.add_argument("c1")
    p.add_argument("c2")
    p.set_defaults(func=cmd_stuffle)

    p = sub.add_parser("reg", help="shuffle regularization of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_reg)

    p = sub.add_parser("decompose",
                       help="Lyndon-monomial decomposition of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("knt",
                       help="check that the restricted relation rows span "
                            "the full double-shuffle row space")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_knt)

    p = sub.add_parser("dims", help="span dimensions against the recurrence")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="check an identity like "
                       "'z(2,3) = 9/2*z(5) - 2*z(2)*z(3)'")
    p.add_argument("identity")
    p.add_argument("--mode", choices=("symbolic", "numeric", "both"),
                   default="both")
    p.add_argument("--tol", type=_tolerance_text, default="1e-6")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rewrite",
                       help="express an index in the generator basis")
    p.add_argument("comp", help="comma-separated index, e.g. 2,3")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("n23", help="generator counts and Lyndon words "
                       "over the {2,3} alphabet (exponentially many in --max)")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_n23)

    p = sub.add_parser("bk", help="bigraded generator counts from the "
                       "conjectural series")
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_bk)

    p = sub.add_parser("numeric", help="high-precision value of an index")
    p.add_argument("--comp", required=True)
    p.add_argument("--tol", type=_tolerance_text, default="1e-10")
    p.set_defaults(func=cmd_numeric)

    p = sub.add_parser("freeness",
                       help="single-Lyndon pivot check at one weight")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_freeness)

    p = sub.add_parser("cache", help="persistent table cache management")
    p.add_argument("--rebuild", action="store_true")
    p.add_argument("--path", action="store_true")
    p.add_argument("--degree", type=int, default=8,
                   help="rebuild tables up to this weight (default 8)")
    p.set_defaults(func=cmd_cache)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if not 2 <= args.ceiling <= HARD_CEILING:
        ap.error(f"--ceiling must be between 2 and {HARD_CEILING}")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: a numeric target the series cannot reach
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
