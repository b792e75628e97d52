"""Check every rule of one cached rewrite table against the numeric oracle.

    PYTHONPATH=src python .github/scripts/rules_against_oracle.py CACHE_DIR N

For each rule u -> sum c_b b of the weight-N table, require

    |z(u) - sum c_b z(b)| <= err_u + sum |c_b| err_b,

where each value and its error bound come once per word from `mzv_numeric`
at tolerance 1e-25.  The exact certificate proves a table is the reduced
echelon form of the relation rows the engine generated; this check would see
a wrong row (a bad shuffle, stuffle or regularization term) too.  The bound
is the oracle's own estimate, so a failure means a table bug or an oracle
bug.  Prints the first failing rule and exits 1, or a summary and exits 0.
"""

import sys

from mpmath import mp

from mzv.numeric import mzv_numeric
from mzv.store import TableStore
from mzv.words import format_word_poly, word_to_comp

TOL = 1e-25

root, n = sys.argv[1], int(sys.argv[2])
table = TableStore(root).get(n)
if table is None:
    sys.exit(f"degree-{n:02d}.table does not load")
values = {w: mzv_numeric(word_to_comp(w), TOL)
          for w in (*table.basis_words, *table.rules)}
worst = 0
with mp.workdps(60):
    for u, rule in table.rules.items():
        residual, budget = values[u].value, values[u].abs_error_bound
        for b, c in rule.items():
            coef = mp.mpf(c.numerator) / c.denominator
            residual -= coef * values[b].value
            budget += abs(coef) * values[b].abs_error_bound
        if abs(residual) > budget:
            sys.exit(f"rule {u} = {format_word_poly(rule)} fails: |residual| "
                     f"{mp.nstr(abs(residual), 5)} > {mp.nstr(budget, 5)}")
        worst = max(worst, abs(residual) / budget)
print(f"{len(table.rules)}/{len(table.rules)} rules at weight {n} hold; "
      f"worst residual/budget {mp.nstr(worst, 3)}")
