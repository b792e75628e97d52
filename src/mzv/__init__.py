"""Exact shuffle/stuffle algebra for multiple zeta values.

The package keeps three concerns separate: exact linear algebra over the
word algebras (words, regularize, linalg, engine), counting conjectures
(conjectures), and floating-point evaluation (numeric).  Everything exact
uses Fraction; mpmath appears only behind the numeric oracle, which loads on
first use of mzv_numeric or identity_values, so importing the package or the
command line does not import mpmath.
"""

from .words import (
    LinComb,
    comp_to_word,
    comp_weight,
    is_admissible,
    parse_comp,
    shuffle,
    stuffle,
    word_to_comp,
)
from .lyndon import lyndon_words, radford_decompose_poly
from .regularize import double_shuffle_relation, full_system, knt_system, reg
from .engine import (
    Identity,
    RewriteTable,
    check_polynomial_freeness,
    echelonize_degree,
    express_in_generators,
    format_generator_poly,
    parse_generator_poly,
    verify_identity,
)
from .conjectures import (
    bk_counts,
    dim_bridge,
    n23_counts,
    two_three_lyndon,
    verify_zagier,
    zagier_dims,
)
from .store import TableStore

__version__ = "0.1.0"

__all__ = [
    "LinComb",
    "comp_to_word",
    "comp_weight",
    "is_admissible",
    "parse_comp",
    "shuffle",
    "stuffle",
    "word_to_comp",
    "lyndon_words",
    "radford_decompose_poly",
    "double_shuffle_relation",
    "full_system",
    "knt_system",
    "reg",
    "Identity",
    "RewriteTable",
    "check_polynomial_freeness",
    "echelonize_degree",
    "express_in_generators",
    "format_generator_poly",
    "parse_generator_poly",
    "verify_identity",
    "bk_counts",
    "dim_bridge",
    "n23_counts",
    "two_three_lyndon",
    "verify_zagier",
    "zagier_dims",
    "identity_values",
    "mzv_numeric",
    "TableStore",
    "__version__",
]


def __getattr__(name):
    # PEP 562: the numeric oracle, and with it mpmath, loads on first access
    if name in ("identity_values", "mzv_numeric"):
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
