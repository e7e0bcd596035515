"""Convolution algebras over catoids, with Moebius-condition checkers.

Weight functions from a catoid into a value algebra compose by convolution;
over Moebius catoids the Kleene star has a well-founded recursive form.  The
package provides the catoid model catalogue, value algebras from booleans to
finite tables, the convolution operations with modal / interchange /
n-dimensional variants, an axiom-verification lab, and the pathtool CLI.
"""

from .catoid import (
    Catoid,
    MoebiusViolation,
    TableCatoid,
    check_catoid_axioms,
    check_moebius,
    check_saturated_chain,
    is_functional,
    is_local,
)
from .convolution import (
    WeightFunction,
    conv_add,
    convolve,
    from_pairs,
    functions_equal,
    id0,
    indicator,
    is_in_bracket,
    star_dual,
    star_path,
    star_recursive,
    star_unfolded,
    test_complement,
    zero_function,
)
from .report import Report
from .values import (
    INF,
    NEG_INF,
    CapabilityError,
    NValueAlgebra,
    ValueAlgebra,
    check_value_axioms,
    load_finite_algebra,
    make_boolean,
    make_boolean_nd,
    make_max_plus,
    make_min_plus,
    make_nat_inf_conway,
    quantale_star,
)

__all__ = [
    "Catoid", "MoebiusViolation", "TableCatoid", "check_catoid_axioms",
    "check_moebius", "check_saturated_chain", "is_functional", "is_local",
    "WeightFunction", "conv_add", "convolve", "from_pairs", "functions_equal",
    "id0", "indicator", "is_in_bracket", "star_dual", "star_path",
    "star_recursive", "star_unfolded", "test_complement", "zero_function",
    "Report", "INF", "NEG_INF", "CapabilityError", "NValueAlgebra",
    "ValueAlgebra", "check_value_axioms", "load_finite_algebra", "make_boolean",
    "make_boolean_nd", "make_max_plus", "make_min_plus", "make_nat_inf_conway",
    "quantale_star",
]
