"""Exact scalar arithmetic: polynomials, rational functions, the
Q -> Q(t) -> Q(t)[u] field tower, and one truncated Laurent series type
(Series) for both Laurent windows at a point and hbar expansions; LocalSeries
and HbarSeries are other names for it.  No floating point anywhere."""

from .fields import (ExtElem, FunctionField, QQ, QuadraticExtension,
                     RationalField, adjoin_roots, parse_element,
                     partial_derivation, roots_in_one_extension, substitute)
from .poly import (Poly, integer_numerators, poly_gcd, poly_sqrt,
                   squarefree_decomposition)
from .ratfn import (RatFn, evaluate, local_expand, partial_fractions,
                    recombine, roots_in_field, split_linear_factors)
from .series import (HbarSeries, LocalSeries, Series, clear, cleared,
                     cleared_inverse, cleared_product, integer_product)

__all__ = [
    "ExtElem", "FunctionField", "HbarSeries", "LocalSeries", "Poly",
    "QQ", "QuadraticExtension", "RatFn", "RationalField", "Series",
    "adjoin_roots", "clear", "cleared", "cleared_inverse", "cleared_product",
    "evaluate",
    "integer_numerators", "integer_product",
    "local_expand", "parse_element", "partial_derivation", "partial_fractions",
    "poly_gcd", "poly_sqrt", "recombine", "roots_in_field",
    "roots_in_one_extension",
    "split_linear_factors", "squarefree_decomposition", "substitute",
]
