"""Difference-avoidance bounds for powers of finite abelian groups.

The central quantity is the largest subset A of G^N whose difference set
meets J^N only at zero, for a finite abelian group G and a finite J
containing 0. The package computes certified upper bounds (spectral counting
with cyclotomic weight polynomials, residue dynamic programs, clique covers,
a generic linear-algebra bound), certified lower bounds (fixed-sum slabs,
product constructions, partial search results), exact values by
branch-and-bound independent-set search where feasible, and a family of
large-support instances with verified structural properties.
"""

from .abelian import GroupSpec, parse_element_set, parse_group
from .cyclotomic import (IntPolynomial, cyclotomic, inverse_cyclotomic, lam_leung,
                         support_and_gaps)
from .numtheory import divisors, is_prime
from .spectral import (cayley_eigenvalue, count_nonneg_tuples, residue_dp_count,
                       spectral_upper_bound, weight_from_polynomial)
from .oracle import exact_avoidance
from .constructions import (build_construction, slab_is_valid, slab_members, slab_size,
                            slab_sizes_upto, verify_construction)
from .engine import BoundReport, best_bounds, report_from_json, report_to_json

__version__ = "0.1.0"

__all__ = [
    "GroupSpec", "parse_element_set", "parse_group",
    "IntPolynomial", "cyclotomic", "inverse_cyclotomic", "lam_leung", "support_and_gaps",
    "divisors", "is_prime",
    "cayley_eigenvalue", "count_nonneg_tuples", "residue_dp_count", "spectral_upper_bound",
    "weight_from_polynomial",
    "exact_avoidance",
    "build_construction", "slab_is_valid", "slab_members", "slab_size", "slab_sizes_upto",
    "verify_construction",
    "BoundReport", "best_bounds", "report_from_json", "report_to_json",
    "__version__",
]
