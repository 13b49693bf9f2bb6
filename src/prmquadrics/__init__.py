"""Quadrics over small finite fields and order-2 projective Reed-Muller codes.

Exact-arithmetic classification of quadratic forms, code construction,
three independent minimal-codeword testers, and exhaustive censuses that
cross-check the closed-form counting identities.  A form's rank and
singular locus are read off its ``classify`` report.
"""

from .census import (
    ContainmentViolation,
    MinimalCountTable,
    PencilProfile,
    brute_force_census,
    conic_interpolation_profile,
    minimal_count_closed_form,
    orbit_count,
    serre_scan,
    verify_containment,
    verify_exception_example,
)
from .formexpr import parse_form, render_form
from .gf import Field, field_create, field_from_order, irreducible_binary_constants
from .prm import (
    Codeword,
    MinimalityVerdict,
    PrmCode,
    build_code,
    interpolation_space,
    is_minimal_characterization,
    is_minimal_exhaustive,
    is_minimal_interpolation,
)
from .projspace import (
    LinearSubspace,
    ProjectiveSpace,
    gaussian_binomial,
    line_through,
    projective_size,
    projective_space,
)
from .quadric import (
    CanonicalizationResult,
    ClassificationReport,
    QuadraticForm,
    QuadricClass,
    canonical_form,
    canonicalize,
    classify,
    expected_point_count,
    form_from_terms,
    point_set,
    polarize,
    projective_index_bruteforce,
    radical_quadratic,
    restrict_to_hyperplane,
    substitute,
)

__version__ = "0.1.0"
