"""Exact arithmetic for Hermitian squared-norm forms.

Polynomial maps with Gaussian-rational coefficients, their squared norms as
Hermitian forms over monomial bases, exact rank/inertia/sum-of-squares
computations, isometry identities between such norms, and the integer
bounds constraining how many squares those identities can use.
"""

from types import ModuleType as _Module

from .bounds import (
    BoundReport,
    check_affine_norm_product,
    check_gap_feasible,
    check_homogeneous_norm_product,
    check_min_embedding_dim,
    check_modification_rank,
    check_norm_product,
    check_power_rank,
    check_rational_modification_rank,
    gap_intervals,
    prime_substitution,
    verify_injective,
)
from .documents import (
    DocumentError,
    EnsembleConfig,
    parse_form_document,
    parse_map_document,
    random_map,
    serialize_form_document,
    serialize_map_document,
)
from .isometry import (
    NotMinimalError,
    NotNormalizedError,
    divide_by_norm,
    extremal_lower,
    extremal_power_lower,
    identity_mismatch,
    one_plus_norm,
    r_lambda,
    solve_h,
    tensor_power_rank,
    verify_identity,
)
from .polyalg import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianForm,
    HoloMap,
    HoloPoly,
    Monomial,
    grlex_key,
    monomials_of_degree,
    monomials_up_to_degree,
    norm_form,
    substitute_powers,
)
from .rankdecomp import (
    Inertia,
    NotSOSError,
    affine_split,
    extract_sos,
    grams_equal,
    inertia,
    reduce_minimal,
)

# every public name imported above; the imports also bind each submodule's name
__all__ = sorted(name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module)))
