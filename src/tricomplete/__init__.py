"""Good metrics, Cauchy towers and completions on bounded derived
categories of finitely generated modules over F_p[x]/(x^n)."""

from .linalg import Matrix, kernel_basis, rank, rref, solve
from .rmodule import (
    RModule,
    RModuleMap,
    Ring,
    free_module,
    hom_basis,
    projective_cover_and_syzygy,
    stable_hom,
    stable_hom_dim,
    subquotient,
    syzygy_type,
    zero_module,
)
from .complexes import (
    ChainMap,
    Complex,
    PreconditionError,
    Resolution,
    Triangle,
    ValidationError,
    cohomology,
    cohomology_map,
    cohomology_support,
    cone,
    cone_support,
    derived_hom,
    direct_sum_complex,
    dualize,
    homotopy_pushout,
    identity_chain_map,
    is_acyclic,
    is_null_homotopic,
    is_quasi_iso,
    module_complex,
    projective_resolution,
    shift,
    zero_complex,
)
from .metric import (
    GoodMetric,
    VanishingSpec,
    cartesian_invariance_check,
    check_good_axioms,
    equivalent,
    in_ball,
    length,
    metric_i,
    metric_ii,
    metric_iii,
    object_length,
    shifted_family,
    standard_metric,
    strong_triangle_check,
)
from .cauchy import (
    CauchyCertificate,
    ColimitTable,
    Tower,
    colimit,
    constant_tower,
    is_cauchy,
    prefix_tower,
    truncation_tower,
)
from .completion import (
    CompletionObject,
    SingClass,
    Verdict,
    complete,
    has_bounded_injective_resolution,
    in_S,
    is_compactly_supported,
    is_perfect,
    sing_hom,
    syzygy_class,
)
from .workspace import Workspace, parse_workspace, serialize_workspace

__all__ = [name for name in dir() if not name.startswith("_")]
