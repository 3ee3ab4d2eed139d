"""Skew group algebras, invariant subalgebras, and Clifford-theory checks for
finite-dimensional semisimple complex algebras."""

from .algebra import (
    Algebra,
    SubalgebraEmbedding,
    corner_algebra,
    direct_sum,
    fixed_subalgebra,
    is_semisimple,
    make_algebra,
    matrix_algebra,
)
from .group_action import (
    AlgebraAction,
    FiniteGroup,
    cyclic_group,
    left_cosets,
    make_action,
    make_group,
)
from .numeric import DEFAULT_SEED, DEFAULT_TOL, nullspace, rank, solve_sandwich
from .projective import (
    Cocycle,
    ProjectiveSystem,
    contragredient,
    extract_cocycle,
    inertia,
    module_over_twisted,
    projective_isotypics,
    twisted_group_algebra,
)
from .repmod import (
    Decomposition,
    Module,
    decompose,
    hom_space,
    invariant_subspace,
    is_simple,
    make_module,
    restrict,
    twist,
)
from .skew import (
    SkewAlgebra,
    check_phi_psi,
    corner_module,
    extend_to_skew,
    induce,
    skew_group_algebra,
    symmetrizer,
)

__version__ = "0.1.0"
