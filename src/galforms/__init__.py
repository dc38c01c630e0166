"""galforms: exact classification of forms of reductive groups.

Root data and Langlands duality, Galois cohomology of finite groups,
Brauer classes and Hilbert symbols, crossed-product central simple
algebras, and twisted semilinear Galois descent — all in exact rational
arithmetic.
"""

from .exact_linalg import (
    FiniteAbelianGroup,
    IntMatrix,
    cokernel,
    coinvariants,
    fixed_sublattice,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from .groups import (
    FiniteGroup,
    cyclic,
    direct_product,
    homomorphisms,
    symmetric,
)
from .root_datum import (
    BasedRootDatum,
    OuterAutomorphism,
    RootDatum,
    build_root_datum,
    cartan_matrix,
    dual,
    fundamental_group,
    outer_automorphisms,
)
from .fields import (
    INFINITE_PLACE,
    BrauerClass,
    FieldElement,
    GaloisField,
    RATIONALS,
    brauer_class_quaternion,
    cyclotomic_field,
    galois_group,
    hilbert_symbol,
    is_norm_quadratic,
    norm,
    quadratic_field,
    relevant_places,
)
from .cohomology import (
    CentralExtension,
    CyclicNormClasses,
    GGroup,
    GModule,
    GaloisAction,
    KxCocycle,
    boundary_map,
    h0,
    h1_nonabelian,
    h2_bar,
    hom_module,
    is_two_cocycle_kx,
    kx_coboundary_of,
    quadratic_cocycle,
    transport_to_family,
    family_to_transport,
    trivial_kx_cocycle,
)
from .crossed import (
    AlgebraElement,
    AlgebraIsomorphism,
    CrossedProductAlgebra,
    coboundary_isomorphism,
    cocycle_sum_class_check,
    find_zero_divisor,
)
from .descent import (
    AModule,
    SemilinearDatum,
    dimension_one_witness,
    fixed_space,
    from_module,
    identity_datum,
    make_datum,
    regular_module,
    to_module,
    transport_datum,
    validate_datum,
)
from .classify import (
    CocharacterData,
    InnerInvariant,
    QuasiSplitForm,
    build_inner_invariant,
    classify_quasisplit,
    component_index,
    quasisplit_cocharacter_data,
)

__version__ = "0.1.0"
