"""Exact structure-constant workbench for finite-dimensional Hom-Hopf algebras.

Everything is computed over Q or GF(p) with no tolerances: axiom checkers
for twisted algebras/coalgebras/bialgebras, module and comodule
compatibility, smash products and coproducts, the Radford biproduct with its
antipode, Yetter-Drinfeld modules with their braiding and Yang-Baxter
operators, and quasitriangular/cobraided correspondences.
"""

from .fields import (
    ExactError,
    FieldMismatchError,
    GF,
    QQ,
    ShapeError,
    SingularMatrixError,
    is_prime,
)
from .matrices import (
    Matrix,
    Mismatch,
    first_mismatch,
    flatten_index,
    kron,
    kron_list,
    leg_perm,
    maps_equal,
    solve,
    unflatten_index,
)
from .report import CheckResult, Report, StructureError
from .structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    convolution,
    convolution_inverse,
    tensor_hom_algebra,
    tensor_hom_coalgebra,
    yau_twist,
)
from .actions import (
    ActionMap,
    CoactionMap,
    YDModule,
    check_action_axioms,
    check_coaction_axioms,
    check_hyd,
    check_hyd_prime,
    regular_action,
    regular_coaction,
    trivial_action,
    trivial_coaction,
    trivial_yd_module,
)
from .constructions import (
    Bundle,
    TwistMapT,
    biproduct_antipode,
    carrier_antipode_report,
    check_cosmash_tensor_gate,
    check_radford_conditions,
    check_smash_tensor_gate,
    check_t_smash_conditions,
    coaction_twist_map,
    flip_twist_map,
    radford_biproduct,
    smash_coproduct,
    smash_coproduct_antipode,
    smash_product,
    smash_product_antipode,
    t_smash_coproduct,
)
from .braided import (
    CategoryMorphism,
    associator,
    braiding,
    braiding_inverse,
    check_bialgebra_in_hyd,
    check_bosonization_equivalence,
    check_hexagons,
    check_pentagon,
    check_yang_baxter,
    check_yd_morphism,
    yang_baxter_operator,
    yd_tensor,
)
from .quasitriangular import (
    CobraidingForm,
    RMatrix,
    check_cobraiding_equivalence,
    check_quasitriangular,
    check_rmatrix_equivalence,
    induced_action_from_form,
    induced_coaction,
    rmatrix_from_coaction,
)

__version__ = "0.1.0"
