"""Exact-arithmetic engine for block-decorated Brauer categories.

Everything is computed over the rationals with no floating point
anywhere: partition combinatorics, symmetric functions in the Schur
basis, Specht modules with their straightening laws, the diagram
categories built on them, weight-space oracles, finite-rank traceless
tensor realizations of the simple objects, and generalized stabilizers
of tensorial forms.
"""

from .combinat import (
    Magnitude,
    Partition,
    PartitionTuple,
    format_partition,
    format_tuple,
    magnitude,
    parse_partition,
    parse_tuple,
    partitions,
    schur_dim,
    specht_dim,
)
from .exactla import RatMat, kernel_basis, rank
from .symfun import (
    SchurExpr,
    inner_product,
    lr_product,
    plethysm_e,
    plethysm_h,
    shift_decompose,
    skew_schur_expand,
    sym_algebra_degree,
)
from .specht import (
    SpechtModule,
    SpechtVector,
    get_specht_module,
    isotypic_projector,
    relabel,
    sn_character,
)
from .brauer import (
    Block,
    Diagram,
    Morphism,
    UpMorphism,
    hom_basis,
    hom_dim,
    make_diagram,
    morphism_from_json,
    morphism_to_json,
    random_morphism,
    upwards_view,
)
from .schurweyl import (
    TensorRep,
    WeightBasisElement,
    diagram_weight_iso,
    get_tensor_rep,
    weight_space_basis,
)
from .modcat import (
    FormPoint,
    dot_product_form,
    ext_dim,
    monomial_cubic_form,
    multiplicity,
    random_form,
    simple_realization_dim,
    socle_check,
    theta_apply,
    traceless_space,
    translate,
)
from .stabilizer import (
    GLElement,
    GammaQuery,
    MapPresentation,
    PreconditionError,
    evaluation_presentation,
    gamma_linearity_check,
    gamma_product_level,
    germinal_axiom_suite,
    in_gamma,
    permutation_element,
    random_block_fixing,
    random_unimodular,
)

__version__ = "0.1.0"
