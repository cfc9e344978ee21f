"""Exact-arithmetic engine for block-decorated Brauer categories.

Everything is computed over the rationals with no floating point
anywhere: partition combinatorics, symmetric functions in the Schur
basis, Specht modules with their straightening laws, the diagram
categories built on them, weight-space oracles, finite-rank traceless
tensor realizations of the simple objects, and generalized stabilizers
of tensorial forms.

Each layer module is loaded on first use: importing the package binds
the eight layers and the three leaf modules as lazy modules, and a public
name below is read from its layer when it is first asked for, so a job
executes only the modules it reads.
"""

import importlib.util
import sys

# The public names, by the layer that defines them.
_LAYERS = {
    "combinat": (
        "Magnitude", "Partition", "PartitionTuple", "PreconditionError", "format_partition",
        "format_tuple", "hom_dim", "magnitude", "parse_partition", "parse_tuple", "partitions",
        "schur_dim", "specht_dim",
    ),
    "exactla": ("RatMat", "rank"),
    "symfun": (
        "SchurExpr", "ext_dim", "inner_product", "lr_product", "multiplicity", "plethysm_e",
        "plethysm_h", "shift_decompose", "skew_schur_expand", "sym_algebra_degree",
    ),
    "specht": (
        "SpechtModule", "SpechtVector", "get_specht_module", "isotypic_projector", "relabel",
    ),
    "brauer": (
        "Block", "Diagram", "Morphism", "UpMorphism", "hom_basis", "make_diagram",
        "morphism_from_json", "morphism_to_json", "random_morphism", "upwards_view",
    ),
    "schurweyl": (
        "TensorRep", "WeightBasisElement", "diagram_weight_iso", "get_tensor_rep",
        "weight_space_basis",
    ),
    "modcat": (
        "dot_product_form", "monomial_cubic_form", "simple_realization_dim", "socle_check",
        "theta_apply", "traceless_space", "translate",
    ),
    "stabilizer": (
        "GLElement", "MapPresentation", "evaluation_presentation",
        "gamma_linearity_check", "gamma_product_level", "germinal_axiom_suite", "in_gamma",
        "permutation_element", "random_block_fixing",
    ),
}
# Leaf modules that read only `combinat`, with the public names they define:
# reading one executes the leaf alone.
_LEAVES = {"characters": ("sn_character",), "forms": ("FormPoint", "random_form"), "setpart": ()}
_HOME = {name: module for module, names in (*_LAYERS.items(), *_LEAVES.items()) for name in names}
__all__ = [*_LAYERS, *_HOME]


def _lazy_module(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((module, _lazy_module(module)) for module in (*_LAYERS, *_LEAVES))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


__version__ = "0.1.0"
