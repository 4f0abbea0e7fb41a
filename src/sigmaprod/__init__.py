"""Exact combinatorics of products of spaces of finite sets.

The objects are the compact spaces of at-most-n-element subsets of a ground
set and their finite and countable products.  The package materializes, at
desk scale and in exact rational arithmetic, the machinery that classifies
them: averaging operators for the union map, the symbolic clopen box algebra,
the binary encoding of the positive l1 ball, delta-systems, and the
homeomorphism decision procedure with its decomposition witnesses.

Each public name below is imported from its submodule on first access
(PEP 562), so ``import sigmaprod`` loads no submodule and a CLI process loads
only what its command uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "EMPTY", "OMEGA", "Budget", "BudgetExceeded", "Point", "ProductDescriptor",
        "ProductPoint", "TauSequence", "i_of", "j_of", "materialize", "parse_point",
        "parse_tau",
    ], "ground"),
    **dict.fromkeys([
        "BasicBox", "ClopenSet", "box_contains", "box_intersect", "box_is_empty",
        "box_reduce", "preimage_under_union", "union_membership_cover",
    ], "clopen"),
    **dict.fromkeys([
        "AveragingOperator", "ExplicitOperator", "UnionMap", "apply_union", "build_operator",
        "enumerate_L", "fiber_map", "locality_profile", "product_operator", "restrict_operator",
    ], "averaging"),
    **dict.fromkeys([
        "BinaryArray", "SignedVector", "embed_u", "in_L0", "level_bounds", "phi",
        "phi_preimage", "pipeline_check", "support_counts",
    ], "uec"),
    **dict.fromkeys([
        "DeltaSystem", "NeighborhoodSpec", "SetFamily", "common_point_witness",
        "extract_delta_system", "free_transversal", "neighborhood_emptiness_bound",
    ], "deltasystem"),
    **dict.fromkeys([
        "ClassificationVerdict", "Decomposition", "NormalForm", "SpaceExpression",
        "cb_derivative", "cb_invariants", "classify", "decompose_absorb_small",
        "decompose_classif_k", "embed_product_into_sigma", "max_power_embeddable",
        "normal_form", "recover_tau", "retract_witness", "split_tagged_point",
    ], "classification"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, or a submodule that defines some, on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        if name in _EXPORTS.values():
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
