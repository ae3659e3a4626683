"""Quasisymmetric functions with the antichain-chain N basis, matroid
invariants, and rank-two base polytope decompositions, all over exact
rationals.

`from nqsym import X` is lazy (PEP 562): importing the package loads no
submodule, and the first access to an exported name imports the one
module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "compositions": (
        "as_composition",
        "as_ordered_partition",
        "as_permutation",
        "as_set_partition",
        "binary_word",
        "composition_to_subset",
        "fibre",
        "induced_partition_by_set_partition",
        "is_alternating",
        "partition_type",
        "partitions",
        "rank",
        "refines",
        "reversal",
        "rho",
        "runs",
        "segment",
        "subset_to_composition",
        "weight",
    ),
    "elements": ("QSymElement", "TensorElement", "format_element"),
    "errors": (
        "NotDivisibleError",
        "NQSymError",
        "ResourceLimitError",
        "ValidationError",
    ),
    "matroids": (
        "GeomDecomposition",
        "Matroid",
        "RankTwoClass",
        "RankTwoRecovery",
        "SplitCertificate",
        "SplitResult",
        "T_vec",
        "U_vec",
        "Ubar_vec",
        "base_poset",
        "duality_check",
        "full_split_to_length3",
        "geom_decompose",
        "hilbert_basis_check",
        "loops_coloops_from_qsym",
        "mod_m2",
        "polytope_dim",
        "polytope_edge",
        "qsym_of_matroid",
        "rank2_from_partition",
        "rank2_matroid_from_blocks",
        "rank2_qsym",
        "recover_rank2",
        "recover_rank2_modm2",
        "sample_loopless_matroid",
        "split",
        "u_coordinates",
        "ubar_coordinates_of_partition",
        "uniform",
        "verify_polytope_decomposition",
    ),
    "posets": (
        "LabeledPoset",
        "antichain",
        "build_P_K",
        "build_P_alpha",
        "chain",
        "decompose_by",
        "is_antichain_inducing",
        "labeling_kind",
        "linear_extensions",
        "ordinal_sum",
        "qsym_of_poset",
    ),
    "qsym": (
        "convert",
        "coproduct_monomial",
        "divide_by_pure_power",
        "fundamental_element",
        "in_Vnr",
        "monomial_element",
        "mul",
        "mul_nbasis",
        "n_basis_element",
        "nbasis_product",
        "nl_unitriangular_matrix",
        "quasi_shuffle",
        "quotient_J_project",
        "structure_constants",
        "supp",
        "tensor_convert",
        "transition_matrix",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
