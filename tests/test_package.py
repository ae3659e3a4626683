import importlib
import inspect
import json

import pytest

import nqsym
from nqsym import matroids, qsym

# every exported name; the brute-force oracles that only the tests use
# live under tests/ and are not exported
EXPORTED = [
    "GeomDecomposition", "LabeledPoset", "Matroid", "NQSymError", "NotDivisibleError",
    "QSymElement", "RankTwoClass", "RankTwoRecovery", "ResourceLimitError",
    "SplitCertificate", "SplitResult", "T_vec", "TensorElement", "U_vec", "Ubar_vec",
    "ValidationError", "antichain", "as_composition", "as_ordered_partition",
    "as_permutation", "as_set_partition", "base_poset", "binary_word", "build_P_K",
    "build_P_alpha", "chain", "composition_to_subset", "convert", "coproduct_monomial",
    "decompose_by", "divide_by_pure_power", "duality_check", "fibre", "format_element",
    "full_split_to_length3", "fundamental_element", "geom_decompose",
    "hilbert_basis_check", "in_Vnr", "induced_partition_by_set_partition",
    "is_alternating", "is_antichain_inducing", "labeling_kind", "linear_extensions",
    "loops_coloops_from_qsym", "mod_m2", "monomial_element", "mul", "mul_nbasis",
    "n_basis_element", "nbasis_product", "nl_unitriangular_matrix", "ordinal_sum",
    "partition_type", "partitions", "polytope_dim", "polytope_edge", "qsym_of_matroid",
    "qsym_of_poset", "quasi_shuffle", "quotient_J_project", "rank",
    "rank2_from_partition", "rank2_matroid_from_blocks", "rank2_qsym", "recover_rank2",
    "recover_rank2_modm2", "refines", "reversal", "rho", "runs",
    "sample_loopless_matroid", "segment", "split", "structure_constants",
    "subset_to_composition", "supp", "tensor_convert", "transition_matrix",
    "u_coordinates", "ubar_coordinates_of_partition", "uniform",
    "verify_polytope_decomposition", "weight",
]


def test_lazy_exports_resolve_to_their_module_objects():
    assert len(EXPORTED) == 84
    assert sorted(nqsym.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(nqsym))
    for name in EXPORTED:
        module = importlib.import_module(f"nqsym.{nqsym._MODULE_OF[name]}")
        assert getattr(nqsym, name) is getattr(module, name), name
    assert nqsym.__version__ == "0.1.0"


def test_oracle_routes_and_selectors_stay_out_of_the_package():
    # the brute-force oracles live under tests/, and each quantity has one
    # production path with no switch selecting another
    from nqsym import compositions, posets, verify

    for module, name in [
        (compositions, "binary_word_cmp"),
        (compositions, "induced_partition_by_type"),
        (posets, "disjoint_sum_relabeled"),
        (posets, "induced_ordered_partitions"),
        (posets, "nbasis_product_poset"),
        (matroids.Matroid, "circuits"),
        (matroids.Matroid, "independent_masks"),
        (matroids.Matroid, "is_connected"),
        (qsym, "nbasis_in_monomial"),
    ]:
        assert not hasattr(module, name), name
    for function, params in [
        (matroids.exchange_valid, ["base_masks"]),
        (matroids.qsym_of_matroid, ["matroid"]),
        (matroids.duality_check, ["matroid"]),
        (matroids.sample_loopless_matroid, ["rng", "n"]),
        (posets.qsym_of_poset, ["poset"]),
        (posets.decompose_by, ["poset", "set_partition"]),
        (posets.is_antichain_inducing, ["poset", "set_partition"]),
        (verify.check_splits, ["max_n", "seed"]),
        (qsym.nl_unitriangular_matrix, ["n"]),
        (posets.alternating_antichain_labels, ["comp"]),
    ]:
        assert list(inspect.signature(function).parameters) == params


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        nqsym.no_such_name
    with pytest.raises(ImportError):
        from nqsym import no_such_name  # noqa: F401


def _records():
    """One instance of each record type with its repr and its sorted-key
    to_json text, both as the frozen dataclasses printed them."""
    classes = (
        "parent=RankTwoClass(lam=(2, 1, 1), blocks=(frozenset({1, 2}), frozenset({3}), "
        "frozenset({4}))), child_le=RankTwoClass(lam=(2, 1, 1), blocks=(frozenset({1, 2}), "
        "frozenset({3}), frozenset({4}))), child_ge=RankTwoClass(lam=(2, 2), "
        "blocks=(frozenset({1, 2}), frozenset({3, 4})))"
    )
    certificate = f"SplitCertificate(subset=frozenset({{1, 2}}), {classes})"
    certificate_json = (
        '{"S": [1, 2], "children": [{"blocks": [[1, 2], [3], [4]], "lambda": [2, 1, 1]}, '
        '{"blocks": [[1, 2], [3, 4]], "lambda": [2, 2]}], '
        '"parent": {"blocks": [[1, 2], [3], [4]], "lambda": [2, 1, 1]}}'
    )
    singletons = (
        "RankTwoClass(lam=(1, 1, 1), blocks=(frozenset({1}), frozenset({2}), frozenset({3})))"
    )
    singletons_json = '{"blocks": [[1], [2], [3]], "lambda": [1, 1, 1]}'
    split = matroids.split((2, 1, 1), 1)
    return [
        (
            matroids.RankTwoClass((2, 1)),
            "RankTwoClass(lam=(2, 1), blocks=None)",
            '{"lambda": [2, 1]}',
        ),
        (split.certificate, certificate, certificate_json),
        (
            split,
            f"SplitResult(alpha=(2, 1, 1), beta=(2, 2), mu=(2, 2), certificate={certificate})",
            '{"alpha": [2, 1, 1], "beta": [2, 2], '
            f'"certificate": {certificate_json}, "mu": [2, 2]}}',
        ),
        (
            matroids.recover_rank2(matroids.rank2_qsym((3, 2, 1))),
            "RankTwoRecovery(n=6, loops=0, coloops=0, lam=(3, 2, 1), case='no-coloops')",
            '{"case": "no-coloops", "coloops": 0, "lambda": [3, 2, 1], "loops": 0, "n": 6}',
        ),
        (
            matroids.geom_decompose((1, 1, 1), [(1, 1, 1)]),
            f"GeomDecomposition(root={singletons}, representatives=({singletons},), "
            "splits=(), verified=True)",
            f'{{"representatives": [{singletons_json}], "root": {singletons_json}, '
            '"splits": [], "verified": true}',
        ),
        (
            qsym.transition_matrix(2, "N", "M"),
            "TransitionMatrix(n=2, source='N', target='M', order=((2,), (1, 1)), "
            "rows=((1, 2), (0, 1)))",
            None,
        ),
    ]


def test_records_keep_repr_json_and_immutability():
    for record, expected_repr, expected_json in _records():
        assert repr(record) == expected_repr
        if expected_json is not None:
            assert json.dumps(record.to_json(), sort_keys=True) == expected_json
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
    matrix = qsym.transition_matrix(2, "N", "M")
    assert matrix.entry((2,), (1, 1)) == 2 and matrix.as_lists() == [[1, 2], [0, 1]]
