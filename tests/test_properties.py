"""Property tests for the integer conversion and product routes and for
the matroid invariant.

Every test runs under one fixed profile: derandomized, with no example
database and no deadline, so the suite draws the same examples on every
run and machine.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from _matroid_oracle import (
    basis_type_counts_by_subsets,
    qsym_of_matroid_by_extensions,
    qsym_of_matroid_by_flags,
)
from _qsym_oracle import TERMWISE, expand_termwise, nbasis_by_peel
from nqsym import matroids, qsym
from nqsym.elements import QSymElement

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

coefficients = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 7))
)


def compositions_up_to(max_degree):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.sampled_from(qsym.ordered_compositions(n))
    )


@st.composite
def elements(draw, bases="MLN", max_degree=6, max_terms=5, scalar=True):
    """A mixed-degree element with fractional coefficients, with or without
    a scalar part."""
    terms = draw(
        st.lists(
            st.tuples(compositions_up_to(max_degree), coefficients),
            min_size=1,
            max_size=max_terms,
        )
    )
    if scalar:
        terms.append(((), draw(coefficients)))
    return QSymElement(draw(st.sampled_from(bases)), terms)


@FIXED
@given(elements())
def test_convert_round_trips_through_every_basis(q):
    assert QSymElement.from_json(q.to_json()) == q
    for first in "MLN":
        there = qsym.convert(q, first)
        assert qsym.convert(there, q.basis) == q
        for second in "MLN":
            assert qsym.convert(there, second) == qsym.convert(q, second)


@FIXED
@given(elements(bases="N", max_degree=4, max_terms=3), elements(bases="N", max_degree=4, max_terms=3))
def test_nbasis_product_equals_mul(a, b):
    product = qsym.nbasis_product(a, b)
    assert product.basis == "N"
    assert qsym.convert(product, "M") == qsym.mul(a, b)


@FIXED
@given(elements(scalar=False) | elements())
def test_termwise_conversions_match_fraction_oracle(q):
    for (source, target), table in TERMWISE.items():
        x = qsym.convert(q, source)
        assert qsym.convert(x, target) == expand_termwise(x, table, target)


@st.composite
def dense_fundamental_elements(draw, max_degree=10):
    """An L element of one degree with a coefficient, possibly zero, on
    every composition of that degree."""
    n = draw(st.integers(1, max_degree))
    comps = qsym.ordered_compositions(n)
    values = draw(st.lists(coefficients | st.just(0), min_size=len(comps), max_size=len(comps)))
    return QSymElement("L", zip(comps, values))


@FIXED
@given(dense_fundamental_elements())
def test_division_matches_pivot_peel(q):
    if q:
        assert qsym.convert(q, "N") == nbasis_by_peel(q)


@st.composite
def basis_shapes(draw, max_rank=6, max_cobase=6):
    """A rank and the partner masks of up to max_cobase cobase elements; a
    mask may be empty, which makes its element released from the start."""
    rank = draw(st.integers(1, max_rank))
    partners = draw(st.lists(st.integers(0, (1 << rank) - 1), max_size=max_cobase))
    return rank, partners


@FIXED
@given(basis_shapes())
def test_basis_type_counts_match_subset_enumeration(shape):
    rank, partners = shape
    assert matroids._basis_type_counts(rank, partners) == basis_type_counts_by_subsets(
        rank, partners
    )


@FIXED
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 4),
    st.booleans(),
    st.booleans(),
)
def test_invariant_matches_flag_and_extension_definitions(
    seed, n, loops, coloops, summand, dual, relabel
):
    # the sampler draws r from 1..n-1 and the dual turns r into n - r, so
    # about half the components are interleaved on their dual side; a second
    # sampled summand, kept to a total n <= 8 for the flag oracle, makes a
    # product of two components; the no-switch route and both definitions
    # never switch or multiply components
    rng = random.Random(seed)
    m = matroids.sample_loopless_matroid(rng, n)
    if dual:
        m = m.dual()
    summand = min(summand, 8 - n - loops - coloops)
    if summand > 0:
        m = m.direct_sum(matroids.sample_loopless_matroid(rng, summand))
    for _ in range(loops):
        m = m.direct_sum(matroids.uniform(0, 1))
    for _ in range(coloops):
        m = m.direct_sum(matroids.uniform(1, 1))
    if relabel:
        perm = list(range(m.n))
        rng.shuffle(perm)
        m = matroids.Matroid.from_masks(
            m.n, [sum(1 << perm[i] for i in range(m.n) if b >> i & 1) for b in m._masks]
        )
    f = matroids.qsym_of_matroid(m)
    assert f == matroids._qsym_by_interleaving(m)
    assert f == qsym_of_matroid_by_flags(m)
    assert f == qsym_of_matroid_by_extensions(m)
