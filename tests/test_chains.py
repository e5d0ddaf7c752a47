import pytest
from hypothesis import given, settings, strategies as st

import oracles
from irrbase.chains import (
    BaseSequence,
    achievable_lengths,
    chain_report,
    exhaustive_lengths,
    is_irredundant_base,
    max_irredundant_length,
    min_base_length,
)
from irrbase.perm import PermGroup, integers, symmetric_natural
from irrbase.verify import random_small_groups, structured_small_groups


def cyclic(n):
    d = integers(n)
    return PermGroup(d, [d.perm_from_cycles(list(range(n)))])


# -- chain reports ----------------------------------------------------------------

def test_empty_sequence_chain():
    S4 = symmetric_natural(4)
    rep = chain_report(S4, BaseSequence(S4.domain, ()))
    assert rep.orders == (24,)
    assert not rep.terminal_trivial


def test_sym3_base_sequences():
    S3 = symmetric_natural(3)
    assert is_irredundant_base(S3, BaseSequence(S3.domain, (0, 1)))
    rep = chain_report(S3, BaseSequence(S3.domain, (0, 1, 2)))
    assert rep.orders == (6, 2, 1, 1)
    assert not rep.is_irredundant_base  # last inclusion not strict


def test_repeated_point_not_strict():
    S4 = symmetric_natural(4)
    rep = chain_report(S4, BaseSequence(S4.domain, (1, 1)))
    assert rep.orders == (24, 6, 6)
    assert rep.strict_flags == (True, False)


def test_orders_divide_predecessors():
    for _, g in structured_small_groups():
        n = g.domain.size
        seq = BaseSequence(g.domain, tuple(range(min(3, n))))
        rep = chain_report(g, seq)
        for big, small in zip(rep.orders, rep.orders[1:]):
            assert big % small == 0


def test_sequence_outside_domain_rejected():
    S3 = symmetric_natural(3)
    with pytest.raises(ValueError):
        BaseSequence(S3.domain, (0, 5))


# -- the three searches on known groups ------------------------------------------------

def test_trivial_group_conventions():
    T = PermGroup(integers(4), [])
    assert min_base_length(T) == (0, BaseSequence(T.domain, ()))
    n, wit = max_irredundant_length(T)
    assert n == 0 and wit.points == ()
    report = achievable_lengths(T)
    assert report.lengths == frozenset({0})
    assert report.is_interval


def test_regular_cyclic_group():
    C5 = cyclic(5)
    assert min_base_length(C5)[0] == 1
    assert max_irredundant_length(C5)[0] == 1
    assert achievable_lengths(C5).lengths == frozenset({1})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_symmetric_natural_interval(n):
    S = symmetric_natural(n)
    report = achievable_lengths(S)
    assert report.lengths == frozenset({n - 1})
    assert min_base_length(S)[0] == n - 1
    assert max_irredundant_length(S)[0] == n - 1


def test_symmetric_eight_uses_chain_backed_nodes():
    # order 40320 exceeds the dense-matrix threshold at the first two levels
    S = symmetric_natural(8)
    report = achievable_lengths(S)
    assert report.lengths == frozenset({7})
    assert report.witnesses[7].points == (0, 1, 2, 3, 4, 5, 6)


def test_witnesses_revalidate():
    for name, g in structured_small_groups():
        report = achievable_lengths(g)
        for length, wit in report.witnesses.items():
            assert len(wit) == length, name
            if length:
                assert is_irredundant_base(g, wit), name
        b, bw = min_base_length(g)
        assert b == report.min_length and len(bw) == b
        i, iw = max_irredundant_length(g)
        assert i == report.max_length and len(iw) == i
        if i:
            assert is_irredundant_base(g, iw), name


def test_each_strict_step_at_least_halves():
    for name, g in structured_small_groups():
        report = achievable_lengths(g)
        for length in report.lengths:
            assert 2**length <= max(g.order, 1), name


def test_min_max_consistent_with_lengths():
    for name, g in random_small_groups(12, seed=99, max_points=8, max_order=None):
        report = achievable_lengths(g)
        assert report.min_length == min(report.lengths)
        assert report.max_length == max(report.lengths)
        assert report.min_length == min_base_length(g)[0]
        assert report.max_length == max_irredundant_length(g)[0]


def test_cut_searches_return_the_full_traversal_witnesses():
    # min_base_length and max_irredundant_length prune the traversal that
    # achievable_lengths runs uncut; a sound cut keeps its first witness
    groups = structured_small_groups() + random_small_groups(40, seed=7)
    for name, g in groups:
        report = achievable_lengths(g)
        assert min_base_length(g) == (report.min_length, report.witnesses[report.min_length]), name
        assert max_irredundant_length(g) == (report.max_length, report.witnesses[report.max_length]), name


# -- pruned search vs exhaustive oracle ---------------------------------------------

def test_pruned_search_matches_oracle_structured():
    for name, g in structured_small_groups():
        closure = oracles.mulclose(
            [tuple(p.image.tolist()) for p in g.generators], g.domain.size
        )
        expected = oracles.exhaustive_lengths(closure, g.domain.size)
        got = achievable_lengths(g).lengths
        assert got == frozenset(expected), name


def test_internal_exhaustive_matches_independent_oracle():
    for name, g in structured_small_groups()[:8]:
        closure = oracles.mulclose(
            [tuple(p.image.tolist()) for p in g.generators], g.domain.size
        )
        assert exhaustive_lengths(g) == frozenset(
            oracles.exhaustive_lengths(closure, g.domain.size)
        ), name


# -- interval property (hypothesis) ---------------------------------------------------

@st.composite
def small_group(draw):
    n = draw(st.integers(4, 7))
    k = draw(st.integers(1, 3))
    d = integers(n)
    gens = [d.perm(draw(st.permutations(list(range(n))))) for _ in range(k)]
    return PermGroup(d, gens)


@given(small_group())
@settings(max_examples=60)
def test_interval_property_hypothesis(group):
    report = achievable_lengths(group)
    assert report.is_interval
    assert report.lengths == frozenset(
        range(report.min_length, report.max_length + 1)
    )


@given(small_group())
@settings(max_examples=25)
def test_search_matches_oracle_hypothesis(group):
    closure = oracles.mulclose(
        [tuple(p.image.tolist()) for p in group.generators], group.domain.size
    )
    if len(closure) > 2500:
        return
    expected = oracles.exhaustive_lengths(closure, group.domain.size)
    assert achievable_lengths(group).lengths == frozenset(expected)
