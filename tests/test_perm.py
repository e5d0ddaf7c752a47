import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from irrbase.perm import (
    Domain,
    DomainMismatchError,
    PermGroup,
    StabChain,
    induced_pair_action,
    integers,
    is_primitive,
    minimal_block,
    orbit,
    orbit_partition,
    pair_domain,
    symmetric_natural,
)


def random_perm_strategy(n):
    return st.permutations(list(range(n)))


# -- basic permutation algebra -------------------------------------------------

def test_compose_hand_oracle_three_points():
    d = integers(3)
    swap = d.perm_from_cycles([0, 1])
    cyc = d.perm_from_cycles([0, 1, 2])
    composed = swap * cyc  # apply swap then cyc
    assert [composed(i) for i in range(3)] == [2, 1, 0]


def test_identity_and_inverse():
    d = integers(5)
    p = d.perm_from_cycles([0, 3, 2])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert d.identity()(4) == 4


def test_domain_mismatch():
    p = integers(4).identity()
    q = integers(4).identity()
    with pytest.raises(DomainMismatchError):
        p * q


def test_bad_image_rejected():
    d = integers(3)
    with pytest.raises(ValueError):
        d.perm([0, 0, 1])


@given(random_perm_strategy(10), random_perm_strategy(10))
def test_compose_matches_oracle(pi, qi):
    d = integers(10)
    p, q = d.perm(pi), d.perm(qi)
    assert tuple((p * q).image.tolist()) == oracles.compose(tuple(pi), tuple(qi))


@given(random_perm_strategy(9))
def test_inverse_matches_oracle(pi):
    d = integers(9)
    assert tuple(d.perm(pi).inverse().image.tolist()) == oracles.inverse(tuple(pi))


# -- orbits ---------------------------------------------------------------------

def test_orbit_identity_generators():
    d = integers(6)
    ot = orbit([d.identity()], 2)
    assert ot.orbit == [2]


def test_orbit_cycle_transitive():
    d = integers(5)
    c = d.perm_from_cycles([0, 1, 2, 3, 4])
    ot = orbit([c], 0)
    assert sorted(ot.orbit) == [0, 1, 2, 3, 4]
    for pt in ot.orbit:
        u = ot.image(pt)
        assert u[0] == pt


def test_orbit_partition_covers_domain():
    d = integers(7)
    g = d.perm_from_cycles([0, 1], [3, 4, 5])
    parts = orbit_partition([g], 7)
    assert sorted(sum(parts, [])) == list(range(7))
    assert [0, 1] in parts and [3, 4, 5] in parts and [2] in parts


# -- BSGS ----------------------------------------------------------------------

def test_bsgs_sym3():
    d = integers(3)
    G = PermGroup(d, [d.perm_from_cycles([0, 1]), d.perm_from_cycles([0, 1, 2])])
    assert G.order == 6


def test_bsgs_empty_generators():
    G = PermGroup(integers(4), [])
    assert G.order == 1
    assert [p.is_identity() for p in G.elements()] == [True]


def test_bsgs_order_is_product_of_orbit_lengths():
    G = symmetric_natural(6)
    chain = G.chain
    prod = 1
    for lvl in chain.levels:
        prod *= len(lvl.orbit)
    assert prod == G.order == 720


def test_bsgs_shuffled_generators_same_order():
    d = integers(7)
    gens = [d.perm_from_cycles([0, 1, 2]), d.perm_from_cycles([2, 3], [4, 5, 6]), d.perm_from_cycles([0, 6])]
    ref = PermGroup(d, gens).order
    for rotation in range(1, 3):
        rotated = gens[rotation:] + gens[:rotation]
        assert PermGroup(d, rotated).order == ref


def test_membership_vs_closure_small_groups():
    rng = np.random.RandomState(11)
    for _ in range(25):
        n = int(rng.randint(4, 8))
        d = integers(n)
        gens = [d.perm(rng.permutation(n)) for _ in range(int(rng.randint(1, 3)))]
        G = PermGroup(d, gens)
        closure = oracles.mulclose([tuple(g.image.tolist()) for g in G.generators], n)
        if len(closure) > 5000:
            continue
        assert G.order == len(closure)
        for t in list(closure)[:20]:
            assert d.perm(t) in G
        for _ in range(5):
            t = tuple(rng.permutation(n).tolist())
            assert (d.perm(t) in G) == (t in closure)


def test_pointwise_stabilizer_examples():
    S4 = symmetric_natural(4)
    assert S4.pointwise_stabilizer([]).order == 24
    assert S4.pointwise_stabilizer([0, 1, 2]).order == 1
    S5 = symmetric_natural(5)
    H = S5.pointwise_stabilizer([4])
    assert H.order == 24
    assert all(g.image[4] == 4 for g in H.generators)


def test_pointwise_stabilizer_vs_brute_force():
    rng = np.random.RandomState(5)
    for _ in range(15):
        n = int(rng.randint(4, 8))
        d = integers(n)
        gens = [d.perm(rng.permutation(n)) for _ in range(2)]
        G = PermGroup(d, gens)
        closure = oracles.mulclose([tuple(g.image.tolist()) for g in G.generators], n)
        pts = [int(rng.randint(n)) for _ in range(2)]
        H = G.pointwise_stabilizer(pts)
        brute = [t for t in closure if all(t[p] == p for p in pts)]
        assert H.order == len(brute)


def test_deep_two_group_chain_vs_brute_force():
    # the iterated wreath product (a Sylow 2-subgroup of Sym(8)): order 2^7,
    # seven chain levels; stresses multi-level strong-generator insertion
    d = integers(8)
    gens = [
        d.perm_from_cycles([0, 1]),
        d.perm_from_cycles([0, 2], [1, 3]),
        d.perm_from_cycles([0, 4], [1, 5], [2, 6], [3, 7]),
    ]
    G = PermGroup(d, gens)
    closure = oracles.mulclose([tuple(g.image.tolist()) for g in gens], 8)
    assert G.order == len(closure) == 128
    for pts in [(0,), (7, 0), (3, 5, 1), (0, 1, 2, 3)]:
        H = G.pointwise_stabilizer(list(pts))
        brute = [t for t in closure if all(t[p] == p for p in pts)]
        assert H.order == len(brute), pts
    chain = StabChain.build(d, gens, base_prefix=(6, 2, 0))
    assert chain.base[:3] == [6, 2, 0]
    assert chain.order == 128
    assert chain.suffix(1).order == len([t for t in closure if t[6] == 6])
    assert chain.suffix(3).order == len(
        [t for t in closure if t[6] == 6 and t[2] == 2 and t[0] == 0]
    )


def test_prescribed_base_prefix_kept():
    S5 = symmetric_natural(5)
    chain = StabChain.build(S5.domain, list(S5.generators), base_prefix=(3, 0))
    assert chain.base[:2] == [3, 0]
    assert chain.order == 120
    assert chain.suffix(1).order == 24
    assert chain.suffix(2).order == 6


def test_element_enumeration_unique():
    d = integers(4)
    A4 = PermGroup(d, [d.perm_from_cycles([0, 1, 2]), d.perm_from_cycles([1, 2, 3])])
    els = list(A4.elements())
    assert len(els) == 12
    assert len(set(els)) == 12
    for e in els:
        assert e in A4


# -- induced pair action ----------------------------------------------------------

def test_pair_action_three_points():
    d = integers(3)
    pd = pair_domain(d)
    swap = d.perm_from_cycles([0, 1])
    ind = induced_pair_action(swap, pd)
    # pairs in lex order: {0,1}=0, {0,2}=1, {1,2}=2
    assert ind(0) == 0 and ind(1) == 2 and ind(2) == 1
    assert induced_pair_action(d.identity(), pd).is_identity()


def test_pair_action_wrong_domain():
    d = integers(3)
    other = integers(3)
    pd = pair_domain(d)
    with pytest.raises(DomainMismatchError):
        induced_pair_action(other.identity(), pd)


def test_pair_index_lex_order():
    d = integers(5)
    pd = pair_domain(d)
    expected = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for k, (i, j) in enumerate(expected):
        assert pd.pair_index(i, j) == k
        assert pd.pair_index(j, i) == k
        assert pd.labels[k] == (i, j)


@given(random_perm_strategy(9), random_perm_strategy(9))
def test_pair_action_is_homomorphism(pi, qi):
    d = integers(9)
    pd = pair_domain(d)
    p, q = d.perm(pi), d.perm(qi)
    assert induced_pair_action(p * q, pd) == induced_pair_action(p, pd) * induced_pair_action(q, pd)


@given(random_perm_strategy(6))
def test_pair_action_injective(pi):
    d = integers(6)
    pd = pair_domain(d)
    p = d.perm(pi)
    if not p.is_identity():
        assert not induced_pair_action(p, pd).is_identity()


def test_pair_action_homomorphism_on_ovoid_pairs(sz8_delta, sz8_pairs):
    rng = np.random.RandomState(3)
    delta = sz8_delta.ovoid.domain
    for _ in range(8):
        p = delta.perm(rng.permutation(65))
        q = delta.perm(rng.permutation(65))
        lhs = induced_pair_action(p * q, sz8_pairs.domain)
        rhs = induced_pair_action(p, sz8_pairs.domain) * induced_pair_action(q, sz8_pairs.domain)
        assert lhs == rhs


# -- blocks / primitivity ------------------------------------------------------------

def test_minimal_block_c4():
    d = integers(4)
    C4 = PermGroup(d, [d.perm_from_cycles([0, 1, 2, 3])])
    assert minimal_block(C4, 0, 2) == [[0, 2], [1, 3]]
    assert minimal_block(C4, 0, 1) == [[0, 1, 2, 3]]


def test_primitivity_examples():
    assert is_primitive(symmetric_natural(5))
    d = integers(4)
    C4 = PermGroup(d, [d.perm_from_cycles([0, 1, 2, 3])])
    assert not is_primitive(C4)
    d6 = integers(6)
    D6 = PermGroup(d6, [d6.perm_from_cycles([0, 1, 2, 3, 4, 5]), d6.perm_from_cycles([1, 5], [2, 4])])
    assert not is_primitive(D6)
    # intransitive groups are not primitive
    d5 = integers(5)
    G = PermGroup(d5, [d5.perm_from_cycles([0, 1])])
    assert not is_primitive(G)
