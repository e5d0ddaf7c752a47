import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from irrbase.affine import AffineParams, build_affine_group
from irrbase.perm import (
    Domain,
    DomainMismatchError,
    PermGroup,
    SchreierTree,
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
from irrbase.realize import GroupSpec, estimate_order, instantiate, witness_spec
from irrbase.verify import random_small_groups


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


def _chain_levels(chain):
    return [
        (lvl.root, lvl.orbit, lvl.sv.tolist(), lvl.depth.tolist(),
         [g.image.tolist() for g in lvl.gens], [[a.tolist() for a in e] for e in lvl.edges])
        for lvl in chain.levels
    ]


AGAMMAL2 = {f: GroupSpec("affine", (("d", 2), ("f", f), ("p", 2)), True, "vectors", ()) for f in (2, 3)}


@pytest.mark.parametrize(
    "spec",
    [witness_spec(5, 5), witness_spec(2, 3), witness_spec(2, 4), AGAMMAL2[2], AGAMMAL2[3]],
    ids=["sym6", "sz8-pairs", "sz8x3-pairs", "agammal2-4", "agammal2-8"],
)
def test_certified_root_chain_equals_unhinted(spec):
    group, _ = instantiate(spec)
    assert group.order_bound == estimate_order(spec)
    unhinted = StabChain.build(group.domain, group.generators)
    assert group.order == unhinted.order == estimate_order(spec)
    assert _chain_levels(group.chain) == _chain_levels(unhinted)


def test_loose_or_unreached_order_bound_gives_exact_order():
    d = integers(8)
    two_group = PermGroup(d, [d.perm_from_cycles([0, 1]), d.perm_from_cycles([0, 2], [1, 3]),
                              d.perm_from_cycles([0, 4], [1, 5], [2, 6], [3, 7])])
    groups = [instantiate(AGAMMAL2[2])[0], two_group]
    groups += [g for _, g in random_small_groups(20, seed=29, max_points=9, max_order=None)]
    for G in groups:
        exact = StabChain.build(G.domain, G.generators)
        for bound in (exact.order + 1, 2 * exact.order, 3 * exact.order):
            loose = PermGroup(G.domain, G.generators, order_bound=bound)
            assert _chain_levels(loose.chain) == _chain_levels(exact), bound
    # a proper subgroup (the unextended AGL_2(4)) under the ambient bound
    plain = build_affine_group(AffineParams(d=2, p=2, f=2), extended=False).group
    sub = PermGroup(plain.domain, plain.generators, order_bound=estimate_order(AGAMMAL2[2]))
    assert sub.order == StabChain.build(plain.domain, plain.generators).order == 5760 // 2


def test_certified_root_chain_sift_count(monkeypatch):
    # the Sz(8) pair action reaches its ambient order before any sift
    # (the unhinted run sifts 8,348 Schreier generators)
    group, _ = instantiate(witness_spec(2, 3))
    calls = []
    sift = StabChain.sift
    monkeypatch.setattr(StabChain, "sift", lambda self, *a: calls.append(1) or sift(self, *a))
    assert group.order == 29120
    assert len(calls) == 0


def test_elements_match_product_walk_oracle():
    d = integers(8)
    groups = [
        symmetric_natural(5),
        PermGroup(d, [d.perm_from_cycles([0, 1]), d.perm_from_cycles([0, 2], [1, 3]),
                      d.perm_from_cycles([0, 4], [1, 5], [2, 6], [3, 7])]),
        build_affine_group(AffineParams(d=1, p=2, f=3), extended=True).group,
    ]
    rng = np.random.RandomState(3)
    groups += [PermGroup(d, [d.perm(rng.permutation(8)) for _ in range(2)]) for _ in range(10)]
    for G in groups:
        if G.order > 5000:
            continue
        n = G.domain.size
        reps = [[tuple(lvl.image(p).tolist()) for p in lvl.orbit] for lvl in G.chain.levels]
        walk = oracles.transversal_products(reps, n)
        assert [tuple(e.image.tolist()) for e in G.elements()] == walk
        assert G.element_images().tolist() == [list(t) for t in walk]
        assert set(walk) == oracles.mulclose([tuple(g.image.tolist()) for g in G.generators], n)


def _tree_state(tree):
    return tree.sv.tolist(), tree.depth.tolist(), list(tree.orbit)


def test_grow_matches_queue_bfs_oracle():
    rng = np.random.RandomState(17)
    for trial in range(60):
        n = int(rng.randint(2, 40))
        d = integers(n)
        gens = [d.perm(rng.permutation(n)) for _ in range(int(rng.randint(1, 5)))]
        root = int(rng.randint(n))
        edges = [(g.image, g.inverse().image) for g in gens]
        plain = [tuple(tuple(a.tolist()) for a in e) for e in edges]
        # partial extend: the first edges, then the rest over the old orbit
        # and then over the points found, as _Level.extend runs it
        split = int(rng.randint(1, len(edges) + 1))
        tree = SchreierTree(d, root, edges[:split])
        sv, depth, orb = [-2] * n, [0] * n, [root]
        sv[root] = -1
        assert tree.grow() == oracles.queue_bfs(plain[:split], sv, depth, orb)
        assert _tree_state(tree) == (sv, depth, orb)
        old_len = len(tree)
        tree.edges.extend(edges[split:])
        assert tree.grow(0, split) == oracles.queue_bfs(plain, sv, depth, orb, 0, split)
        assert tree.grow(old_len) == oracles.queue_bfs(plain, sv, depth, orb, old_len)
        assert _tree_state(tree) == (sv, depth, orb)
        # a depth limit stops at the first point found deeper than it
        limit = int(rng.randint(0, 4))
        tree.reset()
        sv, depth, orb = [-2] * n, [0] * n, [root]
        sv[root] = -1
        assert tree.grow(limit=limit) == oracles.queue_bfs(plain, sv, depth, orb, limit=limit)
        assert _tree_state(tree) == (sv, depth, orb)


def test_inverse_leaves_no_reference_cycle():
    d = integers(6)
    gc.disable()
    try:
        p = d.perm([1, 2, 0, 4, 5, 3])
        inv = p.inverse()
        image = weakref.ref(p.image)  # the array only p holds
        del p
        assert image() is None  # freed by reference counting alone
        assert inv.image.tolist() == [2, 0, 1, 5, 3, 4]
    finally:
        gc.enable()


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
