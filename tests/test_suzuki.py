import numpy as np
import pytest

import oracles
from irrbase.chains import BaseSequence, chain_report, is_irredundant_base
from irrbase.gf import subfield_generator
from irrbase.perm import PermGroup, induced_pair_action, integers, is_primitive, orbit
from irrbase.suzuki import (
    INFINITY,
    ConstructionError,
    SuzukiParams,
    build_ovoid,
    build_suzuki_group,
    witness_base_indices,
    witness_points,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SuzukiParams(m=0)
    p = SuzukiParams(m=2)
    assert p.f == 5 and p.q == 32


def test_ovoid_size_q8(sz8_delta):
    assert sz8_delta.domain.size == 65
    assert sz8_delta.domain.labels[0] == INFINITY


def test_ovoid_membership_examples(sz8_delta):
    ov = sz8_delta.ovoid
    assert ov.point_label(0, 0) == (0, 0, 0)
    assert ov.point_label(1, 0) == (1, 0, 1)
    assert ov.point_label(0, 1) == (0, 1, 1)
    assert ov.point_label(1, 1) == (1, 1, 1)


def test_ovoid_unique_h3_zero_point(sz8_delta):
    finite = sz8_delta.ovoid.domain.labels[1:]
    zeros = [lab for lab in finite if lab[2] == 0]
    assert zeros == [(0, 0, 0)]


def test_ovoid_equation_holds_everywhere(sz8_delta):
    ov = sz8_delta.ovoid
    fld = ov.field
    for h1, h2, h3 in ov.domain.labels[1:]:
        s1 = fld.frobenius_enc(h1, 2)
        expect = fld.mul_enc(h1, h2) ^ fld.mul_enc(s1, fld.mul_enc(h1, h1)) ^ fld.frobenius_enc(h2, 2)
        assert h3 == expect


def test_ovoid_size_q32():
    ov = build_ovoid(SuzukiParams(m=2))
    assert ov.domain.size == 32 * 32 + 1


def test_translation_identity_and_example(sz8_delta):
    ov = sz8_delta.ovoid
    assert ov.translation(0, 0).is_identity()
    t10 = ov.translation(1, 0)
    assert t10(0) == 0  # fixes infinity
    assert ov.domain.labels[t10(ov.point_index(0, 0))] == (1, 0, 1)


def all_translations(ov):
    q = ov.params.q
    return [ov.translation(a, b) for a in range(q) for b in range(q)]


def all_diagonals(ov):
    return [ov.diagonal(c) for c in range(1, ov.params.q)]


def element_order(p):
    k, cur = 1, p
    while not cur.is_identity():
        cur = cur * p
        k += 1
    return k


def test_all_generators_preserve_ovoid_q8(sz8_delta):
    # construction itself verifies every image point; reaching here means
    # all 64 translations, 7 scalings, the involution and the Frobenius
    # permutation all passed the ovoid checks
    ov = sz8_delta.ovoid
    perms = all_translations(ov) + all_diagonals(ov) + [ov.involution(), ov.frobenius_perm(1)]
    assert len(perms) == 64 + 7 + 2


def test_generators_preserve_ovoid_q32_sampled():
    ov = build_ovoid(SuzukiParams(m=2))
    rng = np.random.RandomState(17)
    for _ in range(6):
        a, b = int(rng.randint(32)), int(rng.randint(32))
        ov.translation(a, b)  # raises ConstructionError on any violation
    ov.diagonal(int(rng.randint(1, 32)))
    ov.involution()
    ov.frobenius_perm(1)


def test_translation_family_is_subgroup(sz8_delta):
    ov = sz8_delta.ovoid
    family = {}
    for a in range(8):
        for b in range(8):
            family[ov.translation(a, b)] = (a, b)
    assert len(family) == 64
    for p in family:
        for q in family:
            assert p * q in family


def test_diagonal_family(sz8_delta):
    ov = sz8_delta.ovoid
    fld = ov.field
    assert ov.diagonal(1).is_identity()
    for c in range(1, 8):
        for d in range(1, 8):
            assert ov.diagonal(c) * ov.diagonal(d) == ov.diagonal(fld.mul_enc(c, d))
    zero_idx = ov.point_index(0, 0)
    for c in range(2, 8):
        g = ov.diagonal(c)
        assert g(zero_idx) == zero_idx and g(0) == 0
    with pytest.raises(ValueError):
        ov.diagonal(0)
    D = PermGroup(ov.domain, [ov.diagonal(2)])
    assert D.order == 7  # cyclic of order q-1


def test_involution_properties(sz8_delta):
    ov = sz8_delta.ovoid
    w = ov.involution()
    assert (w * w).is_identity()
    zero_idx = ov.point_index(0, 0)
    assert w(0) == zero_idx and w(zero_idx) == 0
    fixed_111 = ov.point_index(1, 1)
    assert w(fixed_111) == fixed_111


def test_involution_inverts_diagonals(sz8_delta):
    # w n w = n^{-1}: the two-point stabilizer <n, w> is dihedral
    ov = sz8_delta.ovoid
    w = ov.involution()
    for c in range(2, 8):
        n = ov.diagonal(c)
        assert w * n * w == n.inverse()


def test_frobenius_perm_properties(sz8_delta):
    ov = sz8_delta.ovoid
    fr = ov.frobenius_perm(1)
    assert ov.frobenius_perm(0).is_identity()
    for lab in [INFINITY, (0, 0, 0), (1, 1, 1)]:
        idx = ov.domain.index_of(lab)
        assert fr(idx) == idx
    assert (fr * fr * fr).is_identity()  # order divides f = 3


def test_frobenius_normalizes_group(sz8_delta):
    ov = sz8_delta.ovoid
    fr = ov.frobenius_perm(1)
    fr_inv = fr.inverse()
    G0 = sz8_delta.group
    for g in ov.standard_generators(extended=False):
        assert (fr_inv * g * fr) in G0


def test_group_orders(sz8_delta, sz8_delta_ext):
    assert sz8_delta.group.order == 29120
    assert sz8_delta_ext.group.order == 3 * 29120


def test_small_generating_set_matches_full_family(sz8_delta):
    ov = sz8_delta.ovoid
    full = all_translations(ov) + all_diagonals(ov) + [ov.involution()]
    assert PermGroup(ov.domain, full).order == sz8_delta.group.order


def test_order_matches_closure_oracle(sz8_delta, sz8_closure):
    assert sz8_delta.group.order == len(sz8_closure)


def test_double_transitivity_q8(sz8_delta):
    n = sz8_delta.domain.size
    dom = integers(n * n)
    gens = []
    for g in sz8_delta.group.generators:
        img = [int(g.image[i]) * n + int(g.image[j]) for i in range(n) for j in range(n)]
        gens.append(dom.perm(img))
    orb = orbit(gens, 0 * n + 1)
    assert len(orb) == n * (n - 1) == 4160


def test_ovoid_action_transitive(sz8_delta):
    assert sz8_delta.group.is_transitive()
    assert len(sz8_delta.group.orbit_of(0)) == 65


def test_two_point_ovoid_stabilizer_is_cyclic_of_order_7(sz8_delta):
    """Fixing both the zero triple and infinity leaves exactly the
    diagonal scalings: a cyclic group of order q - 1."""
    ov = sz8_delta.ovoid
    zero_idx = ov.point_index(0, 0)
    stab = sz8_delta.group.pointwise_stabilizer([zero_idx, 0])
    assert stab.order == 7
    elements = list(stab.elements())
    gen = next(p for p in elements if not p.is_identity())
    assert element_order(gen) == 7  # so gen generates all of stab
    diags = {ov.diagonal(c) for c in range(1, 8)}
    assert set(elements) == diags


def test_pair_action_basics(sz8_pairs):
    assert sz8_pairs.domain.size == 2080
    assert sz8_pairs.group.is_transitive()
    assert sz8_pairs.group.order == 29120


def test_pair_action_primitive(sz8_pairs):
    assert is_primitive(sz8_pairs.group)


def test_pair_stabilizer_is_dihedral_order_14(sz8_pairs, sz8_closure):
    """The stabilizer of the pair {zero, infinity}: the two candidate orders
    are settled computationally (14 = 2(q-1) at q = 8)."""
    ov = sz8_pairs.ovoid
    zero_idx = ov.point_index(0, 0)
    pair_idx = sz8_pairs.domain.pair_index(0, zero_idx)
    stab = sz8_pairs.group.pointwise_stabilizer([pair_idx])
    assert stab.order == 14
    # independent brute force on the ovoid action
    brute = oracles.setwise_pair_stabilizer(sz8_closure, 0, zero_idx)
    assert len(brute) == 14
    # dihedral structure: cyclic subgroup of order 7 + 7 involutions
    orders = sorted(element_order(p) for p in stab.elements())
    assert orders == [1] + [2] * 7 + [7] * 6


def test_witness_points_on_ovoid(sz8_params):
    for extended in (False, True):
        for la, lb in witness_points(sz8_params, extended):
            for lab in (la, lb):
                if lab == INFINITY:
                    continue
                h1, h2, h3 = lab
                ov = build_ovoid(sz8_params)
                assert ov.point_label(h1, h2) == lab


def test_witness_chain_unextended(sz8_pairs):
    seq = BaseSequence(sz8_pairs.domain, tuple(witness_base_indices(sz8_pairs)))
    assert len(seq) == 3
    rep = chain_report(sz8_pairs.group, seq)
    assert rep.orders == (29120, 14, 2, 1)
    assert rep.is_irredundant_base


def test_witness_chain_middle_stabilizer_is_involution(sz8_pairs):
    seq = witness_base_indices(sz8_pairs)
    stab = sz8_pairs.group.pointwise_stabilizer(seq[:2])
    w_pair = induced_pair_action(sz8_pairs.ovoid.involution(), sz8_pairs.domain)
    elements = list(stab.elements())
    assert len(elements) == 2
    assert w_pair in elements


def test_witness_chain_extended(sz8_pairs_ext):
    seq = BaseSequence(sz8_pairs_ext.domain, tuple(witness_base_indices(sz8_pairs_ext)))
    assert len(seq) == 4  # 3 + one prime factor of f = 3
    assert is_irredundant_base(sz8_pairs_ext.group, seq)


def test_witness_extension_point_uses_subfield_generator(sz8_params):
    pts = witness_points(sz8_params, extended=True)
    (h1, h2, h3), other = pts[3]
    assert other == INFINITY
    zeta = subfield_generator(build_ovoid(sz8_params).field, 3)
    assert h1 == zeta and h2 == 0


def test_translation_composition_law(sz8_delta):
    """t(a,b) . t(c,d) = t(a+c, b+d+s(c)*a), exhaustively at q=8."""
    ov = sz8_delta.ovoid
    fld = ov.field
    ts = {(a, b): ov.translation(a, b) for a in range(8) for b in range(8)}
    for (a, b), t1 in ts.items():
        for (c, d), t2 in ts.items():
            lhs = t1 * t2
            A = a ^ c
            B = b ^ d ^ fld.mul_enc(fld.frobenius_enc(c, 2), a)
            assert lhs == ts[(A, B)]


def test_orders_at_q32():
    # the order formula q^2 (q^2+1)(q-1) is not used by the construction,
    # so agreement at a second parameter point is an independent check
    act = build_suzuki_group(SuzukiParams(2), extended=False, action="delta")
    assert act.group.order == 1024 * 1025 * 31
    ext = build_suzuki_group(SuzukiParams(2), extended=True, action="delta")
    assert ext.group.order == 5 * act.group.order


def test_min_ovoid_base_at_q32():
    from irrbase.chains import min_base_length

    ext = build_suzuki_group(SuzukiParams(2), extended=True, action="delta")
    b, wit = min_base_length(ext.group)
    assert b == 3 and len(wit) == 3


def test_witness_points_q32_extended():
    pts = witness_points(SuzukiParams(2), extended=True)
    assert len(pts) == 3 + 1  # f = 5 has a single prime factor
    ov = build_ovoid(SuzukiParams(2))
    (h1, h2, h3), other = pts[3]
    assert other == INFINITY and h2 == 0
    assert ov.point_label(h1, h2) == (h1, h2, h3)


def test_achievable_lengths_deterministic_across_builds(sz8_params):
    from irrbase.chains import achievable_lengths
    from irrbase.perm import PermGroup

    act = build_suzuki_group(sz8_params, extended=False, action="pairs")
    first = achievable_lengths(act.group)
    rebuilt = PermGroup(act.domain, act.group.generators)  # fresh chain
    second = achievable_lengths(rebuilt)
    assert first.lengths == second.lengths
    assert {l: w.points for l, w in first.witnesses.items()} == {
        l: w.points for l, w in second.witnesses.items()
    }


def test_bad_action_name(sz8_params):
    with pytest.raises(ValueError):
        build_suzuki_group(sz8_params, action="orbits")
