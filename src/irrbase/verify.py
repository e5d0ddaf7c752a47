"""The verification suite behind the `verify-paper` CLI subcommand.

Each check is a named callable returning (ok, detail); the registry fixes
the execution and output order.  The quick level covers the q=8 Suzuki
groups, small affine groups and property checks on random small groups;
the full level adds the 4096-point affine semilinear case, primitivity of
the 2080-point pair action, and the pruned-search-vs-exhaustive corpus.

NOTE: for the semilinear affine family with a nontrivial field extension
(f > 1) the minimum irredundant base size on vectors is d+2, not d+1: any
d+1 points are fixed by a suitable field-automorphism twist.  The expected
intervals below use the computed-correct values; see README.
"""

from __future__ import annotations

import random
from typing import Callable

from .affine import AffineParams, affine_group_order, build_affine_group
from .chains import (
    BaseSequence,
    achievable_lengths,
    chain_report,
    exhaustive_lengths,
    is_irredundant_base,
    min_base_length,
)
from .perm import PermGroup, induced_pair_action, integers, is_primitive, orbit
from .realize import instantiate, witness_spec
from .suzuki import SuzukiParams, build_suzuki_group, witness_base_indices

Check = tuple[str, str, Callable[[], tuple[bool, str]]]  # (name, level, fn)

_SEED = 20260808


# --------------------------------------------------------------------------
# corpus of small groups (shared with the acceptance suite)
# --------------------------------------------------------------------------

def structured_small_groups() -> list[tuple[str, PermGroup]]:
    """Named small groups covering cyclic, dihedral, abelian and symmetric
    shapes on at most 12 points."""
    out = []

    def make(name, n, *gens):
        dom = integers(n)
        out.append((name, PermGroup(dom, [dom.perm_from_cycles(*cycles) for cycles in gens])))

    make("C5", 5, [[0, 1, 2, 3, 4]])
    make("C6", 6, [[0, 1, 2, 3, 4, 5]])
    make("C7", 7, [[0, 1, 2, 3, 4, 5, 6]])
    make("D4", 4, [[0, 1, 2, 3]], [[1, 3]])
    make("D6", 6, [[0, 1, 2, 3, 4, 5]], [[1, 5], [2, 4]])
    make("S3", 3, [[0, 1]], [[0, 1, 2]])
    make("S4", 4, [[0, 1]], [[0, 1, 2, 3]])
    make("S5", 5, [[0, 1]], [[0, 1, 2, 3, 4]])
    make("A4", 4, [[0, 1, 2]], [[1, 2, 3]])
    make("A5", 5, [[0, 1, 2]], [[0, 1, 2, 3, 4]])
    make("E8", 6, [[0, 1]], [[2, 3]], [[4, 5]])
    make("C2xC4", 6, [[0, 1]], [[2, 3, 4, 5]])
    make("S3xS3", 6, [[0, 1]], [[0, 1, 2]], [[3, 4]], [[3, 4, 5]])
    make("C3wr2", 9, [[0, 1, 2]], [[3, 4, 5]], [[0, 3], [1, 4], [2, 5]])
    make("C11", 11, [list(range(11))])
    make("D12", 12, [list(range(12))], [[1, 11], [2, 10], [3, 9], [4, 8], [5, 7]])
    return out


def random_small_groups(
    count: int, seed: int = _SEED, max_points: int = 9, max_order: int | None = 2000
) -> list[tuple[str, PermGroup]]:
    """Deterministic pseudo-random subgroups generated by 1-3 shuffles."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        n = rng.randint(4, max_points)
        dom = integers(n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(dom.perm(img))
        group = PermGroup(dom, gens)
        if group.order == 1:
            continue
        if max_order is not None and group.order > max_order:
            continue
        out.append((f"R{len(out)}(n={n},|G|={group.order})", group))
    return out


def search_corpus() -> list[tuple[str, PermGroup]]:
    """>= 30 groups of order <= 2000 on <= 12 points for the
    pruned-search-vs-exhaustive comparison."""
    corpus = structured_small_groups()
    corpus += random_small_groups(24, seed=_SEED, max_points=9, max_order=2000)
    return corpus


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------

def check_suzuki_orders() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=False, action="delta")
    ext = build_suzuki_group(SuzukiParams(1), extended=True, action="delta")
    ok = act.domain.size == 65 and act.group.order == 29120 and ext.group.order == 87360
    return (
        ok,
        f"|ovoid|={act.domain.size}, |Sz(8)|={act.group.order}, extended={ext.group.order}",
    )


def check_suzuki_double_transitivity() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=False, action="delta")
    n = act.domain.size
    dom = integers(n * n)  # ordered pairs (a, b) as a*n + b
    gens = []
    for g in act.group.generators:
        img = [int(g.image[i]) * n + int(g.image[j]) for i in range(n) for j in range(n)]
        gens.append(dom.perm(img))
    distinct = [i * n + j for i in range(n) for j in range(n) if i != j]
    orb = orbit(gens, distinct[0])
    ok = len(orb) == n * (n - 1)
    return ok, f"ordered distinct pair orbit size {len(orb)} (expect {n*(n-1)})"


def check_suzuki_pair_interval() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=False, action="pairs")
    iv = achievable_lengths(act.group)
    ok = sorted(iv.lengths) == [2, 3] and iv.is_interval
    return ok, f"lengths={sorted(iv.lengths)}"


def check_suzuki_extended_interval() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=True, action="pairs")
    iv = achievable_lengths(act.group)
    ok = sorted(iv.lengths) == [2, 3, 4] and iv.is_interval
    return ok, f"lengths={sorted(iv.lengths)}"


def check_suzuki_reference_chain() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=False, action="pairs")
    seq = BaseSequence(act.domain, tuple(witness_base_indices(act)))
    rep = chain_report(act.group, seq)
    fix2 = act.group.pointwise_stabilizer(seq.points[:2])
    w_pair = induced_pair_action(act.ovoid.involution(), act.domain)
    middle = list(fix2.elements())
    middle_ok = len(middle) == 2 and w_pair in middle
    ok = rep.orders == (29120, 14, 2, 1) and rep.is_irredundant_base and middle_ok
    return (
        ok,
        f"chain orders={rep.orders}, pair-stabilizer order={rep.orders[1]}, "
        f"middle stabilizer = {{identity, involution}}: {middle_ok}",
    )


def check_suzuki_ovoid_min_base() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=True, action="delta")
    b, wit = min_base_length(act.group)
    ok = b == 3 and is_irredundant_base(act.group, wit)
    return ok, f"min base length {b} on the 65-point ovoid"


def _affine_case(d: int, p: int, f: int, expect_plain: list[int], expect_ext: list[int]) -> tuple[bool, str]:
    params = AffineParams(d=d, p=p, f=f)
    plain = build_affine_group(params, extended=False)
    ok1 = plain.group.order == affine_group_order(params, False)
    iv1 = achievable_lengths(plain.group)
    ext = build_affine_group(params, extended=True)
    ok2 = ext.group.order == affine_group_order(params, True)
    iv2 = achievable_lengths(ext.group)
    ok = ok1 and ok2 and sorted(iv1.lengths) == expect_plain and sorted(iv2.lengths) == expect_ext
    return (
        ok,
        f"plain lengths={sorted(iv1.lengths)} (expect {expect_plain}), "
        f"extended lengths={sorted(iv2.lengths)} (expect {expect_ext})",
    )


def check_affine_d2_q4() -> tuple[bool, str]:
    return _affine_case(2, 2, 2, [3], [4])


def check_affine_d1_q4() -> tuple[bool, str]:
    return _affine_case(1, 2, 2, [2], [3])


def check_affine_d2_q8() -> tuple[bool, str]:
    return _affine_case(2, 2, 3, [3], [4])


def check_interval_property_quick() -> tuple[bool, str]:
    groups = random_small_groups(40, seed=_SEED + 1, max_points=7, max_order=None)
    bad = [name for name, g in groups if not achievable_lengths(g).is_interval]
    return not bad, f"{len(groups)} random groups, interval violations: {bad}"


def check_interval_property_full() -> tuple[bool, str]:
    groups = random_small_groups(120, seed=_SEED + 2, max_points=8, max_order=None)
    bad = [name for name, g in groups if not achievable_lengths(g).is_interval]
    return not bad, f"{len(groups)} random groups, interval violations: {bad}"


def check_realize_small() -> tuple[bool, str]:
    details = []
    ok = True
    for a, b in [(2, 3), (3, 4), (4, 4)]:
        spec = witness_spec(a, b)
        group, _ = instantiate(spec)
        got = sorted(achievable_lengths(group).lengths)
        ok = ok and got == list(range(a, b + 1))
        details.append(f"[{a},{b}]->{got}")
    return ok, "; ".join(details)


def check_affine_d2_q64() -> tuple[bool, str]:
    params = AffineParams(d=2, p=2, f=6)
    act = build_affine_group(params, extended=True)
    ok_order = act.group.order == affine_group_order(params, True)
    iv = achievable_lengths(act.group)
    ok = ok_order and sorted(iv.lengths) == [4, 5]
    return ok, f"order ok={ok_order}, lengths={sorted(iv.lengths)} (expect [4, 5])"


def check_suzuki_pair_primitivity() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(1), extended=False, action="pairs")
    prim = is_primitive(act.group)
    return prim, f"pair action on {act.domain.size} points primitive: {prim}"


def check_suzuki_q32() -> tuple[bool, str]:
    act = build_suzuki_group(SuzukiParams(2), extended=True, action="delta")
    order_ok = act.group.order == 5 * 1024 * 1025 * 31
    b, _ = min_base_length(act.group)
    ok = act.domain.size == 1025 and order_ok and b == 3
    return ok, f"|ovoid|={act.domain.size}, order ok={order_ok}, ovoid min base={b}"


def check_search_vs_exhaustive() -> tuple[bool, str]:
    bad = []
    corpus = search_corpus()
    for name, group in corpus:
        pruned = achievable_lengths(group).lengths
        reference = exhaustive_lengths(group)
        if pruned != reference:
            bad.append(f"{name}: {sorted(pruned)} != {sorted(reference)}")
    return not bad, f"{len(corpus)} corpus groups, discrepancies: {bad or 'none'}"


REGISTRY: list[Check] = [
    ("suzuki-q8-orders", "quick", check_suzuki_orders),
    ("suzuki-q8-double-transitivity", "quick", check_suzuki_double_transitivity),
    ("suzuki-q8-pair-interval", "quick", check_suzuki_pair_interval),
    ("suzuki-q8-extended-pair-interval", "quick", check_suzuki_extended_interval),
    ("suzuki-q8-reference-chain", "quick", check_suzuki_reference_chain),
    ("suzuki-q8-ovoid-min-base", "quick", check_suzuki_ovoid_min_base),
    ("affine-d2-q4-intervals", "quick", check_affine_d2_q4),
    ("affine-d1-q4-intervals", "quick", check_affine_d1_q4),
    ("affine-d2-q8-intervals", "quick", check_affine_d2_q8),
    ("interval-property-random", "quick", check_interval_property_quick),
    ("realize-small-roundtrip", "quick", check_realize_small),
    ("affine-d2-q64-interval", "full", check_affine_d2_q64),
    ("suzuki-q8-pair-primitivity", "full", check_suzuki_pair_primitivity),
    ("suzuki-q32-orders-and-min-base", "full", check_suzuki_q32),
    ("interval-property-random-extended", "full", check_interval_property_full),
    ("search-vs-exhaustive-corpus", "full", check_search_vs_exhaustive),
]


def run_checks(level: str = "quick", only: str | None = None) -> list[dict]:
    """Run the registry (quick items always; full items when level="full"),
    optionally filtered by a substring of the check name."""
    results = []
    for name, check_level, fn in REGISTRY:
        if level != "full" and check_level == "full":
            continue
        if only is not None and only not in name:
            continue
        ok, detail = fn()
        results.append({"name": name, "level": check_level, "ok": ok, "detail": detail})
    return results
