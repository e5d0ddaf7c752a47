"""Irredundant-base analysis: stabilizer-chain reports, minimum base length,
maximum irredundant base length, and the full set of achievable lengths.

The search explores point sequences depth first, extending each node by one
representative per orbit of the current stabilizer and skipping its fixed
points: replacing a point by a conjugate under the stabilizer conjugates
the residual chain, so orbit representatives see every achievable length,
and a fixed point can never produce the strict drop irredundancy requires.
Representatives are the smallest point of each orbit, visited in increasing
order, which makes every reported witness deterministic.

One traversal, ``_bases``, serves all three searches: it yields the
irredundant bases in this order, and each search consumes it with its own
cut.  ``achievable_lengths`` cuts nothing and keeps the first base of each
length; ``min_base_length`` cuts by a budget under iterative deepening;
``max_irredundant_length`` cuts by the best length found so far.  Each cut
only drops subtrees that provably hold no base the search could keep (the
arguments are in the search docstrings), so all three report the witness
the full traversal finds first for their length.

Two node representations are used: small stabilizers are materialized as a
dense matrix of element images (orbits and stabilizers become cheap array
operations); larger ones stay as chain-backed groups.  A stabilizer of
prime order is not expanded at all -- any extension by a moved point
reaches the identity, so the node contributes exactly one new length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .ntheory import is_prime
from .perm import Domain, PermGroup, orbit_partition

_MATRIX_MAX_ORDER = 4096
_MATRIX_MAX_CELLS = 20_000_000


@dataclass(frozen=True)
class BaseSequence:
    """An ordered sequence of points of a domain."""

    domain: Domain
    points: tuple[int, ...]

    def __post_init__(self):
        for p in self.points:
            if not 0 <= p < self.domain.size:
                raise ValueError(f"point {p} outside the domain")

    def __len__(self) -> int:
        return len(self.points)

    def labels(self) -> tuple:
        return tuple(self.domain.labels[p] for p in self.points)


@dataclass(frozen=True)
class ChainReport:
    """Exact orders of the successive pointwise stabilizers of a sequence."""

    orders: tuple[int, ...]

    @property
    def strict_flags(self) -> tuple[bool, ...]:
        return tuple(a > b for a, b in zip(self.orders, self.orders[1:]))

    @property
    def all_strict(self) -> bool:
        return all(self.strict_flags)

    @property
    def terminal_trivial(self) -> bool:
        return self.orders[-1] == 1

    @property
    def is_irredundant_base(self) -> bool:
        return self.all_strict and self.terminal_trivial


@dataclass
class IntervalReport:
    """The set of achievable irredundant-base cardinalities of a group."""

    min_length: int
    max_length: int
    lengths: frozenset[int]
    is_interval: bool
    witnesses: dict[int, BaseSequence] = field(repr=False)


def chain_report(group: PermGroup, seq: BaseSequence) -> ChainReport:
    """Orders of G >= G_{p1} >= G_{p1,p2} >= ... along the sequence."""
    if seq.domain is not group.domain:
        raise ValueError("sequence lives on a different domain")
    current = group
    orders = [current.order]
    for p in seq.points:
        current = current.stabilizer_of_point(p)
        orders.append(current.order)
    return ChainReport(tuple(orders))


def is_irredundant_base(group: PermGroup, seq: BaseSequence) -> bool:
    return chain_report(group, seq).is_irredundant_base


# --------------------------------------------------------------------------
# search nodes
# --------------------------------------------------------------------------

class _MatrixNode:
    """A stabilizer held as the dense matrix of its element images.

    Column p lists the full orbit of p (the rows run over the whole group),
    so orbit representatives, fixed points and point stabilizers are single
    array operations.
    """

    __slots__ = ("mat", "_reps", "_sizes")

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self._reps = None
        self._sizes = None

    @property
    def order(self) -> int:
        return self.mat.shape[0]

    def _orbit_data(self):
        if self._reps is None:
            # a column's minimum is its orbit's; only a fixed point's is unshared
            reps, counts = np.unique(self.mat.min(axis=0), return_counts=True)
            self._reps = reps[counts > 1].tolist()
            self._sizes = counts[counts > 1].tolist()
        return self._reps, self._sizes

    def reps(self) -> list[int]:
        return self._orbit_data()[0]

    def max_orbit_size(self) -> int:
        sizes = self._orbit_data()[1]
        return max(sizes) if sizes else 1

    def child(self, point: int) -> "_MatrixNode":
        mask = self.mat[:, point] == point
        return _MatrixNode(self.mat[mask])


class _GroupNode:
    """A stabilizer held as a chain-backed group; children drop to matrix
    form as soon as they fit."""

    __slots__ = ("group", "_orbits")

    def __init__(self, group: PermGroup):
        self.group = group
        self._orbits = None

    @property
    def order(self) -> int:
        return self.group.order

    def _orbit_data(self):
        if self._orbits is None:
            parts = [o for o in orbit_partition(self.group.generators, self.group.domain.size) if len(o) > 1]
            self._orbits = ([o[0] for o in parts], [len(o) for o in parts])
        return self._orbits

    def reps(self) -> list[int]:
        return self._orbit_data()[0]

    def max_orbit_size(self) -> int:
        sizes = self._orbit_data()[1]
        return max(sizes) if sizes else 1

    def child(self, point: int):
        return _make_node(self.group.stabilizer_of_point(point))


def _matrix_from_group(group: PermGroup) -> _MatrixNode:
    return _MatrixNode(group.element_images())


def _make_node(group: PermGroup):
    order = group.order
    if order <= _MATRIX_MAX_ORDER and order * group.domain.size <= _MATRIX_MAX_CELLS:
        return _matrix_from_group(group)
    return _GroupNode(group)


# --------------------------------------------------------------------------
# searches
# --------------------------------------------------------------------------

def _bases(node, prefix: tuple[int, ...], cut: Callable) -> Iterator[tuple[int, ...]]:
    """Lazily yield the irredundant bases below `node` that extend `prefix`,
    in the module's deterministic order.

    A trivial node yields `prefix` itself.  Otherwise ``cut(node, prefix)``
    may prune the subtree; the caller's cut is read afresh at every node, so
    it may tighten as bases are consumed.  A prime-order node yields one
    base, through its smallest moved point; any other node recurses into
    the stabilizer of each orbit representative in increasing order.
    """
    order = node.order
    if order == 1:
        yield prefix
        return
    if cut(node, prefix):
        return
    if order <= _MATRIX_MAX_ORDER and is_prime(order):
        yield prefix + (node.reps()[0],)  # the smallest moved point
        return
    for rep in node.reps():
        yield from _bases(node.child(rep), prefix + (rep,), cut)


def achievable_lengths(group: PermGroup) -> IntervalReport:
    """The full set of achievable irredundant-base cardinalities, with one
    (deterministic, first-found) witness per achieved length."""
    domain = group.domain
    witnesses: dict[int, tuple[int, ...]] = {}
    for base in _bases(_make_node(group), (), lambda node, prefix: False):
        witnesses.setdefault(len(base), base)
    lengths = frozenset(witnesses)
    lo, hi = min(lengths), max(lengths)
    return IntervalReport(
        min_length=lo,
        max_length=hi,
        lengths=lengths,
        is_interval=(lengths == frozenset(range(lo, hi + 1))),
        witnesses={l: BaseSequence(domain, pts) for l, pts in sorted(witnesses.items())},
    )


def exhaustive_lengths(group: PermGroup, max_order: int = 20000, max_points: int = 64) -> frozenset[int]:
    """Reference computation of the achievable-length set with NO orbit
    pruning: every point that strictly drops the stabilizer is tried at
    every position.  Exponential; only usable on the verification corpus.
    """
    if group.order > max_order or group.domain.size > max_points:
        raise ValueError("exhaustive reference is restricted to small groups")
    node = _matrix_from_group(group)
    n = group.domain.size
    lengths: set[int] = set()

    def rec(mat: np.ndarray, depth: int) -> None:
        k = mat.shape[0]
        if k == 1:
            lengths.add(depth)
            return
        for p in range(n):
            sub = mat[mat[:, p] == p]
            if sub.shape[0] < k:
                rec(sub, depth + 1)

    rec(node.mat, 0)
    return frozenset(lengths)


def min_base_length(group: PermGroup) -> tuple[int, BaseSequence]:
    """Smallest base cardinality, by iterative deepening over orbit
    representatives from bound 0.  A node is cut when even the largest
    orbit drops cannot reach the identity within the remaining budget:
    every later stabilizer's orbits lie inside the current ones, so each
    further point divides the order by at most the current largest orbit
    size.  The first base found at the first bound that admits one is
    therefore a minimum one."""
    root = _make_node(group)
    bound = 0

    def over_budget(node, prefix: tuple[int, ...]) -> bool:
        budget = bound - len(prefix)
        return budget == 0 or node.max_orbit_size() ** budget < node.order

    while True:
        found = next(_bases(root, (), over_budget), None)
        if found is not None:
            return len(found), BaseSequence(group.domain, found)
        bound += 1


def max_irredundant_length(group: PermGroup) -> tuple[int, BaseSequence]:
    """Largest irredundant base cardinality, by branch-and-bound: each
    strict step at least halves the order, so a subtree whose
    len(prefix) + floor(log2(order)) cannot beat the best length found so
    far holds no longer base and is cut."""
    best: tuple[int, ...] = ()
    best_len = -1

    def cannot_beat(node, prefix: tuple[int, ...]) -> bool:
        return len(prefix) + node.order.bit_length() - 1 <= best_len

    for base in _bases(_make_node(group), (), cannot_beat):
        if len(base) > best_len:
            best_len, best = len(base), base
    return best_len, BaseSequence(group.domain, best)
