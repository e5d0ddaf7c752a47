"""Permutations on finite indexed domains and a deterministic Schreier-Sims
stabilizer chain.

Conventions
-----------
* Right action throughout: ``compose(p, q)`` acts as "p then q", so that
  ``x^(pq) = (x^p)^q``.  With dense image arrays this is
  ``(p*q).image == q.image[p.image]``.
* A :class:`Domain` owns the point labels; permutations are dense int32
  image arrays over ``0..size-1``.  Permutations and finished groups are
  immutable and safe to share between threads.
* Transversals are :class:`SchreierTree` objects: Schreier vectors (arrays
  of directed edge codes, no per-point elements) grown by one BFS, with
  coset representatives reconstructed on demand by one path walk, or all
  at once as transversal products (``coset_products``).  Both
  ``orbit()`` and every stabilizer-chain level use it.  Chain trees are
  kept shallow by adding extra tree generators when a point's depth
  exceeds twice the current tree size.
* Base points are chosen as the smallest moved point, except where a base
  prefix is prescribed (pointwise stabilizers, chain reports).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class DomainMismatchError(ValueError):
    """Raised when permutations over different domains are combined."""


class Domain:
    """An indexed set of distinct, hashable point labels."""

    __slots__ = ("size", "labels", "_index", "_arange")

    def __init__(self, labels: Sequence):
        self.labels = tuple(labels)
        self.size = len(self.labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != self.size:
            raise ValueError("domain labels must be pairwise distinct")
        self._arange = np.arange(self.size, dtype=np.int32)
        self._arange.setflags(write=False)

    def index_of(self, label) -> int:
        return self._index[label]

    def identity(self) -> "Permutation":
        return Permutation(self, self._arange, _validate=False)

    def perm(self, image: Sequence[int]) -> "Permutation":
        return Permutation(self, np.asarray(image, dtype=np.int32))

    def perm_from_cycles(self, *cycles: Sequence[int]) -> "Permutation":
        img = np.array(self._arange)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                img[a] = b
            if cyc:
                img[cyc[-1]] = cyc[0]
        return Permutation(self, img)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Domain(size={self.size})"


def integers(n: int) -> Domain:
    """The domain 0..n-1 with integer labels."""
    return Domain(range(n))


class Permutation:
    """A bijection of a domain, stored as a dense image array."""

    __slots__ = ("domain", "image", "_hash", "_inv")

    def __init__(self, domain: Domain, image: np.ndarray, _validate: bool = True):
        image = np.asarray(image, dtype=np.int32)
        if _validate:
            if image.shape != (domain.size,):
                raise ValueError("image length does not match domain size")
            seen = np.zeros(domain.size, dtype=bool)
            seen[image] = True
            if not seen.all():
                raise ValueError("image is not a bijection")
            image = image.copy()
            image.setflags(write=False)
        self.domain = domain
        self.image = image
        self._hash = None
        self._inv = None

    def __call__(self, i: int) -> int:
        return int(self.image[i])

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other (right action)."""
        if other.domain is not self.domain:
            raise DomainMismatchError("permutations act on different domains")
        img = other.image[self.image]
        img.setflags(write=False)
        return Permutation(self.domain, img, _validate=False)

    def inverse(self) -> "Permutation":
        if self._inv is None:
            inv = np.empty(self.domain.size, dtype=np.int32)
            inv[self.image] = self.domain._arange
            inv.setflags(write=False)
            self._inv = Permutation(self.domain, inv, _validate=False)
        return self._inv

    def is_identity(self) -> bool:
        return bool((self.image == self.domain._arange).all())

    def smallest_moved_point(self) -> int | None:
        diff = self.image != self.domain._arange
        idx = int(np.argmax(diff))
        return idx if diff[idx] else None

    def cycles(self) -> list[tuple[int, ...]]:
        seen = np.zeros(self.domain.size, dtype=bool)
        out = []
        for i in range(self.domain.size):
            if seen[i] or self.image[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = int(self.image[i])
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = int(self.image[j])
            out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Permutation)
            and other.domain is self.domain
            and bool(np.array_equal(self.image, other.image))
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.image.tobytes())
        return self._hash

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id)"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc[:6])
        if len(cyc) > 6:
            body += "..."
        return f"Permutation{body}"


# --------------------------------------------------------------------------
# orbits with Schreier transversals
# --------------------------------------------------------------------------

def _edge(g: Permutation) -> tuple[np.ndarray, np.ndarray]:
    return g.image, g.inverse().image


class SchreierTree:
    """An orbit plus a Schreier vector for rebuilding coset representatives.

    ``edges`` holds directed (image, inverse image) array pairs; ``sv`` is
    the Schreier vector (-1 root, -2 outside the orbit, otherwise ``2*t + d``
    meaning the point was discovered applying ``edges[t][d]``); ``depth`` is
    each point's distance from the root, and ``orbit`` lists the orbit in
    discovery order (root first).
    """

    __slots__ = ("domain", "root", "edges", "sv", "depth", "orbit")

    def __init__(self, domain: Domain, root: int, edges: list[tuple[np.ndarray, np.ndarray]]):
        self.domain = domain
        self.root = root
        self.edges = edges
        self.reset()

    def reset(self) -> None:
        """Forget every point but the root."""
        n = self.domain.size
        self.sv = np.full(n, -2, dtype=np.int64)
        self.sv[self.root] = -1
        self.depth = np.zeros(n, dtype=np.int32)
        self.orbit = [self.root]

    def __len__(self) -> int:
        return len(self.orbit)

    def grow(self, pos: int = 0, first_edge: int = 0, limit: int | None = None) -> int | None:
        """Breadth-first search from ``orbit[pos]`` on, applying
        ``edges[first_edge:]`` to each orbit point in turn (points found are
        appended and visited too).  Stops at, and returns, the first point
        found deeper than ``limit``; returns None once the orbit is closed.

        Runs one frontier at a time.  A point-by-point queue visits the
        whole frontier before anything it appends, so it appends the first
        occurrences of the frontier's fresh images taken point-major,
        edge-minor; that is the order used here."""
        limit = self.domain.size if limit is None else limit
        arrs = [arr for t in range(first_edge, len(self.edges)) for arr in self.edges[t]]
        sv, depth, orbit = self.sv, self.depth, self.orbit
        frontier = np.asarray(orbit[pos:], dtype=np.int64)
        while arrs and frontier.size:
            cand = np.stack([arr[frontier] for arr in arrs], axis=1).ravel()
            fresh = np.flatnonzero(sv[cand] == -2)
            hit = fresh[np.sort(np.unique(cand[fresh], return_index=True)[1])]
            found_depth = depth[frontier[hit // len(arrs)]] + 1
            deep = np.flatnonzero(found_depth > limit)
            if deep.size:  # keep what the queue appends up to the first deep point
                hit, found_depth = hit[: deep[0] + 1], found_depth[: deep[0] + 1]
            found = cand[hit]
            sv[found] = 2 * first_edge + hit % len(arrs)
            depth[found] = found_depth
            orbit.extend(found.tolist())
            if deep.size:
                return orbit[-1]
            frontier = found
        return None

    def coset_products(self, rows: np.ndarray) -> np.ndarray:
        """Image rows of h*u for every row h of ``rows`` and every coset
        representative u, h-major with u in orbit order.

        Filled one depth at a time: a point found from its tree parent by
        the edge e has u = u_parent * e, so h*u = e[h*u_parent], one gather
        per (depth, edge) group of points."""
        n, orbit = self.domain.size, np.asarray(self.orbit)
        out = np.empty((len(rows), len(orbit), n), dtype=np.int32)
        out[:, 0] = rows
        slot = np.empty(n, dtype=np.int64)
        slot[orbit] = np.arange(len(orbit))
        width = 2 * len(self.edges)
        keys = self.depth[orbit[1:]].astype(np.int64) * width + self.sv[orbit[1:]]
        for key in sorted(set(keys.tolist())):  # depth-major, so parents come first
            group = np.flatnonzero(keys == key) + 1
            t, d = divmod(key % width, 2)
            forward, backward = self.edges[t][d], self.edges[t][1 - d]
            out[:, group] = forward[out[:, slot[backward[orbit[group]]]]]
        return out.reshape(-1, n)

    def _path(self, point: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (forward, backward) edge arrays on the tree path from
        ``point`` up to the root, deepest first."""
        path = []
        while point != self.root:
            code = int(self.sv[point])
            if code == -2:
                raise ValueError(f"point {point} is not in the orbit")
            t, d = divmod(code, 2)
            forward, backward = self.edges[t][d], self.edges[t][1 - d]
            path.append((forward, backward))
            point = int(backward[point])
        return path

    def image(self, point: int) -> np.ndarray:
        """Image array of the coset representative u with root^u = point
        (the domain's shared read-only arange when point is the root)."""
        img = self.domain._arange
        for forward, _ in reversed(self._path(point)):
            img = forward[img]
        return img

    def strip(self, delta: int, img: np.ndarray) -> np.ndarray:
        """img times the inverse of the representative of delta."""
        for _, backward in self._path(delta):
            img = backward[img]
        return img


def orbit(gens: Sequence[Permutation], point: int) -> SchreierTree:
    """Smallest set containing `point` closed under the generators, with a
    Schreier tree."""
    if not gens:
        raise ValueError("orbit requires at least one generator (use the identity)")
    tree = SchreierTree(gens[0].domain, point, [_edge(g) for g in gens])
    tree.grow()
    return tree


def orbit_partition(gens: Sequence[Permutation], n: int) -> list[list[int]]:
    """All orbits of the generated group, each sorted, ordered by minimum.

    Builds no Schreier tree: one ``seen`` array serves every orbit, where a
    tree per orbit would allocate n-sized vectors for each one."""
    seen = np.zeros(n, dtype=bool)
    out = []
    images = [g.image for g in gens]
    for start in range(n):
        if seen[start]:
            continue
        block = [start]
        seen[start] = True
        pos = 0
        while pos < len(block):
            a = block[pos]
            pos += 1
            for img in images:
                b = int(img[a])
                if not seen[b]:
                    seen[b] = True
                    block.append(b)
        out.append(sorted(block))
    return out


# --------------------------------------------------------------------------
# Schreier-Sims stabilizer chain
# --------------------------------------------------------------------------

class _Level(SchreierTree):
    """One level of a stabilizer chain: the Schreier tree of the base point
    ``root`` under ``gens``.

    ``gens`` lists the strong generators fixing all earlier base points;
    the tree ``edges`` are the per-gen pairs first, then extra tree elements
    added to keep the tree shallow.  ``processed[k]`` counts orbit points
    whose Schreier generator with ``gens[k]`` has already been sifted; orbit
    order and generator lists only ever append, so the counters stay valid
    across resumed verification.
    """

    __slots__ = ("gens", "processed")

    def __init__(self, domain: Domain, root: int):
        super().__init__(domain, root, [])
        self.gens: list[Permutation] = []
        self.processed: list[int] = []

    def rebuild(self) -> None:
        """Full BFS rebuild with the GAP-style shallow-tree rule: when a
        point lands deeper than twice the tree size, promote its coset
        representative to a tree generator and start over."""
        self.edges = [_edge(g) for g in self.gens]
        while True:
            self.reset()
            deep_point = self.grow(limit=2 * max(len(self.edges), 1))
            if deep_point is None:
                return
            u = Permutation(self.domain, self.image(deep_point), _validate=False)
            self.edges.append(_edge(u))

    def extend(self, first_new_gen: int) -> None:
        """Incremental BFS after appending generators (the orbit only grows;
        existing Schreier vector entries stay valid).  The new edges go over
        the whole orbit first, points found on the way included; then every
        edge goes over the points found, in discovery order.  That order
        decides which Schreier generators are sifted first, so the strong
        generators depend on it."""
        old_len, first_new_edge = len(self.orbit), len(self.edges)
        self.edges.extend(_edge(g) for g in self.gens[first_new_gen:])
        self.grow(0, first_new_edge)
        self.grow(old_len)


class StabChain:
    """Base, fundamental orbits and strong generators of a permutation group.

    Built by a deterministic Schreier-Sims run.  ``target_order`` may be
    any upper bound on the order of the generated group (for stabilizers it
    is the exact order, known in advance from the orbit-stabilizer
    theorem).  Construction stops as soon as the product of fundamental
    orbit lengths reaches it.  The partial product never exceeds the true
    order, so reaching the bound proves the chain complete: every Schreier
    generator left unsifted would sift to the identity, and the chain is
    level for level the one a full run returns.  A bound that is never
    reached only costs the early stop.
    """

    __slots__ = ("domain", "levels")

    def __init__(self, domain: Domain, levels: list[_Level]):
        self.domain = domain
        self.levels = levels

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        domain: Domain,
        gens: Sequence[Permutation],
        base_prefix: Sequence[int] = (),
        target_order: int | None = None,
    ) -> "StabChain":
        chain = cls(domain, [_Level(domain, b) for b in base_prefix])
        seeds = []
        seen = set()
        for g in gens:
            if g.domain is not domain:
                raise DomainMismatchError("generators act on different domains")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            seeds.append(g)
        for g in seeds:
            chain._insert_gen(g, 0)
        for lvl in chain.levels:
            lvl.rebuild()
        if target_order is not None and chain.order == target_order:
            return chain
        i = len(chain.levels) - 1
        while i >= 0:
            jumped = chain._verify_level(i, target_order)
            if jumped is None:
                i -= 1
            elif jumped == -1:  # target order reached
                return chain
            else:
                i = jumped
        return chain

    @property
    def base(self) -> list[int]:
        return [lvl.root for lvl in self.levels]

    @property
    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def suffix(self, k: int) -> "StabChain":
        return StabChain(self.domain, self.levels[k:])

    def strong_generators(self) -> list[Permutation]:
        out: dict[Permutation, None] = {}
        for lvl in self.levels:
            for g in lvl.gens:
                out[g] = None
        return list(out)

    # -- sifting ------------------------------------------------------------

    def sift(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Strip p through the chain from level `start`.

        Returns (residue, k) where k is the first level at which the image
        of the base point fell outside the fundamental orbit, or
        len(levels) if p was stripped through the whole chain.  p is a
        member of the level-`start` group iff the residue is the identity
        and k == len(levels).
        """
        img = p.image
        for k in range(start, len(self.levels)):
            lvl = self.levels[k]
            delta = int(img[lvl.root])
            if delta == lvl.root:
                continue
            if lvl.sv[delta] == -2:
                res = Permutation(self.domain, img, _validate=False)
                return res, k
            img = lvl.strip(delta, img)
        return Permutation(self.domain, img, _validate=False), len(self.levels)

    # -- internals ----------------------------------------------------------

    def _insert_gen(self, g: Permutation, lo: int) -> int:
        """Store g at levels lo..j where j is the first level whose base
        point g moves (appending a new base point if g fixes them all).
        Returns j.  Caller guarantees g fixes the base points before lo."""
        img = g.image
        j = None
        for k in range(lo, len(self.levels)):
            if img[self.levels[k].root] != self.levels[k].root:
                j = k
                break
        if j is None:
            self.levels.append(_Level(self.domain, g.smallest_moved_point()))
            j = len(self.levels) - 1
        for k in range(lo, j + 1):
            lvl = self.levels[k]
            lvl.gens.append(g)
            lvl.processed.append(0)
        return j

    def _verify_level(self, i: int, target_order: int | None) -> int | None:
        """Sift the pending Schreier generators of level i.

        Returns None when the level is clean, -1 when the target order was
        reached, or the deepest level that received a new strong generator
        (verification must resume there).
        """
        lvl = self.levels[i]
        gi = 0
        while gi < len(lvl.gens):
            s_img = lvl.gens[gi].image
            pos = lvl.processed[gi]
            while pos < len(lvl.orbit):
                delta = lvl.orbit[pos]
                pos += 1
                lvl.processed[gi] = pos
                h_img = s_img[lvl.image(delta)]  # u then s
                h_img = lvl.strip(int(h_img[lvl.root]), h_img)
                residue, fail = self.sift(
                    Permutation(self.domain, h_img, _validate=False), i + 1
                )
                if fail < len(self.levels) or not residue.is_identity():
                    j = self._insert_residue(residue, i + 1, fail)
                    if target_order is not None and self.order == target_order:
                        return -1
                    return j
            gi += 1
        return None

    def _insert_residue(self, residue: Permutation, lo: int, fail: int) -> int:
        j = self._insert_gen(residue, lo)
        for k in range(lo, j + 1):
            lvl = self.levels[k]
            if len(lvl.edges) == 0 and len(lvl.gens) == 1:
                lvl.rebuild()
            else:
                lvl.extend(len(lvl.gens) - 1)
        return j


# --------------------------------------------------------------------------
# permutation groups
# --------------------------------------------------------------------------

class PermGroup:
    """A permutation group given by generators, with a cached stabilizer
    chain providing exact order, membership and pointwise stabilizers.

    ``order_bound``, if given, must be an upper bound on the order (the
    order of an ambient group the generators lie in); the lazily built
    chain uses it as ``StabChain.build``'s ``target_order``."""

    __slots__ = ("domain", "generators", "order_bound", "_chain")

    def __init__(
        self,
        domain: Domain,
        generators: Iterable[Permutation],
        _chain: StabChain | None = None,
        order_bound: int | None = None,
    ):
        gens = []
        for g in generators:
            if g.domain is not domain:
                raise DomainMismatchError("generators act on different domains")
            if not g.is_identity():
                gens.append(g)
        self.domain = domain
        self.generators = tuple(gens)
        self.order_bound = order_bound
        self._chain = _chain

    @property
    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = StabChain.build(self.domain, self.generators, target_order=self.order_bound)
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order

    def __contains__(self, p: Permutation) -> bool:
        if p.domain is not self.domain:
            return False
        residue, k = self.chain.sift(p)
        return k == len(self.chain.levels) and residue.is_identity()

    # -- orbits ---------------------------------------------------------------

    def orbit_of(self, point: int) -> SchreierTree:
        gens = self.generators if self.generators else (self.domain.identity(),)
        return orbit(gens, point)

    def orbits(self) -> list[list[int]]:
        return orbit_partition(self.generators, self.domain.size)

    def is_transitive(self) -> bool:
        if self.domain.size <= 1:
            return True
        return len(self.orbit_of(0)) == self.domain.size

    # -- stabilizers ------------------------------------------------------------

    def stabilizer_of_point(self, point: int) -> "PermGroup":
        """The subgroup fixing one point, with its own valid chain.

        Uses the cached chain suffix when the point is already the first
        base point; otherwise reruns Schreier-Sims with the point as the
        prescribed first base point, stopping at the order predicted by the
        orbit-stabilizer theorem.
        """
        if all(g.image[point] == point for g in self.generators):
            return self
        chain = self.chain
        if chain.levels and chain.levels[0].root == point:
            sub = chain.suffix(1)
            gens = sub.levels[0].gens if sub.levels else []
            return PermGroup(self.domain, gens, _chain=sub)
        inputs = list(dict.fromkeys(list(self.generators) + chain.strong_generators()))
        target = self.order
        new_chain = StabChain.build(
            self.domain, inputs, base_prefix=(point,), target_order=target
        )
        sub = new_chain.suffix(1)
        gens = sub.levels[0].gens if sub.levels else []
        return PermGroup(self.domain, gens, _chain=sub)

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        group: PermGroup = self
        for p in points:
            group = group.stabilizer_of_point(p)
        return group

    # -- element enumeration -----------------------------------------------------

    def element_images(self) -> np.ndarray:
        """The image rows of all group elements, one read-only
        (order x degree) int32 array: the transversal products h*u through
        the chain, with h running over the deeper levels' products and u
        over the level's representatives in orbit order.

        Intended for small groups; the row count equals ``order``.
        """
        rows = self.domain._arange[np.newaxis]
        for lvl in reversed(self.chain.levels):
            rows = lvl.coset_products(rows)
        rows.setflags(write=False)
        return rows

    def elements(self) -> Iterator[Permutation]:
        """All group elements, in the row order of ``element_images``."""
        return (Permutation(self.domain, row, _validate=False) for row in self.element_images())

    def __repr__(self) -> str:
        built = self._chain is not None
        size = self.order if built else "?"
        return f"PermGroup(|domain|={self.domain.size}, order={size})"


def symmetric_natural(n: int) -> PermGroup:
    """Sym(n) in its natural action on 0..n-1."""
    dom = integers(n)
    if n <= 1:
        return PermGroup(dom, [])
    if n == 2:
        return PermGroup(dom, [dom.perm_from_cycles([0, 1])])
    return PermGroup(dom, [dom.perm_from_cycles([0, 1]), dom.perm_from_cycles(list(range(n)))])


# --------------------------------------------------------------------------
# action on unordered pairs
# --------------------------------------------------------------------------

class PairDomain(Domain):
    """The domain of unordered pairs {i, j}, i < j, of a base domain,
    sorted lexicographically; labels are pairs of base labels."""

    __slots__ = ("source", "lefts", "rights")

    def __init__(self, source: Domain):
        n = source.size
        ii, jj = np.triu_indices(n, k=1)
        labels = [(source.labels[i], source.labels[j]) for i, j in zip(ii.tolist(), jj.tolist())]
        super().__init__(labels)
        self.source = source
        self.lefts = ii.astype(np.int64)
        self.rights = jj.astype(np.int64)
        self.lefts.setflags(write=False)
        self.rights.setflags(write=False)

    def pair_index(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("pairs consist of two distinct points")
        if i > j:
            i, j = j, i
        n = self.source.size
        return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_domain(source: Domain) -> PairDomain:
    return PairDomain(source)


def induced_pair_action(p: Permutation, pairs: PairDomain) -> Permutation:
    """The permutation {a, b} -> {a^p, b^p} on the pair domain.

    The map is a group homomorphism, injective as soon as the base domain
    has at least 3 points.
    """
    if not isinstance(pairs, PairDomain) or pairs.source is not p.domain:
        raise DomainMismatchError("pair domain was not derived from the permutation's domain")
    n = p.domain.size
    img64 = p.image.astype(np.int64)
    a = img64[pairs.lefts]
    b = img64[pairs.rights]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    idx = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
    img = idx.astype(np.int32)
    img.setflags(write=False)
    return Permutation(pairs, img, _validate=False)


# --------------------------------------------------------------------------
# block systems / primitivity
# --------------------------------------------------------------------------

def minimal_block(group: PermGroup, a: int, b: int) -> list[list[int]]:
    """The finest block system of a transitive group in which a and b share
    a block (Atkinson's union-find algorithm)."""
    n = group.domain.size
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x: int, y: int) -> int | None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return ry

    merged = union(a, b)
    queue = [merged] if merged is not None else []
    images = [arr for g in group.generators for arr in _edge(g)]
    while queue:
        gamma = queue.pop()
        rho = find(gamma)
        for img in images:
            lost = union(int(img[gamma]), int(img[rho]))
            if lost is not None:
                queue.append(lost)
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return sorted(classes.values())


def is_primitive(group: PermGroup) -> bool:
    """Transitive with no nontrivial block system.

    Only one point per orbit of the first point stabilizer needs testing:
    block systems through conjugate pairs coincide up to translation.
    """
    n = group.domain.size
    if n <= 2:
        return group.is_transitive()
    if not group.is_transitive():
        return False
    stab = group.stabilizer_of_point(0)
    reps = [blk[0] for blk in stab.orbits() if blk != [0]]
    for delta in reps:
        if len(minimal_block(group, 0, delta)) != 1:
            return False
    return True
