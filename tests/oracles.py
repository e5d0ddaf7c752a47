"""Brute-force reference implementations used as oracles.

Everything here works on plain tuples of ints and stays independent of the
package's permutation machinery: closure by breadth-first products,
stabilizers by filtering, irredundant-base lengths by exhaustive search
over ALL point sequences with no orbit pruning.
"""

from __future__ import annotations


def compose(p: tuple, q: tuple) -> tuple:
    """p then q (right action), matching the package convention."""
    return tuple(q[i] for i in p)


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def mulclose(gens: list[tuple], n: int) -> set[tuple]:
    """All products of the generators (the generated group as a set)."""
    identity = tuple(range(n))
    if not gens:
        return {identity}
    els = {identity}
    els.update(gens)
    frontier = list(els)
    while frontier:
        new = []
        for t in frontier:
            for g in gens:
                c = compose(t, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def stabilizer(elements, point: int) -> list[tuple]:
    return [e for e in elements if e[point] == point]


def setwise_pair_stabilizer(elements, a: int, b: int) -> list[tuple]:
    return [e for e in elements if {e[a], e[b]} == {a, b}]


def orbit_of(gens: list[tuple], point: int) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def exhaustive_lengths(elements, n: int) -> set[int]:
    """Achievable irredundant-base cardinalities by trying EVERY point at
    every position (a point extends the chain iff the stabilizer strictly
    drops, which is exactly irredundancy)."""
    lengths: set[int] = set()
    elems = list(elements)

    def rec(current: list[tuple], depth: int) -> None:
        if len(current) == 1:
            lengths.add(depth)
            return
        for p in range(n):
            sub = [e for e in current if e[p] == p]
            if len(sub) < len(current):
                rec(sub, depth + 1)

    rec(elems, 0)
    return lengths


def min_base_oracle(elements, n: int) -> int:
    return min(exhaustive_lengths(elements, n)) if len(list(elements)) > 1 else 0


def transversal_products(transversals: list[list[tuple]], n: int) -> list[tuple]:
    """Every product h*u through a chain, as the recursive walk forms it:
    h over the products of the deeper levels, u over the level's coset
    representatives in the order given."""
    if not transversals:
        return [tuple(range(n))]
    return [compose(h, u) for h in transversal_products(transversals[1:], n) for u in transversals[0]]


def queue_bfs(edges: list[tuple], sv: list, depth: list, orbit: list,
              pos: int = 0, first_edge: int = 0, limit: int | None = None):
    """Point-by-point queue BFS over a Schreier vector, updating the plain
    lists sv/depth/orbit in place: each point from orbit[pos] on meets
    edges[first_edge:], each edge a (forward, backward) pair of tuples
    coded 2*t + d.  Returns the first point found deeper than limit, or
    None once the orbit is closed."""
    limit = len(sv) if limit is None else limit
    steps = [(2 * t + d, arr) for t in range(first_edge, len(edges)) for d, arr in enumerate(edges[t])]
    while pos < len(orbit):
        a = orbit[pos]
        pos += 1
        for code, arr in steps:
            b = arr[a]
            if sv[b] == -2:
                sv[b] = code
                depth[b] = depth[a] + 1
                orbit.append(b)
                if depth[b] > limit:
                    return b
    return None
