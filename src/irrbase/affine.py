"""Affine groups AGL_d(q) and their semilinear extensions on F_q^d.

Vectors are labelled by tuples of field-element encodings; the domain index
encodes coordinates in base q with the last coordinate most significant, so
index 0 is the zero vector.  The group is generated by unit translations,
a translation by a primitive scalar, standard GL generators (transvection,
primitive diagonal scaling, coordinate cycle) and, for the semilinear
extension, the coordinatewise Frobenius map.

The generating set is not taken on faith: the test suite checks the group
order against the closed form q^d * prod_i (q^d - q^i) (times f when
extended), itself validated by exhaustive enumeration in small cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, subfield_generator
from .ntheory import prime_factors
from .perm import Domain, PermGroup, Permutation


@dataclass(frozen=True)
class AffineParams:
    """Dimension d >= 1 over GF(p^f)."""

    d: int
    p: int = 2
    f: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.f

    def field(self) -> FieldSpec:
        return FieldSpec(self.p, self.f)

    @property
    def domain_size(self) -> int:
        return self.q**self.d


class AffineSpace:
    """The vector domain of AGL_d(q) with its generator permutations."""

    def __init__(self, params: AffineParams):
        self.params = params
        self.field = params.field()
        q = params.q
        d = params.d
        labels = []
        for idx in range(q**d):
            v = []
            rest = idx
            for _ in range(d):
                v.append(rest % q)
                rest //= q
            labels.append(tuple(v))
        self.domain = Domain(labels)

    def vector_index(self, coords) -> int:
        q = self.params.q
        idx = 0
        for c in reversed([int(x) for x in coords]):
            idx = idx * q + c
        return idx

    def _perm_from_map(self, fn) -> Permutation:
        image = np.fromiter(
            (self.vector_index(fn(v)) for v in self.domain.labels),
            dtype=np.int32,
            count=self.domain.size,
        )
        return Permutation(self.domain, image)

    # -- generators -------------------------------------------------------------

    def translation(self, coords) -> Permutation:
        fld = self.field
        t = [int(c) for c in coords]
        return self._perm_from_map(lambda v: tuple(fld.add_enc(a, b) for a, b in zip(v, t)))

    def linear(self, rows) -> Permutation:
        """The right-action linear map v -> v*A for a matrix given by rows
        of field-element encodings."""
        fld = self.field
        d = self.params.d
        rows = [[int(c) for c in row] for row in rows]

        def act(v):
            out = [0] * d
            for i, vi in enumerate(v):
                if vi:
                    row = rows[i]
                    for j in range(d):
                        if row[j]:
                            out[j] = fld.add_enc(out[j], fld.mul_enc(vi, row[j]))
            return tuple(out)

        return self._perm_from_map(act)

    def frobenius_perm(self, k: int = 1) -> Permutation:
        fld = self.field
        return self._perm_from_map(lambda v: tuple(fld.frobenius_enc(c, k) for c in v))

    def standard_generators(self, extended: bool = False) -> list[Permutation]:
        d = self.params.d
        fld = self.field
        mu = subfield_generator(fld, self.params.f)
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            gens.append(self.translation(e))
        mu_e1 = [0] * d
        mu_e1[0] = mu
        gens.append(self.translation(mu_e1))
        diag = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        diag[0][0] = mu
        gens.append(self.linear(diag))
        if d >= 2:
            trans = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
            trans[0][1] = 1
            gens.append(self.linear(trans))
            cyc = [[0] * d for _ in range(d)]
            for i in range(d):
                cyc[i][(i + 1) % d] = 1
            gens.append(self.linear(cyc))
        if extended and self.params.f > 1:
            gens.append(self.frobenius_perm(1))
        return gens


@dataclass
class AffineAction:
    """AGL_d(q) (or its semilinear extension) on the q^d vectors."""

    params: AffineParams
    extended: bool
    space: AffineSpace
    domain: Domain
    group: PermGroup


def build_affine_group(params: AffineParams, extended: bool = False) -> AffineAction:
    space = AffineSpace(params)
    gens = space.standard_generators(extended)
    return AffineAction(params, extended, space, space.domain, PermGroup(space.domain, gens))


def general_linear_order(d: int, q: int) -> int:
    """|GL_d(q)| = prod_{i<d} (q^d - q^i)."""
    n = 1
    qd = q**d
    for i in range(d):
        n *= qd - q**i
    return n


def affine_group_order(params: AffineParams, extended: bool = False) -> int:
    n = params.q**params.d * general_linear_order(params.d, params.q)
    return n * (params.f if extended else 1)


# --------------------------------------------------------------------------
# explicit base sequences
# --------------------------------------------------------------------------

def _basis_vector(d: int, i: int, scale: int = 1) -> tuple[int, ...]:
    v = [0] * d
    v[i] = scale
    return tuple(v)


def linear_frame_base(space: AffineSpace) -> list[int]:
    """(0, e_1, ..., e_{d-1}, mu*e_{d-1} + e_d): a minimum-length base of
    the plain affine group, of size d+1 (degenerate for d = 1 over GF(2),
    where the point stabilizer is already trivial).

    For d = 1 this reads (0, mu).  For the semilinear extension with f > 1
    it is NOT a base: a field automorphism combined with the matrix fixing
    e_1..e_{d-1} and adding (mu - mu^phi) * e_{d-1} to e_d fixes every
    listed vector (see semilinear_min_base).
    """
    d = space.params.d
    mu = subfield_generator(space.field, space.params.f)
    if d == 1:
        vecs = [(0,), (mu,)]
    else:
        vecs = [tuple([0] * d)]
        vecs += [_basis_vector(d, i) for i in range(d - 1)]
        last = [0] * d
        last[d - 2] = mu
        last[d - 1] = 1
        vecs.append(tuple(last))
    return [space.vector_index(v) for v in vecs]


def semilinear_min_base(space: AffineSpace) -> list[int]:
    """A minimum-length base of the semilinear extension.

    For f = 1 this is the d+1 frame base.  For f > 1 one extra point is
    required (and suffices): any d+1 vectors are fixed by a suitable
    automorphism twist, so the minimum is d+2.  The extra point mu*e_d
    (mu^2 for d = 1) kills the twist.
    """
    d = space.params.d
    base = linear_frame_base(space)
    if space.params.f == 1:
        return base
    mu = subfield_generator(space.field, space.params.f)
    if d == 1:
        extra = (space.field.mul_enc(mu, mu),)
    else:
        extra = _basis_vector(d, d - 1, mu)
    return base + [space.vector_index(extra)]


def semilinear_max_base(space: AffineSpace) -> list[int]:
    """(0, e_1, ..., e_d, z_1*e_1, ..., z_r*e_1): the longest irredundant
    base of the semilinear extension, of size d+1+r where r counts the
    prime factors of f with multiplicity.

    z_i generates the multiplicative group of the subfield of degree
    p_1*...*p_i, so each successive point cuts the surviving automorphism
    group by exactly one prime index.
    """
    d = space.params.d
    vecs = [tuple([0] * d)]
    vecs += [_basis_vector(d, i) for i in range(d)]
    deg = 1
    for pfac in prime_factors(space.params.f):
        deg *= pfac
        zeta = subfield_generator(space.field, deg)
        vecs.append(_basis_vector(d, 0, zeta))
    return [space.vector_index(v) for v in vecs]
