"""The Suzuki groups Sz(q), q = 2^(2m+1), acting on the ovoid and on its
unordered pairs.

The ovoid consists of the point at infinity together with all triples
(h1, h2, h3) over GF(q) satisfying

    h3 = h1*h2 + s(h1)*h1^2 + s(h2),

where s is the twisting automorphism x -> x^(2^(m+1)).  The group is
generated by translations fixing infinity, diagonal scalings, and an
involution swapping infinity with the zero triple; extending by the field
automorphisms gives the full automorphism group of Sz(q).

Every generator is validated at construction time: images must satisfy the
ovoid equation and form a bijection.  This guards both against arithmetic
bugs and against transcription slips in the defining formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, subfield_generator
from .ntheory import prime_factors
from .perm import Domain, PermGroup, Permutation, induced_pair_action, pair_domain

INFINITY = "inf"


class ConstructionError(RuntimeError):
    """An internally built permutation failed its ovoid integrity check."""


@dataclass(frozen=True)
class SuzukiParams:
    """Parameters of Sz(q): q = 2^(2m+1) with m >= 1."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("requires m >= 1 (q = 2 gives a solvable group and is excluded)")

    @property
    def f(self) -> int:
        return 2 * self.m + 1

    @property
    def q(self) -> int:
        return 2**self.f

    def field(self) -> FieldSpec:
        return FieldSpec(2, self.f)


class SuzukiOvoid:
    """The ovoid domain of Sz(q) together with its generator permutations.

    Point 0 is infinity; finite points are sorted by the integer encodings
    of (h1, h2).  Labels are (h1, h2, h3) encoding triples, or "inf".
    """

    def __init__(self, params: SuzukiParams):
        self.params = params
        self.field = params.field()
        fld = self.field
        q = params.q
        self._sig_k = params.m + 1  # s(x) = x^(2^(m+1))
        labels: list = [INFINITY]
        zeros = 0
        for e1 in range(q):
            s1 = fld.frobenius_enc(e1, self._sig_k)
            e1_sq = fld.mul_enc(e1, e1)
            t1 = fld.mul_enc(s1, e1_sq)  # h1^(sigma+2)
            for e2 in range(q):
                e3 = fld.mul_enc(e1, e2) ^ t1 ^ fld.frobenius_enc(e2, self._sig_k)
                if e3 == 0:
                    zeros += 1
                labels.append((e1, e2, e3))
        if zeros != 1:
            raise ConstructionError(
                f"expected exactly one finite point with h3 = 0, found {zeros}"
            )
        self.domain = Domain(labels)

    # -- helpers -------------------------------------------------------------

    def _sigma(self, v: int) -> int:
        return self.field.frobenius_enc(v, self._sig_k)

    def point_index(self, e1: int, e2: int) -> int:
        """Index of the finite ovoid point with first two coordinates."""
        return 1 + e1 * self.params.q + e2

    def point_label(self, e1: int, e2: int) -> tuple[int, int, int]:
        return self.domain.labels[self.point_index(e1, e2)]

    def _finish(self, image: list[int], name: str) -> Permutation:
        img = np.asarray(image, dtype=np.int32)
        seen = np.zeros(self.domain.size, dtype=bool)
        seen[img] = True
        if not seen.all():
            raise ConstructionError(f"{name} is not a bijection of the ovoid")
        img.setflags(write=False)
        return Permutation(self.domain, img, _validate=False)

    def _checked_finite_image(self, e1: int, e2: int, e3: int, name: str) -> int:
        idx = self.point_index(e1, e2)
        if self.domain.labels[idx][2] != e3:
            raise ConstructionError(f"{name} maps a point off the ovoid")
        return idx

    # -- generators ------------------------------------------------------------

    def translation(self, a: int, b: int) -> Permutation:
        """The translation indexed by (a, b): fixes infinity and sends

            h1 -> h1 + a
            h2 -> h2 + b + s(a)*h1
            h3 -> h3 + a*b + a^(s+2) + s(b) + a*h2 + a^(s+1)*h1 + b*h1
        """
        fld = self.field
        sa = self._sigma(a)
        sb = self._sigma(b)
        a_sq = fld.mul_enc(a, a)
        const3 = fld.mul_enc(a, b) ^ fld.mul_enc(sa, a_sq) ^ sb
        coef_h1 = fld.mul_enc(sa, a) ^ b  # a^(s+1) + b
        image = [0]
        for idx in range(1, self.domain.size):
            h1, h2, h3 = self.domain.labels[idx]
            n1 = h1 ^ a
            n2 = h2 ^ b ^ fld.mul_enc(sa, h1)
            n3 = h3 ^ const3 ^ fld.mul_enc(a, h2) ^ fld.mul_enc(coef_h1, h1)
            image.append(self._checked_finite_image(n1, n2, n3, "translation"))
        return self._finish(image, "translation")

    def diagonal(self, c: int) -> Permutation:
        """The scaling by c != 0: (h1, h2, h3) -> (c*h1, c^(s+1)*h2, c^(s+2)*h3)."""
        fld = self.field
        if c == 0:
            raise ValueError("diagonal scaling requires a nonzero scalar")
        sc = self._sigma(c)
        c1 = fld.mul_enc(sc, c)
        c2 = fld.mul_enc(sc, fld.mul_enc(c, c))
        image = [0]
        for idx in range(1, self.domain.size):
            h1, h2, h3 = self.domain.labels[idx]
            image.append(
                self._checked_finite_image(
                    fld.mul_enc(c, h1), fld.mul_enc(c1, h2), fld.mul_enc(c2, h3), "diagonal"
                )
            )
        return self._finish(image, "diagonal")

    def involution(self) -> Permutation:
        """The involution swapping infinity with the zero triple and sending
        (h1, h2, h3) -> (h2/h3, h1/h3, 1/h3) when h3 != 0."""
        fld = self.field
        zero_idx = self.point_index(0, 0)
        image = [zero_idx]
        for idx in range(1, self.domain.size):
            h1, h2, h3 = self.domain.labels[idx]
            if h3 == 0:
                image.append(0)  # the zero triple; uniqueness checked at build
                continue
            inv3 = fld.inv_enc(h3)
            image.append(
                self._checked_finite_image(
                    fld.mul_enc(h2, inv3), fld.mul_enc(h1, inv3), inv3, "involution"
                )
            )
        return self._finish(image, "involution")

    def frobenius_perm(self, k: int = 1) -> Permutation:
        """Coordinatewise x -> x^(2^k) on finite points, fixing infinity."""
        if not 0 <= k < self.params.f:
            raise ValueError(f"exponent must satisfy 0 <= k < {self.params.f}")
        fld = self.field
        image = [0]
        for idx in range(1, self.domain.size):
            h1, h2, h3 = self.domain.labels[idx]
            image.append(
                self._checked_finite_image(
                    fld.frobenius_enc(h1, k),
                    fld.frobenius_enc(h2, k),
                    fld.frobenius_enc(h3, k),
                    "frobenius",
                )
            )
        return self._finish(image, "frobenius")

    # -- generator families ------------------------------------------------------

    def standard_generators(self, extended: bool = False) -> list[Permutation]:
        """Small generating set: two translations, a primitive scaling, the
        involution, plus the Frobenius permutation when extended."""
        mu = subfield_generator(self.field, self.params.f)
        gens = [
            self.translation(1, 0),
            self.translation(0, 1),
            self.diagonal(mu),
            self.involution(),
        ]
        if extended:
            gens.append(self.frobenius_perm(1))
        return gens


@dataclass
class SuzukiAction:
    """A Suzuki group realized on the ovoid or on its unordered pairs."""

    params: SuzukiParams
    extended: bool
    action: str  # "delta" | "pairs"
    ovoid: SuzukiOvoid
    domain: Domain
    group: PermGroup


_OVOID_CACHE: dict[int, SuzukiOvoid] = {}


def build_ovoid(params: SuzukiParams) -> SuzukiOvoid:
    """The ovoid of Sz(q), of size q^2 + 1 (cached per parameter set)."""
    ov = _OVOID_CACHE.get(params.m)
    if ov is None:
        ov = SuzukiOvoid(params)
        _OVOID_CACHE[params.m] = ov
    return ov


def build_suzuki_group(
    params: SuzukiParams, extended: bool = False, action: str = "delta"
) -> SuzukiAction:
    """Sz(q) (or its extension by the field automorphisms) acting on the
    ovoid (`action="delta"`) or on unordered ovoid pairs (`action="pairs"`)."""
    if action not in ("delta", "pairs"):
        raise ValueError(f"unknown action {action!r}")
    ovoid = build_ovoid(params)
    gens = ovoid.standard_generators(extended)
    if action == "delta":
        domain: Domain = ovoid.domain
    else:
        domain = pair_domain(ovoid.domain)
        gens = [induced_pair_action(g, domain) for g in gens]
    return SuzukiAction(params, extended, action, ovoid, domain, PermGroup(domain, gens))


def witness_points(params: SuzukiParams, extended: bool = False) -> list[tuple]:
    """The explicit pair sequence used by the verification suite, as pairs
    of ovoid labels.

    The first three pairs form an irredundant base of the unextended group;
    for the extension, one additional pair per prime factor of f pins down
    the field automorphisms through the tower of subfields.
    """
    ovoid = build_ovoid(params)
    fld = ovoid.field
    inf = INFINITY
    zero = ovoid.point_label(0, 0)
    seq = [
        (zero, inf),
        (ovoid.point_label(1, 0), ovoid.point_label(0, 1)),
        (zero, ovoid.point_label(1, 1)),
    ]
    if extended:
        deg = 1
        for p in prime_factors(params.f):
            deg *= p
            zeta = subfield_generator(fld, deg)
            seq.append((ovoid.point_label(zeta, 0), inf))
    return seq


def witness_base_indices(act: SuzukiAction) -> list[int]:
    """witness_points translated to indices of the pair domain."""
    if act.action != "pairs":
        raise ValueError("the witness sequence lives on the pair action")
    out = []
    for la, lb in witness_points(act.params, act.extended):
        ia = act.ovoid.domain.index_of(la)
        ib = act.ovoid.domain.index_of(lb)
        out.append(act.domain.pair_index(ia, ib))
    return out
