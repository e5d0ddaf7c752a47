"""Exact arithmetic in GF(p^f).

Elements are residue classes of GF(p)[x] modulo a fixed monic irreducible
polynomial of degree f.  An element is always a plain int: the encoding
sum(c_i * p**i) of its reduced coefficient vector (c_0, ..., c_{f-1}).
All arithmetic goes through the ``*_enc`` methods of :class:`FieldSpec`,
and the encoding doubles as the canonical ordering used everywhere else in
the package (domain indexing, tie-breaking, witness determinism).

Unless a modulus is given explicitly, each (p, f) gets the lexicographically
smallest monic irreducible polynomial, comparing coefficient vectors
low-degree first.  This fixes one concrete field model per (p, f) so that
every downstream computation is reproducible.
"""

from __future__ import annotations

from typing import Sequence

from .ntheory import distinct_prime_factors, is_prime


# --------------------------------------------------------------------------
# polynomial arithmetic over GF(p), coefficient tuples low-degree first
# --------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo the monic polynomial `mod`
    deg_m = len(mod) - 1
    for i in range(len(out) - 1, deg_m - 1, -1):
        c = out[i]
        if c == 0:
            continue
        out[i] = 0
        for j in range(deg_m):
            out[i - deg_m + j] = (out[i - deg_m + j] - c * mod[j]) % p
    return _poly_trim(out)


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _poly_trim(list(a))
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Whether the monic polynomial with the given coefficients (low-degree
    first, length f+1) is irreducible over GF(p).

    Uses the standard criterion: x**(p**f) == x mod m, and
    x**(p**(f/l)) != x for every prime l dividing f.
    """
    f = len(coeffs) - 1
    if f < 1 or coeffs[-1] != 1:
        return False
    if f == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    x = (0, 1)
    g = x
    powers = [x]  # powers[k] = x**(p**k) mod m
    for _ in range(f):
        g = _poly_powmod(g, p, coeffs, p)
        powers.append(g)
    if g != x:
        return False
    for ell in distinct_prime_factors(f):
        if powers[f // ell] == x:
            return False
    return True


_MODULUS_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def default_modulus(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree f over GF(p),
    coefficient vectors compared low-degree first."""
    key = (p, f)
    cached = _MODULUS_CACHE.get(key)
    if cached is not None:
        return cached
    if f == 1:
        poly = (0, 1)  # x itself: GF(p)[x]/(x) is the prime field
        _MODULUS_CACHE[key] = poly
        return poly
    for idx in range(p**f):
        digits = []
        rest = idx
        for _ in range(f):  # c_{f-1} varies fastest: c_0 most significant
            digits.append(rest % p)
            rest //= p
        coeffs = tuple(reversed(digits)) + (1,)
        if is_irreducible(coeffs, p):
            _MODULUS_CACHE[key] = coeffs
            return coeffs
    raise RuntimeError(f"no irreducible polynomial of degree {f} over GF({p})")


# --------------------------------------------------------------------------
# field model
# --------------------------------------------------------------------------

_TABLE_LIMIT = 1 << 16


class FieldSpec:
    """A concrete model of GF(p^f): characteristic, degree and modulus.

    Elements are integer encodings in ``range(order)``; ``add_enc``,
    ``mul_enc``, ``inv_enc``, ``pow_enc`` and ``frobenius_enc`` take and
    return encodings.  ``digits`` and ``encode`` convert between an encoding
    and its coefficient vector.
    """

    __slots__ = ("p", "f", "order", "modulus", "_exp", "_log", "_frob1")

    def __init__(self, p: int, f: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if f < 1:
            raise ValueError(f"extension degree must be >= 1, got {f}")
        if modulus is None:
            modulus = default_modulus(p, f)
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.f = f
        self.order = p**f
        self.modulus = modulus
        if self.order <= _TABLE_LIMIT:
            self._build_log_tables()
        else:
            self._exp = self._log = None
        if self._exp is not None and self.order > 2:
            q1 = self.order - 1
            frob = [0] + [self._exp[(self._log[a] * p) % q1] for a in range(1, self.order)]
        else:
            frob = [self._pow_raw(a, p) for a in range(self.order)]
        self._frob1 = frob

    # -- encoding helpers ---------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.f:
            raise ValueError("coefficient vector longer than the degree")
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (int(c) % self.p)
        return val

    # -- raw arithmetic on encodings -----------------------------------------

    def add_enc(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        val, shift = 0, 1
        for _ in range(self.f):
            val += ((a + b) % self.p) * shift
            a //= self.p
            b //= self.p
            shift *= self.p
        return val

    def _mul_raw(self, a: int, b: int) -> int:
        prod = _poly_mulmod(self.digits(a), self.digits(b), self.modulus, self.p)
        return self.encode(prod)

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return result

    def _build_log_tables(self) -> None:
        q = self.order
        gen = None
        factors = distinct_prime_factors(q - 1) if q > 2 else []
        for cand in range(2, q):
            if all(self._pow_raw(cand, (q - 1) // ell) != 1 for ell in factors):
                gen = cand
                break
        if gen is None:
            gen = 1  # GF(2): trivial multiplicative group
        exp = [1] * (2 * (q - 1) if q > 2 else 2)
        log = [0] * q
        val = 1
        for i in range(q - 1):
            exp[i] = val
            log[val] = i
            val = self._mul_raw(val, gen)
        for i in range(q - 1, len(exp)):
            exp[i] = exp[i - (q - 1)]
        self._exp = exp
        self._log = log

    def mul_enc(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self._pow_raw(a, self.order - 2)

    def pow_enc(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0
        e %= self.order - 1 if self.order > 2 else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)] if self.order > 2 else a
        return self._pow_raw(a, e)

    def frobenius_enc(self, a: int, k: int = 1) -> int:
        for _ in range(k % self.f):
            a = self._frob1[a]
        return a

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, f={self.f}, modulus={list(self.modulus)})"


def subfield_generator(spec: FieldSpec, k: int) -> int:
    """The encoding of a generator of the multiplicative group of the
    order-p^k subfield.

    Deterministic: among all elements of multiplicative order p^k - 1, the
    one with the smallest integer encoding is returned.  Requires k | f.
    """
    if k < 1 or spec.f % k != 0:
        raise ValueError(f"subfield degree {k} does not divide {spec.f}")
    target = spec.p**k - 1
    if target == 1:
        return 1
    ell_factors = distinct_prime_factors(target)
    for v in range(2, spec.order):
        if spec.pow_enc(v, target) != 1:
            continue
        if all(spec.pow_enc(v, target // ell) != 1 for ell in ell_factors):
            return v
    raise RuntimeError(f"no element of order {target} found (invalid field model?)")
