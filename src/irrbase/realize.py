"""Realizing an integer interval as the achievable-length set of a
primitive group.

Any interval {a, ..., b} with a >= 2 is covered by three families:

* a == b: the symmetric group Sym(a+1) in its natural action, where every
  irredundant base has exactly a points.
* a == 2: a Suzuki group on unordered ovoid pairs; the unextended group
  realizes {2, 3}, and extensions by the field automorphisms of
  GF(2^f), f a product of b-3 odd primes, stretch the top to b.
* a >= 3: an affine semilinear group AGL_{a-2}(2^f) x automorphisms on
  vectors, f a product of b-a+1 primes: the minimum is (a-2)+2 = a (any
  smaller sequence is fixed by an automorphism twist) and the maximum is
  (a-2)+1+(b-a+1) = b.

Witness parameters are often astronomically large; `witness_spec` is total,
while `instantiate` refuses anything beyond the resource guard.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .affine import AffineParams, affine_group_order, build_affine_group
from .ntheory import first_primes, prime_factors
from .perm import Domain, PermGroup, symmetric_natural
from .suzuki import SuzukiParams, build_suzuki_group

ENV_MAX_POINTS = "IRRBASE_MAX_POINTS"

# The actions each family is built on; instantiate rejects any other pairing.
ACTIONS = {"symmetric": ("natural",), "suzuki": ("delta", "pairs"), "affine": ("vectors",)}


class UnsupportedIntervalError(ValueError):
    """The requested interval is outside the construction's hypotheses."""


class GuardExceededError(RuntimeError):
    """Instantiation refused: the witness exceeds the resource guard."""

    def __init__(self, message: str, domain_size: int, order_bits: int):
        super().__init__(message)
        self.domain_size = domain_size
        self.order_bits = order_bits


def prime_factor_count(n: int) -> int:
    """Number of prime divisors of n counted with multiplicity."""
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    return len(prime_factors(n))


@dataclass(frozen=True)
class ResourceGuard:
    max_points: int = 10**6
    max_order_bits: int = 128

    @classmethod
    def from_env(cls) -> "ResourceGuard":
        raw = os.environ.get(ENV_MAX_POINTS)
        if raw is None:
            return cls()
        try:
            return cls(max_points=int(raw))
        except ValueError:
            raise ValueError(f"{ENV_MAX_POINTS} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class GroupSpec:
    """A serializable description of a witness group."""

    family: str  # "symmetric" | "suzuki" | "affine"
    params: tuple[tuple[str, int], ...]
    extended: bool
    action: str  # one of ACTIONS[family]
    expected_lengths: tuple[int, ...]

    def param(self, key: str) -> int:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "extended": self.extended,
            "action": self.action,
            "expected_lengths": list(self.expected_lengths),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupSpec":
        """Parse the JSON form; malformed input raises KeyError, TypeError or
        ValueError.  Values are checked, never coerced: a string "false" is
        not a bool and 2.9 is not an integer."""
        params = data["params"]
        if not isinstance(params, dict):
            raise TypeError(f"params must be a JSON object, got {type(params).__name__}")
        for key in ("family", "action"):
            if not isinstance(data[key], str):
                raise TypeError(f"{key} must be a JSON string, got {type(data[key]).__name__}")
        if not isinstance(data["extended"], bool):
            raise TypeError(f"extended must be a JSON bool, got {data['extended']!r}")
        lengths = data.get("expected_lengths", [])
        if not isinstance(lengths, list):
            raise TypeError(f"expected_lengths must be a JSON list, got {lengths!r}")
        for what, value in [*params.items(), *(("expected_lengths", x) for x in lengths)]:
            if type(value) is not int:
                raise TypeError(f"{what} must be a JSON integer, got {value!r}")
        return cls(
            family=data["family"],
            params=tuple(sorted(params.items())),
            extended=data["extended"],
            action=data["action"],
            expected_lengths=tuple(lengths),
        )


def witness_spec(a: int, b: int, explicit_f: int | None = None) -> GroupSpec:
    """The witness GroupSpec whose achievable-length set is {a, ..., b}.

    `explicit_f` overrides the default first-k-primes choice of the field
    degree in the Suzuki and affine branches; it must have the right number
    of prime factors (counted with multiplicity, and odd in the Suzuki
    branch)."""
    if a < 2:
        raise UnsupportedIntervalError("intervals containing 1 are not realizable here (a >= 2)")
    if b < a:
        raise UnsupportedIntervalError(f"empty interval: [{a}, {b}]")
    expected = tuple(range(a, b + 1))
    if a == b:
        if explicit_f is not None:
            raise UnsupportedIntervalError("explicit_f does not apply to the symmetric branch")
        return GroupSpec("symmetric", (("n", a + 1),), False, "natural", expected)
    if a == 2:
        if b == 3 and explicit_f is None:
            return GroupSpec("suzuki", (("m", 1),), False, "pairs", expected)
        k = b - 3
        f = explicit_f if explicit_f is not None else math.prod(first_primes(k, odd_only=True))
        if f % 2 == 0 or f < 3:
            raise UnsupportedIntervalError(f"field degree must be odd and >= 3, got {f}")
        if prime_factor_count(f) != k:
            raise UnsupportedIntervalError(
                f"field degree {f} has {prime_factor_count(f)} prime factors, need {k}"
            )
        return GroupSpec("suzuki", (("m", (f - 1) // 2),), True, "pairs", expected)
    # a >= 3: affine semilinear witness with minimum a = d + 2
    d = a - 2
    k = b - a + 1
    f = explicit_f if explicit_f is not None else math.prod(first_primes(k))
    if prime_factor_count(f) != k:
        raise UnsupportedIntervalError(
            f"field degree {f} has {prime_factor_count(f)} prime factors, need {k}"
        )
    if f < 2:
        raise UnsupportedIntervalError("the affine branch needs a nontrivial field extension")
    return GroupSpec("affine", (("d", d), ("f", f), ("p", 2)), True, "vectors", expected)


# --------------------------------------------------------------------------
# size estimates and instantiation
# --------------------------------------------------------------------------

def estimate_domain_size(spec: GroupSpec) -> int:
    if spec.family == "symmetric":
        return spec.param("n")
    if spec.family == "suzuki":
        q = 2 ** (2 * spec.param("m") + 1)
        n = q * q + 1
        return n * (n - 1) // 2 if spec.action == "pairs" else n
    if spec.family == "affine":
        return spec.param("p") ** (spec.param("f") * spec.param("d"))
    raise ValueError(f"unknown family {spec.family!r}")


def estimate_order(spec: GroupSpec) -> int:
    if spec.family == "symmetric":
        return math.factorial(spec.param("n"))
    if spec.family == "suzuki":
        f = 2 * spec.param("m") + 1
        q = 2**f
        base = q * q * (q * q + 1) * (q - 1)
        return base * (f if spec.extended else 1)
    if spec.family == "affine":
        params = AffineParams(d=spec.param("d"), p=spec.param("p"), f=spec.param("f"))
        return affine_group_order(params, spec.extended)
    raise ValueError(f"unknown family {spec.family!r}")


def describe_size(n: int) -> str:
    """Decimal for small integers, a power-of-two bound for huge ones."""
    if n.bit_length() <= 64:
        return str(n)
    return f"about 2^{n.bit_length() - 1}"


def check_guard(spec: GroupSpec, guard: ResourceGuard) -> None:
    size = estimate_domain_size(spec)
    bits = estimate_order(spec).bit_length()
    if size > guard.max_points or bits > guard.max_order_bits:
        raise GuardExceededError(
            f"witness needs {describe_size(size)} points and a {bits}-bit order "
            f"(guard: {guard.max_points} points, {guard.max_order_bits} bits)",
            domain_size=size,
            order_bits=bits,
        )


def instantiate(spec: GroupSpec, guard: ResourceGuard | None = None) -> tuple[PermGroup, Domain]:
    """Build the witness group, or refuse with a GuardExceededError carrying
    the estimated sizes (the spec itself remains valid output).

    The group carries ``estimate_order(spec)`` as its ``order_bound``.  That
    is sound: the generators lie in Sym(n), Sz(q) extended by the field
    automorphisms, or AGammaL_d(p^f) by construction, and the estimate is
    the order of that ambient group, so no subgroup they generate exceeds
    it.  The chain stays lazy; nothing is built here."""
    allowed = ACTIONS.get(spec.family)
    if allowed is None:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.action not in allowed:
        raise ValueError(
            f"action {spec.action!r} does not fit family {spec.family!r} "
            f"(expected {' or '.join(map(repr, allowed))})"
        )
    guard = guard if guard is not None else ResourceGuard.from_env()
    check_guard(spec, guard)
    if spec.family == "symmetric":
        group = symmetric_natural(spec.param("n"))
    elif spec.family == "suzuki":
        group = build_suzuki_group(
            SuzukiParams(m=spec.param("m")), extended=spec.extended, action=spec.action
        ).group
    else:
        group = build_affine_group(
            AffineParams(d=spec.param("d"), p=spec.param("p"), f=spec.param("f")),
            extended=spec.extended,
        ).group
    return PermGroup(group.domain, group.generators, order_bound=estimate_order(spec)), group.domain
