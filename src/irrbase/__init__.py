"""irrbase: irredundant-base analysis for finite permutation groups.

The package builds explicit primitive permutation groups (Suzuki groups on
2-subsets of the ovoid, affine and affine semilinear groups on vectors,
symmetric groups), computes the set of achievable irredundant-base
cardinalities, and realizes a requested integer interval as that set.
"""

from .affine import AffineParams, build_affine_group
from .chains import (
    BaseSequence,
    ChainReport,
    IntervalReport,
    achievable_lengths,
    chain_report,
    is_irredundant_base,
    max_irredundant_length,
    min_base_length,
)
from .gf import FieldSpec
from .perm import Domain, PermGroup, Permutation, symmetric_natural
from .realize import (
    GroupSpec,
    GuardExceededError,
    ResourceGuard,
    instantiate,
    witness_spec,
)
from .suzuki import SuzukiParams, build_suzuki_group

__all__ = [
    "AffineParams",
    "BaseSequence",
    "ChainReport",
    "Domain",
    "FieldSpec",
    "GroupSpec",
    "GuardExceededError",
    "IntervalReport",
    "PermGroup",
    "Permutation",
    "ResourceGuard",
    "SuzukiParams",
    "achievable_lengths",
    "build_affine_group",
    "build_suzuki_group",
    "chain_report",
    "instantiate",
    "is_irredundant_base",
    "max_irredundant_length",
    "min_base_length",
    "symmetric_natural",
    "witness_spec",
]

__version__ = "0.1.0"
