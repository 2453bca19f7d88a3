"""Exact computation with interval exchange transformations."""

from ietlab.core import (
    Component,
    Domain,
    DomainMismatchError,
    Iet,
    IetError,
    PartitionError,
    Point,
    SelfCheckError,
    Subdomain,
    circle_rotation,
    from_lengths,
    interval_rotation,
    lengths_of,
    make_point,
    permutation_of,
)
from ietlab.field import (
    ConstraintSystem,
    FieldMismatchError,
    LinConstraint,
    LiteralError,
    QuadNum,
    Rel,
    format_number,
    lp_rational_point,
    parse_number,
)
from ietlab.relations import Word, free_reduce, relation_certificate
from ietlab.suspension import NormCertificate, minimal_model, norm_bounds
from ietlab.textio import parse_iet, serialize_iet

__all__ = [
    "Component",
    "ConstraintSystem",
    "Domain",
    "DomainMismatchError",
    "FieldMismatchError",
    "Iet",
    "IetError",
    "LinConstraint",
    "LiteralError",
    "NormCertificate",
    "PartitionError",
    "Point",
    "QuadNum",
    "Rel",
    "SelfCheckError",
    "Subdomain",
    "Word",
    "circle_rotation",
    "format_number",
    "free_reduce",
    "from_lengths",
    "interval_rotation",
    "lengths_of",
    "lp_rational_point",
    "make_point",
    "minimal_model",
    "norm_bounds",
    "parse_iet",
    "parse_number",
    "permutation_of",
    "relation_certificate",
    "serialize_iet",
]

__version__ = "0.1.0"
