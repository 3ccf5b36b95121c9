"""S5 — meta-relations: storing access permissions (Section 3).

Meta-cells (blank / constant / variable, starred), meta-tuples with
provenance, the view encoder, the permit-clause decoder, and the
permission catalog holding the meta-relations plus the COMPARISON and
PERMISSION auxiliaries.
"""

from repro.meta.catalog import PermissionCatalog
from repro.meta.cell import BLANK_GLYPH, MetaCell
from repro.meta.decode import permit_clauses
from repro.meta.encode import EncodedView, encode_view
from repro.meta.metatuple import (
    MetaTuple,
    TupleId,
    blank_tuple,
    canonical_key,
)

__all__ = [
    "BLANK_GLYPH",
    "EncodedView",
    "MetaCell",
    "MetaTuple",
    "PermissionCatalog",
    "TupleId",
    "blank_tuple",
    "canonical_key",
    "encode_view",
    "permit_clauses",
]
