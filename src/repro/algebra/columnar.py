"""Columnar chunk utilities.

The columnar data plane (ROADMAP item 5) views a relation as a tuple
of per-column value sequences instead of a sequence of row tuples:
:meth:`repro.algebra.relation.Relation.column_data` exposes that view,
and the mask kernels in :mod:`repro.core.compiled_mask` evaluate their
checks as per-column passes over chunks of it.  This module holds the
pieces both sides share:

* :func:`iter_chunks` — bound an arbitrary row iterator into fixed-size
  tuples, the unit of work of every chunk-streamed path;
* :func:`columns_of` — transpose a row chunk into column sequences.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence, Tuple

from repro.algebra.types import Value

#: A database row (duplicated from ``relation`` to avoid a cycle).
_Row = Tuple[Value, ...]

#: Default rows per chunk for every chunk-streamed path.  Large enough
#: that per-chunk fixed costs (transpose, flag allocation) amortize,
#: small enough that a chunk of wide rows stays comfortably in cache.
DEFAULT_CHUNK_SIZE = 8192


def iter_chunks(rows: Iterable[_Row],
                chunk_size: int = DEFAULT_CHUNK_SIZE
                ) -> Iterator[Tuple[_Row, ...]]:
    """Regroup ``rows`` into tuples of at most ``chunk_size`` rows.

    Bounded memory: only one chunk is buffered at a time.  A
    non-positive ``chunk_size`` degrades to 1 rather than failing —
    chunking granularity is an operational knob, never a correctness
    one.
    """
    if chunk_size <= 0:
        chunk_size = 1
    iterator = iter(rows)
    while True:
        chunk = tuple(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def columns_of(rows: Sequence[_Row],
               arity: int) -> Tuple[Tuple[Value, ...], ...]:
    """Transpose a row chunk into per-column value tuples.

    The empty chunk still yields ``arity`` (empty) columns, so callers
    never have to special-case it.
    """
    if not rows:
        return ((),) * arity
    return tuple(zip(*rows))
