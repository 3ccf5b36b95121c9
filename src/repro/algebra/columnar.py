"""Chunking for every chunk-streamed path.

Streamed answers travel as tuples of at most ``chunk_size`` rows: the
evaluator yields them, and the mask kernel of
:mod:`repro.core.compiled_mask` transposes each chunk into columns and
masks it with one pass per distinct comparison.
:func:`iter_chunks` bounds an arbitrary row iterator into such chunks.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Tuple

from repro.algebra.types import Value

#: A database row (duplicated from ``relation`` to avoid a cycle).
_Row = Tuple[Value, ...]

#: Default rows per chunk for every chunk-streamed path.  Large enough
#: that per-chunk fixed costs (transpose, one pass per comparison) amortize,
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
