"""One coded record store, under the run log and the sink.

A record is a time, a code and a value; the code indexes ``entries``,
which the owner extends on an entry's first use.  The hot path extends
``pending`` with a record's three slots, with no call, and ``spill``
packs them into a block: an ``array('q')`` of time and code and a value
array, each made at its final size, so no array ever grows and the
blocks of a long run leave no holes in the heap as they pile up.  An
entry's line format, made at its first render, holds the time as ``%d``
and then the value, so a block renders as bytes with one ``%``.
Dictionary encoding of this kind is the standard column-store technique
(Abadi, Madden and Ferreira, SIGMOD 2006).
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator


class Store:
    """Records whose values have one typecode: ``line(entry)`` gives an
    entry's line format, and ``item(time, entry, value)`` the item that
    iterating yields; ``handle``, if given, takes the bytes of each spill.
    ``len`` renders nothing."""

    def __init__(self, typecode: str, line: Callable[[tuple], bytes],
                 item: Callable, handle=None):
        self.entries: list[tuple] = []
        #: time, code, value per record not yet spilled
        self.pending: list = []
        self.handle = handle
        self._typecode = typecode
        #: each spill's time-and-code array and value array
        self._blocks: list[tuple[array, array]] = []
        self._packed = 0
        self._line = line
        self._item = item
        self._formats: list[bytes] = []

    def __len__(self) -> int:
        return self._packed + len(self.pending) // 3

    def __iter__(self) -> Iterator:
        entries, item = self.entries, self._item
        # one iterator over the pending slots yields time, code and value
        pending = iter(self.pending)
        for keys, values in [*self._blocks, (pending, pending)]:
            keys = iter(keys)
            for at, code, value in zip(keys, keys, values):
                yield item(at, entries[code], value)

    def spill(self) -> None:
        """Write and flush the pending records' bytes to the handle, if
        there is one, then pack the records into a block."""
        pending = self.pending
        if not pending:
            return
        values = pending[2::3]
        if self.handle is not None:
            self.handle.write(self._render(pending[::3], pending[1::3], values))
            self.handle.flush()
        del pending[2::3]
        self._blocks.append((array("q", pending), array(self._typecode, values)))
        self._packed += len(values)
        pending.clear()

    def chunks(self) -> Iterator[bytes]:
        """The packed records' bytes, a block at a time."""
        for keys, values in self._blocks:
            yield self._render(keys[::2], keys[1::2], values)

    def _render(self, times, codes, values) -> bytes:
        formats = self._formats
        formats += map(self._line, self.entries[len(formats):])
        slots = [0] * (2 * len(values))
        slots[::2] = times
        slots[1::2] = values
        return b"".join(map(formats.__getitem__, codes)) % tuple(slots)
