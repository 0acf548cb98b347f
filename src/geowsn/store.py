"""One coded record store, under the run log and the sink.

A record is a time, a code and a value; the code indexes ``entries``,
which the owner extends on an entry's first use.  The hot path extends
``pending`` with a record's three slots, with no call, and ``spill``
packs them into a block: each int column (time, code, an int value) as
its least value and its offsets from it in the narrowest of ``B``,
``H``, ``I`` and ``Q``; a float value as ``array('d')``, with no base,
which would turn ``-0.0`` into ``0.0``.  Each array is made at its
final size, so a long run's blocks leave no holes in the heap.  An
entry's line format, made at its first render, holds the time as ``%d``
and then the value, so a block renders as bytes with one ``%``.  Both
codings are standard column-store techniques: dictionary (Abadi, Madden
and Ferreira, SIGMOD 2006) and frame of reference (Goldstein,
Ramakrishnan and Shaft, ICDE 1998).
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import add
from typing import Callable, Iterator

#: the narrowest unsigned typecode for offsets of each byte length
_TYPECODES = "BBHIIQQQQ"


def _pack(column: list[int]) -> tuple[int, array]:
    """An int column's least value and its offsets from that value,
    which are the column itself when that value is 0."""
    base = min(column)
    typecode = _TYPECODES[((max(column) - base).bit_length() + 7) // 8]
    return base, array(typecode, [value - base for value in column]
                       if base else column)


def _columns(block: tuple) -> list:
    """A block's time, code and value columns, each nonzero base added."""
    bases, *columns = block
    return [map(add, repeat(base), column) if base else column
            for base, column in zip(bases, columns)]


class Store:
    """Records whose values have one typecode, ``q`` or ``d``:
    ``line(entry)`` gives an entry's line format, and ``item(time,
    entry, value)`` the item that iterating yields; ``handle``, if
    given, takes the bytes of each spill.  ``len`` renders nothing."""

    def __init__(self, typecode: str, line: Callable[[tuple], bytes],
                 item: Callable, handle=None):
        self.entries: list[tuple] = []
        #: time, code, value per record not yet spilled
        self.pending: list = []
        self.handle = handle
        self._typecode = typecode
        #: per spill the time, code and value bases and their arrays
        self._blocks: list[tuple[tuple, array, array, array]] = []
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
        for columns in chain(map(_columns, self._blocks), [(pending,) * 3]):
            for at, code, value in zip(*columns):
                yield item(at, entries[code], value)

    def spill(self) -> None:
        """Pack the pending records into a block, write and flush its
        bytes to the handle, if there is one, then keep the block."""
        pending = self.pending
        if not pending:
            return
        (at, times), (code, codes) = _pack(pending[::3]), _pack(pending[1::3])
        value, values = (_pack(pending[2::3]) if self._typecode == "q"
                         else (None, array("d", pending[2::3])))
        block = ((at, code, value), times, codes, values)
        if self.handle is not None:
            self.handle.write(self._render(block))
            self.handle.flush()
        self._blocks.append(block)
        self._packed += len(values)
        pending.clear()

    def chunks(self) -> Iterator[bytes]:
        """The packed records' bytes, a block at a time."""
        return map(self._render, self._blocks)

    def _render(self, block: tuple) -> bytes:
        formats = self._formats
        formats += map(self._line, self.entries[len(formats):])
        times, codes, values = _columns(block)
        slots = [0] * (2 * len(block[3]))
        slots[::2] = times
        slots[1::2] = values
        return b"".join(map(formats.__getitem__, codes)) % tuple(slots)
