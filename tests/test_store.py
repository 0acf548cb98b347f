"""The coded record store: what goes in comes out, as items and as bytes.

Records are added at random, spilled at random points and often left
with a pending tail.  Times and int values run over all of int64, from
values packed in narrow windows to blocks that span the whole range;
float values take in ``-0.0``, subnormals and the largest finite
floats.  A code indexes the store's entries, so codes run over tables
of up to 65,537 entries, which reach the ``I`` offsets.  Iteration
must yield exactly the records added, the bytes written to the handle,
``chunks()`` and a ``%`` rendering of each record on its own must be
one text, and every block must hold each column at its narrowest.
"""

import io
import sys
from array import array

import hypothesis.strategies as st
from hypothesis import example, given, settings

from geowsn.store import Store

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
#: int64 values that sit on the edge of an offset width or of the range
INT_EDGES = (INT64_MIN, -1, 0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, INT64_MAX)
#: floats whose sign or magnitude a packing could lose
FLOAT_EDGES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               sys.float_info.max, -sys.float_info.max)
#: entry-table sizes around the code offsets' widths
TABLE_SIZES = (1, 2, 256, 257, 65_536, 65_537)


def narrowest(offsets: array) -> str:
    """The narrowest of ``B``, ``H``, ``I`` and ``Q`` that holds every
    offset."""
    top = max(offsets, default=0)
    return next(code for code in "BHIQ" if top < 1 << 8 * array(code).itemsize)


def assert_packed(block: tuple, typecode: str) -> None:
    """``block`` is three bases and three equal-length arrays made at
    their final size: each int column offsets from its least value in
    the narrowest type, a float value column ``array('d')`` with no
    base."""
    bases, *columns = block
    assert len(bases) == len(columns) == 3
    assert len({len(column) for column in columns}) == 1
    for base, column in zip(bases, columns[:2] if typecode == "d" else columns):
        assert type(base) is int
        assert min(column) == 0
        assert column.typecode == narrowest(column)
    if typecode == "d":
        assert bases[2] is None and columns[2].typecode == "d"
    for column in columns:
        assert sys.getsizeof(column) == (sys.getsizeof(array(column.typecode))
                                         + column.itemsize * len(column))


@st.composite
def int64s(draw) -> st.SearchStrategy:
    """A strategy for one store's int64s: a window of 2**bits from a
    drawn low end, so narrow and wide blocks both come up, and maybe
    the edge values too."""
    bits = draw(st.sampled_from((0, 7, 8, 16, 17, 32, 33, 64)))
    low = draw(st.sampled_from(INT_EDGES) | st.integers(INT64_MIN, INT64_MAX))
    window = st.integers(low, min(low + 2 ** bits - 1, INT64_MAX))
    return window | st.sampled_from(INT_EDGES) if draw(st.booleans()) else window


@st.composite
def stores(draw, typecode: str):
    """Records for a store of ``typecode``, whether to spill after each,
    and the size of its entry table."""
    size = draw(st.sampled_from(TABLE_SIZES))
    values = (draw(int64s()) if typecode == "q" else
              st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from(FLOAT_EDGES))
    records = draw(st.lists(st.tuples(draw(int64s()), st.integers(0, size - 1),
                                      values), max_size=300))
    spills = draw(st.lists(st.booleans(), min_size=len(records),
                           max_size=len(records)))
    return size, records, spills


def round_trip(typecode: str, size: int, records: list, spills: list) -> None:
    entries = [(f"e{code}",) for code in range(size)]
    mark = "%d" if typecode == "q" else "%a"

    def line(entry: tuple) -> bytes:
        return f"%d,{entry[0]},{mark}\n".encode()

    handle = io.BytesIO()
    store = Store(typecode, line, lambda *item: item, handle)
    store.entries += entries
    spilled = 0
    for at, (record, spill) in enumerate(zip(records, spills), 1):
        store.pending += record
        if spill:
            store.spill()
            spilled = at
    added = [(at, entries[code], value) for at, code, value in records]
    # repr tells -0.0 from 0.0 and 1 from 1.0
    assert len(store) == len(records)
    assert repr(list(store)) == repr(added)
    reference = b"".join(line(entries[code]) % (at, value)
                         for at, code, value in records[:spilled])
    assert handle.getvalue() == b"".join(store.chunks()) == reference
    assert len(store.pending) == 3 * (len(records) - spilled)
    for block in store._blocks:
        assert_packed(block, typecode)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stores("q"))
@example((2, [(INT64_MIN, 0, INT64_MAX), (INT64_MAX, 1, INT64_MIN),
              (2 ** 32 + 1, 1, 2 ** 32 - 1)], [False, False, True]))
def test_int_records_come_back_as_they_went_in(store):
    round_trip("q", *store)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stores("d"))
@example((1, [(0, 0, -0.0), (2 ** 40, 0, 5e-324), (-1, 0, -sys.float_info.max)],
          [False, True, False]))
def test_float_records_come_back_as_they_went_in(store):
    round_trip("d", *store)
