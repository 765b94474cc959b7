"""Typed column buffers and the intern table behind the columnar store.

:class:`ColumnBuffer` is the one abstraction every numeric column of a
:class:`~repro.core.store.columns.ColumnarTrace` passes through: in
*build* mode it owns an appendable :class:`array.array`; in *view* mode
it wraps a zero-copy ``memoryview`` cast over an mmap'd `.lilac`
segment (see :mod:`repro.lila.colfile`). Both modes expose the same
``.data`` sequence — ``array`` and ``memoryview.cast(typecode)`` are
duck-type compatible for indexing, length, iteration, and ``bisect`` —
so the kernels never pay a wrapper call on the hot path: they read the
raw sequence directly.

:class:`InternTable` is the string/stack interning structure shared by
the builder, the store, and the `.lilac` intern-table block. It can be
passed to several :class:`~repro.core.store.build.ColumnarBuilder`
instances to share one pool across every trace of a study (symbol ids
are internal, so sharing never changes canonical serialization or
digests).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence

#: Struct/typecode sizes for the column typecodes the store uses.
ITEM_SIZES: Dict[str, int] = {"b": 1, "i": 4, "q": 8, "d": 8}


class ColumnBuffer:
    """One typed numeric column: an appendable array or a zero-copy view.

    Attributes:
        typecode: the ``array`` typecode (``"q"``, ``"i"``, ``"b"``,
            or ``"d"``).
        data: the raw sequence — an :class:`array.array` in build mode,
            a cast ``memoryview`` in view mode. Kernels index this
            directly; the buffer object is the construction /
            serialization boundary.
    """

    __slots__ = ("typecode", "data")

    def __init__(
        self, typecode: str, data: Optional[Sequence[int]] = None
    ) -> None:
        if typecode not in ITEM_SIZES:
            raise ValueError(f"unsupported column typecode {typecode!r}")
        self.typecode = typecode
        if data is None:
            self.data = array(typecode)
        elif isinstance(data, (array, memoryview)):
            self.data = data
        else:
            self.data = array(typecode, data)

    @classmethod
    def view(cls, typecode: str, raw: memoryview) -> "ColumnBuffer":
        """Zero-copy buffer over ``raw`` (a slice of an mmap'd file)."""
        buffer = cls.__new__(cls)
        buffer.typecode = typecode
        buffer.data = raw.cast(typecode)
        return buffer

    @property
    def writable(self) -> bool:
        """True in build mode (appendable array backing)."""
        return isinstance(self.data, array)

    @property
    def itemsize(self) -> int:
        return ITEM_SIZES[self.typecode]

    @property
    def nbytes(self) -> int:
        return len(self.data) * ITEM_SIZES[self.typecode]

    def append(self, value: int) -> None:
        self.data.append(value)

    def tobytes(self) -> bytes:
        """The column's raw little-to-native-endian bytes."""
        if isinstance(self.data, array):
            return self.data.tobytes()
        return bytes(memoryview(self.data))

    def materialize(self) -> "ColumnBuffer":
        """An owning (array-backed) copy of this buffer."""
        copied = array(self.typecode)
        copied.frombytes(self.tobytes())
        return ColumnBuffer(self.typecode, copied)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index: int) -> int:
        return self.data[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def __repr__(self) -> str:
        mode = "array" if self.writable else "view"
        return (
            f"ColumnBuffer({self.typecode!r}, {len(self.data)} items, {mode})"
        )


class InternTable:
    """First-appearance interning of hashable values (strings, stacks).

    ``strings`` is the id → value list and ``ids`` the value → id map;
    both are plain containers shared *by reference* with the store (the
    kernels index ``store.strings`` directly, so the table adds zero
    hot-path overhead). One table may back several builders — a study's
    traces then share one pool; ids are internal, so sharing is
    invisible to serialization and digests.
    """

    __slots__ = ("strings", "ids")

    def __init__(
        self,
        values: Optional[Sequence[Hashable]] = None,
        ids: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        self.strings: List[Any] = list(values) if values is not None else []
        if ids is not None:
            self.ids: Dict[Hashable, int] = ids
        else:
            self.ids = {
                value: index for index, value in enumerate(self.strings)
            }

    @classmethod
    def adopt(
        cls, values: List[Any], ids: Dict[Hashable, int]
    ) -> "InternTable":
        """A table over existing containers, taken by reference (not
        copied) — the store and its builder keep sharing one pool."""
        table = cls.__new__(cls)
        table.strings = values
        table.ids = ids
        return table

    def intern(self, value: Hashable) -> int:
        """The stable id of ``value``, assigning the next id when new."""
        index = self.ids.get(value)
        if index is None:
            index = len(self.strings)
            self.ids[value] = index
            self.strings.append(value)
        return index

    def __getitem__(self, index: int) -> Any:
        return self.strings[index]

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.strings)

    def __contains__(self, value: Hashable) -> bool:
        return value in self.ids

    def __repr__(self) -> str:
        return f"InternTable({len(self.strings)} entries)"
