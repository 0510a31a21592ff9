"""Packed ``uint64`` bitsets over dataset indexes — the warm-path algebra.

Every warm answer in the serving stack is a subset of ``range(N)`` for the
current dataset count ``N``.  Representing those subsets as Python
``set[int]`` objects costs ~50-80 bytes *per member* and one hash probe per
element per logical operation; at the ROADMAP's millions-of-datasets scale
the per-element work dominates warm latency, the same observation that
makes bitmap posting lists the standard representation in dataset-search
systems (Fainder-style indexes, roaring bitmaps in IR engines).

:class:`DatasetBitmap` packs the subset into a little-endian array of
``uint64`` words (64 datasets per word, 8 bytes per 64 members):

- **logical combination** is word-wise ``&`` / ``|`` / ``& ~`` — one NumPy
  pass over ``ceil(N / 64)`` words regardless of how many indexes are set;
- **cardinality** is a vectorized popcount;
- **shard merges** are plain ORs: a shard unit packs each answer over
  global ids (:meth:`from_indices` of its key array through the unit's
  ids), and a federated node's answer, whose universe is a contiguous
  slice of the global one, shifts into place by a word shift
  (:meth:`shift_into`);
- **removals** stay a persistent ANDNOT mask, applied word-wise at read
  time;
- **watermark upgrades** (delta-shard ingestion) are ORs of bitmaps with
  different universe sizes — operands align by zero-padding, so an answer
  cached at dataset count ``W`` unions cleanly with a delta answer at
  count ``N > W``.

Bitmaps convert to index lists / sets only at API boundaries; the HTTP
server can skip even that and ship the raw words (:meth:`to_wire`).

Examples
--------
>>> a = DatasetBitmap.from_indices([1, 3, 70], 80)
>>> b = DatasetBitmap.from_indices([3, 70, 79], 80)
>>> (a & b).to_list()
[3, 70]
>>> (a | b).count()
4
>>> a.andnot(b).to_list()
[1]
>>> DatasetBitmap.from_indices([0, 2], 4).shift_into(64, 80).to_list()
[64, 66]
"""

from __future__ import annotations

import base64
from typing import Iterable, Union

import numpy as np

from repro.errors import ConstructionError
from repro.wire import BITSET, decode

__all__ = ["DatasetBitmap", "bitmap_from_wire"]

#: Bits per word.
_W = 64

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    _popcount_words = np.bitwise_count
else:  # pragma: no cover - exercised only on NumPy 1.x images
    _POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    )

    def _popcount_words(words: np.ndarray) -> np.ndarray:
        return _POP8[words.view(np.uint8)]


def _n_words(nbits: int) -> int:
    return (nbits + _W - 1) // _W


class DatasetBitmap:
    """An immutable-by-convention packed subset of ``range(nbits)``.

    Instances are cheap value objects: binary operators return new bitmaps
    and never mutate their operands, so one bitmap can safely live in the
    leaf cache while being combined into many query answers.  Operands
    with different universe sizes align by zero-padding the shorter one;
    the result's universe is the larger of the two.

    The invariant that makes popcount/equality exact: bits at positions
    ``>= nbits`` (the tail of the last word) are always zero.
    """

    __slots__ = ("words", "nbits")

    def __init__(self, words: np.ndarray, nbits: int) -> None:
        nbits = int(nbits)
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (_n_words(nbits),):
            raise ValueError(
                f"expected {_n_words(nbits)} words for {nbits} bits, "
                f"got shape {words.shape}"
            )
        self.words = words
        self.nbits = nbits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, nbits: int) -> "DatasetBitmap":
        """The empty subset of ``range(nbits)``."""
        return cls(np.zeros(_n_words(nbits), dtype=np.uint64), nbits)

    @classmethod
    def full(cls, nbits: int) -> "DatasetBitmap":
        """The whole universe ``range(nbits)`` (tail bits kept zero)."""
        words = np.full(_n_words(nbits), ~np.uint64(0), dtype=np.uint64)
        tail = nbits % _W
        if words.size and tail:
            words[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        return cls(words, nbits)

    @classmethod
    def from_indices(
        cls, indices: Union[Iterable[int], np.ndarray], nbits: int
    ) -> "DatasetBitmap":
        """Pack an iterable/array of indexes (duplicates are harmless)."""
        idx = np.asarray(
            indices if not isinstance(indices, (set, frozenset)) else list(indices),
            dtype=np.int64,
        ).ravel()
        words = np.zeros(_n_words(nbits), dtype=np.uint64)
        if idx.size:
            if int(idx.min()) < 0 or int(idx.max()) >= nbits:
                raise ValueError(
                    f"indices must lie in [0, {nbits}), got range "
                    f"[{int(idx.min())}, {int(idx.max())}]"
                )
            np.bitwise_or.at(
                words,
                idx >> 6,
                np.uint64(1) << (idx & 63).astype(np.uint64),
            )
        return cls(words, nbits)

    # ------------------------------------------------------------------
    # Conversion (the API boundary)
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Sorted member indexes as an ``int64`` array."""
        bits = np.unpackbits(
            self.words.astype("<u8", copy=False).view(np.uint8),
            bitorder="little",
        )
        return np.flatnonzero(bits[: self.nbits]).astype(np.int64)

    def to_list(self) -> list[int]:
        """Sorted member indexes as plain Python ints."""
        return self.to_array().tolist()

    def to_set(self) -> set[int]:
        """Members as a mutable ``set`` (for set-algebra consumers)."""
        return set(self.to_list())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _aligned(
        self, other: "DatasetBitmap"
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Zero-pad the shorter operand; returns (a, b, nbits)."""
        if self.nbits == other.nbits:
            return self.words, other.words, self.nbits
        nbits = max(self.nbits, other.nbits)
        nw = _n_words(nbits)
        a, b = self.words, other.words
        if a.size < nw:
            a = np.concatenate([a, np.zeros(nw - a.size, dtype=np.uint64)])
        if b.size < nw:
            b = np.concatenate([b, np.zeros(nw - b.size, dtype=np.uint64)])
        return a, b, nbits

    def __and__(self, other: "DatasetBitmap") -> "DatasetBitmap":  # lint: hot-path
        a, b, nbits = self._aligned(other)
        return DatasetBitmap(a & b, nbits)

    def __or__(self, other: "DatasetBitmap") -> "DatasetBitmap":  # lint: hot-path
        a, b, nbits = self._aligned(other)
        return DatasetBitmap(a | b, nbits)

    def andnot(self, other: "DatasetBitmap") -> "DatasetBitmap":  # lint: hot-path
        """``self \\ other`` (set difference), word-wise ``a & ~b``."""
        a, b, nbits = self._aligned(other)
        return DatasetBitmap(a & ~b, nbits)

    def count(self) -> int:  # lint: hot-path
        """``|self|`` via vectorized popcount."""
        return int(_popcount_words(self.words).sum())

    def any(self) -> bool:
        """Whether any bit is set (cheaper than ``count() > 0``)."""
        return bool(self.words.any())

    def __contains__(self, index: int) -> bool:
        i = int(index)
        if not 0 <= i < self.nbits:
            return False
        return bool(
            (self.words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1)
        )

    def __eq__(self, other: object) -> bool:
        """Set equality — universe sizes may differ (tails are zero)."""
        if not isinstance(other, DatasetBitmap):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return bool(np.array_equal(a, b))

    def __hash__(self) -> int:
        # Hash the trimmed word content so equal sets collide across sizes.
        trimmed = np.trim_zeros(self.words, trim="b")
        return hash((len(trimmed), trimmed.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = self.count()
        head = self.to_list()[:8]
        ell = ", ..." if n > 8 else ""
        return f"DatasetBitmap({head}{ell} |{n}| of {self.nbits})"

    # ------------------------------------------------------------------
    # Universe surgery (federated merges: ``shift_into``)
    # ------------------------------------------------------------------
    def shift_into(self, offset: int, nbits: int) -> "DatasetBitmap":
        """Members translated by ``+offset`` inside a ``nbits`` universe.

        This is the federated merge's primitive: a node's universe is the
        contiguous slice ``[offset, offset + self.nbits)`` of the global
        one, so translating its answers is a word shift, not a Python loop
        over members.
        """
        offset = int(offset)
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if offset + self.nbits > nbits:
            raise ValueError("shifted members would fall outside the universe")
        q, r = divmod(offset, _W)
        out = np.zeros(_n_words(nbits), dtype=np.uint64)
        src = self.words
        if src.size:
            if r == 0:
                out[q : q + src.size] = src
            else:
                lo = src << np.uint64(r)
                hi = src >> np.uint64(_W - r)
                out[q : q + src.size] |= lo
                out[q + 1 : q + 1 + src.size] |= hi[: out.size - q - 1]
        return DatasetBitmap(out, nbits)

    # ------------------------------------------------------------------
    # Memory / wire
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Payload bytes (the packed words)."""
        return int(self.words.nbytes)

    def to_wire(self) -> dict:
        """JSON-ready zero-copy encoding: base64 of the little-endian words.

        The payload is the raw word buffer — no per-index Python objects
        are materialized.  Decode with :func:`bitmap_from_wire`.
        """
        return {
            "encoding": "u64le+b64",
            "n_bits": self.nbits,
            "words": base64.b64encode(
                self.words.astype("<u8", copy=False).tobytes()
            ).decode("ascii"),
        }


def bitmap_from_wire(obj: dict) -> DatasetBitmap:
    """Decode :meth:`DatasetBitmap.to_wire` output (client-side helper);
    anything else is a :class:`~repro.errors.ConstructionError`.

    Examples
    --------
    >>> bm = DatasetBitmap.from_indices([5, 64, 199], 200)
    >>> bitmap_from_wire(bm.to_wire()) == bm
    True
    """
    fields = decode(BITSET, obj, "bitset")
    nbits = fields["n_bits"]
    try:
        raw = base64.b64decode(fields["words"])
    except ValueError as exc:  # binascii.Error: right alphabet, wrong padding
        raise ConstructionError(f"bitset.words is not base64: {exc}") from None
    if len(raw) != 8 * _n_words(nbits):
        raise ConstructionError("bitset payload length does not match n_bits")
    words = np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)
    tail = nbits % _W
    if words.size and tail:
        stray = words[-1] >> np.uint64(tail)
        if stray:
            # Bits past n_bits would break the zero-tail invariant that
            # count/equality/hash rely on; a well-formed encoder never
            # produces them, so treat them as corruption.
            raise ConstructionError("bitset payload has stray bits beyond n_bits")
    return DatasetBitmap(words, nbits)
