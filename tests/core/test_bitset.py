"""Unit tests for the packed ``DatasetBitmap`` warm-path representation."""

import numpy as np
import pytest

from repro.core.bitset import DatasetBitmap, bitmap_from_wire
from repro.errors import ConstructionError


class TestConstruction:
    def test_from_indices_roundtrip(self):
        bm = DatasetBitmap.from_indices([5, 0, 63, 64, 199], 200)
        assert bm.to_list() == [0, 5, 63, 64, 199]
        assert bm.count() == 5

    def test_duplicates_collapse(self):
        bm = DatasetBitmap.from_indices([3, 3, 3], 10)
        assert bm.to_list() == [3] and bm.count() == 1

    def test_accepts_sets_and_arrays(self):
        assert DatasetBitmap.from_indices({1, 2}, 8).to_list() == [1, 2]
        assert DatasetBitmap.from_indices(np.array([7]), 8).to_list() == [7]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DatasetBitmap.from_indices([8], 8)
        with pytest.raises(ValueError):
            DatasetBitmap.from_indices([-1], 8)

    def test_zeros_and_full(self):
        assert DatasetBitmap.zeros(100).count() == 0
        full = DatasetBitmap.full(100)
        assert full.count() == 100
        assert full.to_list() == list(range(100))
        # Word-boundary universe: no tail mask needed, still exact.
        assert DatasetBitmap.full(128).count() == 128

    def test_empty_universe(self):
        bm = DatasetBitmap.zeros(0)
        assert bm.to_list() == [] and bm.count() == 0 and not bm.any()

    def test_word_count_validation(self):
        with pytest.raises(ValueError):
            DatasetBitmap(np.zeros(3, dtype=np.uint64), 64)


class TestAlgebra:
    A = {1, 3, 64, 100}
    B = {3, 64, 101}

    def _ab(self, na=128, nb=128):
        return (
            DatasetBitmap.from_indices(self.A, na),
            DatasetBitmap.from_indices(self.B, nb),
        )

    def test_and_or_andnot(self):
        a, b = self._ab()
        assert (a & b).to_set() == self.A & self.B
        assert (a | b).to_set() == self.A | self.B
        assert a.andnot(b).to_set() == self.A - self.B

    def test_mixed_universe_sizes_align(self):
        a, b = self._ab(na=101, nb=400)
        assert (a | b).to_set() == self.A | self.B
        assert (a & b).to_set() == self.A & self.B
        assert (a | b).nbits == 400
        assert a.andnot(b).to_set() == self.A - self.B

    def test_operands_not_mutated(self):
        a, b = self._ab()
        _ = a & b, a | b, a.andnot(b)
        assert a.to_set() == self.A and b.to_set() == self.B

    def test_equality_is_set_equality_across_sizes(self):
        assert DatasetBitmap.from_indices([1], 64) == DatasetBitmap.from_indices(
            [1], 500
        )
        assert DatasetBitmap.from_indices([1], 64) != DatasetBitmap.from_indices(
            [2], 64
        )

    def test_hash_consistent_with_eq(self):
        x = DatasetBitmap.from_indices([7, 70], 80)
        y = DatasetBitmap.from_indices([7, 70], 640)
        assert hash(x) == hash(y) and x == y

    def test_contains(self):
        a, _ = self._ab()
        assert 64 in a and 2 not in a and 10_000 not in a and -1 not in a

    def test_any(self):
        assert not DatasetBitmap.zeros(100).any()
        assert DatasetBitmap.from_indices([99], 100).any()


class TestUniverseSurgery:
    def test_shift_into_crosses_word_boundaries(self):
        bm = DatasetBitmap.from_indices([0, 1, 63], 64)
        for off in (0, 1, 63, 64, 65, 130):
            shifted = bm.shift_into(off, 64 + off)
            assert shifted.to_list() == [0 + off, 1 + off, 63 + off]

    def test_shift_into_overflow_rejected(self):
        bm = DatasetBitmap.from_indices([63], 64)
        with pytest.raises(ValueError):
            bm.shift_into(10, 64)


class TestWire:
    def test_roundtrip(self):
        bm = DatasetBitmap.from_indices([0, 63, 64, 300], 321)
        wire = bm.to_wire()
        assert wire["encoding"] == "u64le+b64" and wire["n_bits"] == 321
        assert bitmap_from_wire(wire) == bm

    def test_rejects_garbage(self):
        with pytest.raises(ConstructionError):
            bitmap_from_wire({"encoding": "nope"})
        wire = DatasetBitmap.from_indices([1], 100).to_wire()
        wire["n_bits"] = 10_000
        with pytest.raises(ConstructionError):
            bitmap_from_wire(wire)

    def test_rejects_stray_tail_bits(self):
        import base64

        import numpy as np

        # A full 0xFF byte claims bits 4..7 in a 4-bit universe; accepting
        # it would violate the zero-tail invariant (count != |to_list()|).
        payload = {
            "encoding": "u64le+b64",
            "n_bits": 4,
            "words": base64.b64encode(
                np.array([0xFF], dtype="<u8").tobytes()
            ).decode("ascii"),
        }
        with pytest.raises(ConstructionError):
            bitmap_from_wire(payload)

    def test_no_generated_malformation_escapes(self):
        import wire_cases

        from repro import wire

        payload = DatasetBitmap.from_indices([1, 70], 100).to_wire()
        cases = [bad for _label, bad in wire_cases.cases(wire.BITSET, payload)]
        # Right alphabet with the wrong padding, not ASCII, the wrong length.
        cases += [{**payload, "words": words} for words in ("A", "\u00e9", "AAAA")]
        assert len(cases) > 20
        for bad in cases:
            with pytest.raises(ConstructionError):
                bitmap_from_wire(bad)

    def test_wire_is_compact(self):
        bm = DatasetBitmap.full(64 * 100)
        # 100 words -> 800 bytes -> ~1068 base64 chars, vs 6400 indexes.
        assert len(bm.to_wire()["words"]) < 1100
