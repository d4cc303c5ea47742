"""The packed-product kernel against per-cell oracles, and its two radices against each other."""

import sys
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

from newtonpoly import newton, qalgebra
from newtonpoly.closedform import closed_p, closed_q
from newtonpoly.packing import ByteSlots, DigitSlots, bias, slot_size


def oracle_pack(cells, width, stride, size):
    """The per-cell packing loop the C-speed codec replaced."""
    half = 1 << (8 * size - 1)
    pad = half.to_bytes(size, "little") * (stride - width)
    biased = bytearray()
    for start in range(0, len(cells), width):
        for coeff in cells[start:start + width]:
            biased += (coeff + half).to_bytes(size, "little")
        biased += pad
    return int.from_bytes(biased, "little") - bias(len(cells) // width * stride, size)


def oracle_unpack(value, rows, width, stride, size):
    """The per-cell unpacking loop the C-speed codec replaced."""
    half = 1 << (8 * size - 1)
    raw = memoryview((value + bias(rows * stride, size)).to_bytes(rows * stride * size, "little"))
    return [int.from_bytes(raw[i:i + size], "little") - half
            for start in range(0, rows * stride * size, stride * size)
            for i in range(start, start + width * size, size)]


def oracle_step(p, q, size):
    """The step before the three squarings: products P^2, Q^2 and PQ on the oracle codec."""
    stride = 2 * size + 1
    slot = slot_size(p, q)
    packed_p, packed_q = (oracle_pack(cells, size + 1, stride, slot) for cells in (p, q))
    p_sq, q_sq, pq = packed_p * packed_p, packed_q * packed_q, packed_p * packed_q
    return (oracle_unpack(p_sq - (q_sq << (8 * slot * stride)), size + 1, stride, stride, slot),
            oracle_unpack((pq << 1) + q_sq, size, stride, stride, slot))


@st.composite
def grids(draw, max_size=40):
    """(cells, rows, width, stride, size): a signed grid in range, padded or not, maybe empty."""
    size = draw(st.integers(1, max_size))
    width, rows = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    stride = width + draw(st.sampled_from([0, 0, 1, 3]))
    half = 1 << (8 * size - 1)
    cell = st.one_of(st.sampled_from([-half, half - 1, -1, 0, 1]), st.integers(-half, half - 1))
    cells = draw(st.lists(cell, min_size=rows * width, max_size=rows * width))
    return cells, rows, width, stride, size


class TestCodec:
    @given(grids())
    @example(([], 0, 3, 5, 4))                              # the empty grid, padded
    @example(([], 0, 2, 2, 1))
    @example(([-(1 << 319), (1 << 319) - 1], 1, 2, 2, 40))  # 40-byte extremes, no padding
    def test_matches_the_per_cell_loops(self, grid):
        cells, rows, width, stride, size = grid
        kernel = ByteSlots(size)
        value = kernel.pack(cells, width, stride)
        assert value == oracle_pack(cells, width, stride, size)
        assert kernel.unpack(value, rows, width, stride) == cells
        assert oracle_unpack(value, rows, width, stride, size) == cells

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 3), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_unpack_reads_every_value_in_range_like_the_loop(self, size, width, extra, rows, rng):
        # Any integer whose biased image fits the slots, products included, reads the same.
        stride = width + extra
        span = 1 << (8 * size * rows * stride)
        value = rng.randrange(span) - bias(rows * stride, size)
        assert (ByteSlots(size).unpack(value, rows, width, stride)
                == oracle_unpack(value, rows, width, stride, size))

    @pytest.mark.parametrize("size", [1, 2, 17, 40])
    def test_slot_overflow_is_refused_as_before(self, size):
        half = 1 << (8 * size - 1)
        for cells in ([half, 0], [0, -half - 1]):
            with pytest.raises(OverflowError):
                oracle_pack(cells, 2, 3, size)
            with pytest.raises(OverflowError):
                ByteSlots(size).pack(cells, 2, 3)

    @given(grids(max_size=12))
    @example(([], 0, 3, 5, 2))                              # the empty grid, padded
    def test_decimal_slots_round_trip(self, grid):
        cells, rows, width, stride, size = grid
        kernel = DigitSlots(size)
        value = kernel.pack(cells, width, stride)
        expected = sum(coeff * 10 ** (kernel.digits * (r * stride + t))
                       for r in range(rows) for t, coeff in enumerate(cells[r * width:][:width]))
        assert value.as_tuple().exponent == 0 and int(value) == expected
        assert kernel.unpack(value, rows, width, stride) == cells


@pytest.fixture(scope="module")
def walk():
    """The (P, Q) grids entering each oracle step up to P_7, Q_7, then what each step made."""
    grids = [([0, 1], [1, 0])]
    for k in range(7):
        grids.append(oracle_step(*grids[-1], 2 ** k))
    return grids


class TestRadices:
    @pytest.mark.parametrize("radix", [ByteSlots, DigitSlots])
    @pytest.mark.parametrize("k", range(7))
    def test_both_radices_match_the_old_step(self, walk, k, radix, monkeypatch):
        monkeypatch.setattr(newton, "choose_radix", lambda operand_bytes: radix)
        p, q = walk[k]
        assert newton._step(p, q, 2 ** k) == walk[k + 1]

    def test_walk_to_seven_reads_no_whole_packed_value_as_a_string(self, monkeypatch):
        # Above 640 digits int <-> str raises, and P' of the last step of the
        # walk to n = 7 packs into 914000 digits.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("int <-> str digit limits need CPython 3.11 or later")
        chosen = []

        def spy(operand_bytes):
            chosen.append(radix := choose(operand_bytes))
            return radix

        choose = newton.choose_radix
        monkeypatch.setattr(newton, "choose_radix", spy)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            pair = newton.iterate_pair(7)
        finally:
            sys.set_int_max_str_digits(limit)
        # The crossover falls between the x-degree 32 and 64 steps.
        assert chosen == [ByteSlots] * 6 + [DigitSlots]
        assert pair.p == closed_p(7) and pair.q == closed_q(7)


def old_slot_size(p, q):
    """The slot rule before Cauchy-Schwarz: 3 * terms products of cells below 2^max_bits."""
    terms = max(len(p) - p.count(0), len(q) - q.count(0))
    max_bits = max(map(int.bit_length, p + q), default=0)
    return (2 * max_bits + terms.bit_length() + 3 + 7) // 8


class TestSlotRule:
    """Each step's cells, computed in the wider slots of the old rule, fit half a slot of the new."""

    def test_walk_to_eight(self, monkeypatch):
        p, q = [0, 1], [1, 0]
        for n in range(8):
            half = 1 << (8 * slot_size(p, q) - 1)
            with monkeypatch.context() as patch:
                patch.setattr(newton, "slot_size", old_slot_size)
                wide = newton._step(p, q, 2 ** n)
            assert max(map(abs, chain(*wide))) < half
            p, q = newton._step(p, q, 2 ** n)
            assert (p, q) == wide

    def test_q_walk_to_five(self, monkeypatch):
        def flat(slices):
            return list(chain(*slices))

        p, q = [[0], [1]], [[1], []]
        for n in range(5):
            half = 1 << (8 * slot_size(flat(p), flat(q)) - 1)
            with monkeypatch.context() as patch:
                patch.setattr(qalgebra, "slot_size", old_slot_size)
                wide = qalgebra._nc_step(p, q, 2 ** n)
            assert max(map(abs, flat(wide[0]) + flat(wide[1]))) < half
            p, q = qalgebra._nc_step(p, q, 2 ** n)
            assert (p, q) == wide
