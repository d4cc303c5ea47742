"""Kronecker slot encoding: every packed integer is built, multiplied and read here.

A grid is a flat list of integers, `width` cells per row.  Its Kronecker
image puts cell (r, t) in slot r * stride + t of one number, so a product of
two images is the image of the grids' two-dimensional convolution as long
as the stride exceeds every column index of the product.  A slot holds its
value plus half the slot's range, which makes every slot a nonnegative,
carry-free run of digits; the packed bias is subtracted after packing and
added back before unpacking.  ``unpack`` inverts ``pack``: given the rows,
width and stride of a grid it returns exactly its cells, never the padding
slots.  Both directions run at C speed: ``map`` over the cells, one joined
buffer, and one ``struct.Struct`` per call that reads a row's cells and
skips its padding with ``x``, iterated over the rows.

Two radices share that layout:

* ``ByteSlots``: slots of ``size`` bytes in an ``int``, multiplied by
  CPython's Karatsuba;
* ``DigitSlots``: slots of decimal digits in a ``Decimal``, built from one
  ASCII string and read back through its string, so no whole packed value
  goes through ``int``/``str``; multiplied by libmpdec, whose products of
  large operands run on a number-theoretic transform.  Every operation goes
  through the kernel's own ``decimal.Context``; the thread's context is
  never read or changed.

``choose_radix`` is the one choice between them: ``DigitSlots`` once packed
P exceeds CROSSOVER_BYTES.  Milliseconds per ``newton._step`` (three
squarings) of the walk, each route forced, fastest of interleaved runs
(three runs of 5-41 repeats) on a shared 2-vCPU x86-64 VM under CPython
3.11; on random grids of x-degree 32 the two routes tie between 20 and
23 kB:

    x-degree   packed P   ByteSlots   DigitSlots
       16       1.5 kB       0.34        1.5
       32        12 kB       4.5         6.2
       64        94 kB     107          49
      128       735 kB    2961         498

Both walks are kernel clients, each step three squarings, P^2, Q^2 and
(P + Q)^2, on the radix ``choose_radix`` picks: ``newton`` packs the (c, x)
grids of the commutative pair, and ``qalgebra`` the (c, q) slices of the
noncommutative pair.  The resultant packs its Sylvester entries (each the
image of one c-column, width and stride 1) in ``ByteSlots``.
"""

from __future__ import annotations

import decimal
import struct
from itertools import chain, repeat
from operator import add, mul, sub

CROSSOVER_BYTES = 24_000            # between the x-degree 32 and 64 steps; see above


def slot_size(p: list[int], q: list[int]) -> int:
    """Bytes per slot of one recurrence step on the cells of P and Q, for both walks.

    A step makes P' = P P - c Q Q and Q' = (P + Q)^2 - P P = P Q + Q P + Q Q.
    Only P' and Q' are unpacked: a Kronecker image is a ring homomorphism and
    the q-walk's twist bilinear, so the exact packed (P + Q)^2 - P P is the
    image of Q'.  Cell w of a product L R sums l_u r_v over pairs of cells in
    which v is a function of u: v = w - u on a (c, x) grid; in the q-walk,
    with w = c^k q^s x^e, word u = c^k1 q^s1 x^e1 leaves
    c^(k - k1) x^(e - e1) for v, and the twist q^((N - e1)(e - e1)) then
    fixes v's power of q.  So by Cauchy-Schwarz |(L R)_w| <= |L|_2 |R|_2, and
    as 2 |P|_2 |Q|_2 <= |P|_2^2 + |Q|_2^2, no cell of P' or Q' exceeds
    |P|_2^2 + 2 |Q|_2^2 in absolute value.  One more bit holds the sign.
    """
    bound = sum(map(mul, p, p)) + 2 * sum(map(mul, q, q))
    return (bound.bit_length() + 1 + 7) // 8


def bias(slots: int, size: int) -> int:
    """2^(8 size - 1) in each of ``slots`` slots of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


def _join(chunks, width: int, stride: int, size: int, pad_slot, lead: bool = False):
    """The slot chunks joined, rows of ``width``, stride - width pad slots after each row.

    With ``lead`` the pad slots come before each row instead.
    """
    buffer = pad_slot[:0].join(chunks)
    if stride == width:
        return buffer
    pad, step = pad_slot * (stride - width), width * size
    rows = range(0, len(buffer), step)
    if lead:
        return pad[:0].join([pad + buffer[i:i + step] for i in rows])
    return pad[:0].join([buffer[i:i + step] + pad for i in rows])


def _row(width: int, stride: int, size: int, lead: bool = False) -> struct.Struct:
    """One row of a ``_join`` buffer: its cells' slot fields, the pad slots skipped."""
    cells, pad = f"{size}s" * width, f"{(stride - width) * size}x"
    return struct.Struct(pad + cells if lead else cells + pad)


class ByteSlots:
    """Grids packed into ``int`` slots of ``size`` bytes."""

    add, subtract, multiply = staticmethod(add), staticmethod(sub), staticmethod(mul)

    def __init__(self, size: int) -> None:
        self.size = size
        self.half = 1 << (8 * size - 1)

    def pack(self, cells: list[int], width: int, stride: int) -> int:
        """Kronecker image of a signed grid: biased slots, one buffer, less the packed bias."""
        size, half = self.size, self.half
        chunks = map(int.to_bytes, map(add, cells, repeat(half)), repeat(size), repeat("little"))
        buffer = _join(chunks, width, stride, size, half.to_bytes(size, "little"))
        return int.from_bytes(buffer, "little") - bias(len(cells) // width * stride, size)

    def unpack(self, value: int, rows: int, width: int, stride: int) -> list[int]:
        """Inverse of ``pack`` for slots in [-half, half); skips the padding."""
        size = self.size
        raw = (value + bias(rows * stride, size)).to_bytes(rows * stride * size, "little")
        fields = chain.from_iterable(_row(width, stride, size).iter_unpack(raw))
        return list(map(sub, map(int.from_bytes, fields, repeat("little")), repeat(self.half)))

    def shift(self, value: int, slots: int) -> int:
        return value << (8 * self.size * slots)


class DigitSlots:
    """Grids packed into ``Decimal`` slots of decimal digits that hold every ``size``-byte slot.

    10^digits > 2^(8 size) since 0.30103 > log10(2), so a slot of
    [-half, half), half = 10^digits / 2, holds [-2^(8 size - 1), 2^(8 size - 1)).
    A number's decimal string lists its slots from the highest down, so the
    cells are joined in reverse, each row led by its pad slots, and read
    back in place from the string by the same row format.
    """

    def __init__(self, size: int) -> None:
        self.digits = 8 * size * 30103 // 100000 + 1
        self.half = 5 * 10 ** (self.digits - 1)
        self.context = context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                                 Emin=decimal.MIN_EMIN)
        self.add, self.subtract, self.multiply = context.add, context.subtract, context.multiply

    def _bias(self, slots: int) -> decimal.Decimal:
        return self.context.create_decimal(str(self.half) * slots or 0)

    def pack(self, cells: list[int], width: int, stride: int) -> decimal.Decimal:
        chunks = map(format, map(add, reversed(cells), repeat(self.half)),
                     repeat(f"0{self.digits}d"))
        text = _join(chunks, width, stride, self.digits, str(self.half), lead=True)
        return self.subtract(self.context.create_decimal(text or 0),
                             self._bias(len(cells) // width * stride))

    def unpack(self, value: decimal.Decimal, rows: int, width: int, stride: int) -> list[int]:
        slots, digits = rows * stride, self.digits
        text = self.context.to_sci_string(self.add(value, self._bias(slots))).zfill(slots * digits)
        row, step = _row(width, stride, digits, lead=True), stride * digits
        # Row by row, so no bytes copy of the whole string and no tuple of every field.
        fields = chain.from_iterable(row.unpack(text[i:i + step].encode("ascii"))
                                     for i in range(0, slots * digits, step))
        cells = list(map(sub, map(int, fields), repeat(self.half)))
        cells.reverse()
        return cells

    def shift(self, value: decimal.Decimal, slots: int) -> decimal.Decimal:
        return self.context.scaleb(value, slots * self.digits)


def choose_radix(operand_bytes: int) -> type[ByteSlots] | type[DigitSlots]:
    """The product radix for operands of ``operand_bytes``: the one int/decimal choice."""
    return DigitSlots if operand_bytes > CROSSOVER_BYTES else ByteSlots
