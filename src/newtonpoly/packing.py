"""Kronecker slot encoding: every packed integer is built and read here.

A grid is a flat list of integers, `width` cells per row.  Its Kronecker
image puts cell (r, t) in slot r * stride + t of one integer, each slot
`size` bytes wide, so a product of two images is the image of the grids'
two-dimensional convolution as long as the stride exceeds every column
index of the product.  One slot encoding serves both directions: a slot
holds its value plus the bias 2^(8 size - 1), which makes every slot in
[-2^(8 size - 1), 2^(8 size - 1)) a nonnegative, carry-free run of bytes,
and the packed bias (``bias``) is subtracted after packing and added back
before unpacking.  ``unpack`` inverts ``pack``: given the rows, width and
stride of a grid it returns exactly its cells, never the padding slots.

``newton`` packs the (c, x) grids of the commutative pair and the
resultant's Sylvester entries (each the image of one c-column, width and
stride 1), and ``qalgebra`` the (c, q) slices of the noncommutative pair.
``slot_size`` is the slot rule of a recurrence step, for both walks.
"""

from __future__ import annotations


def slot_size(p: list[int], q: list[int]) -> int:
    """Bytes per slot of one recurrence step on the cells of P and Q.

    A coefficient of P' or Q' sums at most 3 * terms products of two
    coefficients, terms being the larger count of nonzero cells.  Each
    coefficient is below 2^max_bits in absolute value, so the sum is below
    2^(2 max_bits + bitlen(terms) + 2); one more bit holds the sign.
    """
    terms = max(len(p) - p.count(0), len(q) - q.count(0))
    max_bits = max(map(int.bit_length, p + q), default=0)
    return (2 * max_bits + terms.bit_length() + 3 + 7) // 8


def bias(slots: int, size: int) -> int:
    """2^(8 size - 1) in each of ``slots`` slots of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


def pack(cells: list[int], width: int, stride: int, size: int) -> int:
    """Kronecker image of a signed grid: biased slots, one buffer, less the packed bias."""
    half = 1 << (8 * size - 1)
    pad = half.to_bytes(size, "little") * (stride - width)
    biased = bytearray()
    for start in range(0, len(cells), width):
        for coeff in cells[start:start + width]:
            biased += (coeff + half).to_bytes(size, "little")
        biased += pad
    return int.from_bytes(biased, "little") - bias(len(cells) // width * stride, size)


def unpack(value: int, rows: int, width: int, stride: int, size: int) -> list[int]:
    """Inverse of ``pack`` for slots in [-2^(8 size - 1), 2^(8 size - 1)); skips the padding."""
    half = 1 << (8 * size - 1)
    raw = memoryview((value + bias(rows * stride, size)).to_bytes(rows * stride * size, "little"))
    return [int.from_bytes(raw[i:i + size], "little") - half
            for start in range(0, rows * stride * size, stride * size)
            for i in range(start, start + width * size, size)]
