"""Fixed-width unsigned integer circuits over literal lists: addition, multiplication.

Bit vectors are LSB-first literal lists. Addition is exact mod 2**width;
multiplication doubles the width, so products are exact. The multiplier is
an array (shift-and-add) of AND rows summed by ripple-carry adders at every
width. Karatsuba is not built, because its signed middle term weakens
propagation: one Karatsuba level over 16-bit arrays took 32.5 s on the
in-process solve of 4292870399 at l=32, against 0.13 s for the array
(2-CPU x86-64, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import CircuitBuilder


@dataclass(frozen=True)
class BitVec:
    """LSB-first literal list; index 0 is the least significant bit."""

    lits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lits:
            raise ValueError("zero-width bit vector")

    @property
    def width(self) -> int:
        return len(self.lits)

    def __getitem__(self, i: int) -> int:
        return self.lits[i]

    def __iter__(self):
        return iter(self.lits)

    @classmethod
    def from_vars(cls, first: int, width: int) -> "BitVec":
        return cls(tuple(range(first, first + width)))


def shift_left(b: BitVec, k: int, ctx: CircuitBuilder, width: int | None = None) -> BitVec:
    """Multiply by 2**k at exactly ``width`` bits (default: input width), truncating."""
    out_width = width if width is not None else b.width
    lits = (ctx.false_lit,) * k + b.lits
    if len(lits) < out_width:
        lits = lits + (ctx.false_lit,) * (out_width - len(lits))
    return BitVec(lits[:out_width])


def sum_with(a: BitVec, b: BitVec, ctx: CircuitBuilder) -> BitVec:
    """Ripple-carry sum mod 2**width: one half adder, then full adders."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    out = []
    carry = None
    last = a.width - 1
    for i, (x, y) in enumerate(zip(a.lits, b.lits)):
        if carry is None:
            out.append(ctx.xor(x, y))
            if i < last:
                carry = ctx.and_(x, y)
        else:
            out.append(ctx.xor(ctx.xor(x, y), carry))
            if i < last:
                carry = ctx.maj3(x, y, carry)
    return BitVec(tuple(out))


def product_with(a: BitVec, b: BitVec, ctx: CircuitBuilder) -> BitVec:
    """Unsigned product of two power-of-two-width vectors, exact in 2*width bits.

    An array (shift-and-add) multiplier: one AND row per bit of ``a``.
    """
    w = a.width
    if b.width != w:
        raise ValueError(f"width mismatch: {w} vs {b.width}")
    if w & (w - 1):
        raise ValueError(f"width must be a power of two, got {w}")
    out_width = 2 * w
    acc = None
    for i in range(w):
        row = [ctx.and_(a.lits[i], bj) for bj in b.lits]
        term = shift_left(BitVec(tuple(row)), i, ctx, width=out_width)
        acc = term if acc is None else sum_with(acc, term, ctx)
    return acc

