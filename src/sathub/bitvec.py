"""Fixed-width integer circuits over literal lists: negation, addition, multiplication.

Bit vectors are LSB-first literal lists with two's-complement semantics.
Addition and negation are exact mod 2**width; multiplication doubles the
width, so products of unsigned inputs are exact. The multiplier is an array
(shift-and-add) of AND rows summed by ripple-carry adders at every width.
``karatsuba_terms`` checks the Karatsuba recombination at the integer
level; no circuit is built from it, because its signed middle term weakens
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


def widen(b: BitVec, width: int, ctx: CircuitBuilder, signed: bool = False) -> BitVec:
    """Extend to ``width`` bits: sign-bit replication when signed, zeros otherwise."""
    if width < b.width:
        raise ValueError(f"cannot widen {b.width} bits to {width}")
    if width == b.width:
        return b
    pad = b.lits[-1] if signed else ctx.false_lit
    return BitVec(b.lits + (pad,) * (width - b.width))


def shift_left(b: BitVec, k: int, ctx: CircuitBuilder, width: int | None = None) -> BitVec:
    """Multiply by 2**k at exactly ``width`` bits (default: input width), truncating."""
    out_width = width if width is not None else b.width
    lits = (ctx.false_lit,) * k + b.lits
    if len(lits) < out_width:
        lits = lits + (ctx.false_lit,) * (out_width - len(lits))
    return BitVec(lits[:out_width])


def negation(b: BitVec, ctx: CircuitBuilder) -> BitVec:
    """Two's-complement negation: ``conditional_negate`` with the constant-true sign."""
    return conditional_negate(b, ctx.true_lit, ctx)


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


def conditional_negate(b: BitVec, sign: int, ctx: CircuitBuilder) -> BitVec:
    """Value when sign is false, two's-complement negation when true.

    Computed as (b xor sign) + sign; the low bit is unchanged either way.
    """
    width = b.width
    out = [b.lits[0]]
    carry = ctx.and_(sign, -b.lits[0])
    for i in range(1, width):
        z = ctx.xor(b.lits[i], sign)
        out.append(ctx.xor(z, carry))
        if i < width - 1:
            carry = ctx.and_(z, carry)
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


def karatsuba_terms(u: int, v: int, width: int) -> tuple[int, int, int, int]:
    """Integer-level decomposition: the three weighted terms and their total.

    u*v = (2^(2n) + 2^n) * U1*V1 + 2^n * (U1 - U0) * (V0 - V1) + (2^n + 1) * U0*V0
    with n = width/2 and U1, U0 (V1, V0) the high and low halves.
    """
    n = width // 2
    mask = (1 << n) - 1
    u1, u0 = u >> n, u & mask
    v1, v0 = v >> n, v & mask
    t_hi = ((1 << (2 * n)) + (1 << n)) * (u1 * v1)
    t_mid = (1 << n) * ((u1 - u0) * (v0 - v1))
    t_lo = ((1 << n) + 1) * (u0 * v0)
    return t_hi, t_mid, t_lo, t_hi + t_mid + t_lo
