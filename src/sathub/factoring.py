"""Integer-factorization-to-CNF encoder and model decoder.

The first 2l variables of the target memory are the factor bits, MSB first:
u is x_1..x_l and v is x_(l+1)..x_(2l), with x_1 and x_(l+1) the sign bits
and x_l and x_(2l) the least significant bits. The solver decides the
lowest-index free variable first, so it settles the top bits first. The
encoding constrains an array multiplier's output to the given product
bits and adds nontriviality (each factor >= 2), nonnegativity (sign bits
zero), and the order v <= u as two bounds against constants:
v <= floor(sqrt(N)) and u >= ceil(sqrt(N)). So models are exactly the
ordered factor pairs. All auxiliary variables are functionally determined,
which keeps the model unique when the product is a semiprime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .bitvec import BitVec, product_with
from .circuits import CircuitBuilder


@dataclass(frozen=True)
class FactorizationSpec:
    """Problem statement: factor bit-length l (a power of two) and 2l product bits."""

    l: int
    product_bits: tuple[bool, ...]  # LSB first

    def __post_init__(self) -> None:
        if self.l < 2 or self.l & (self.l - 1):
            raise ValueError(f"factor length must be a power of two >= 2, got {self.l}")
        if len(self.product_bits) != 2 * self.l:
            raise ValueError(
                f"expected {2 * self.l} product bits, got {len(self.product_bits)}"
            )

    @classmethod
    def from_product(cls, l: int, product: int) -> "FactorizationSpec":
        if product < 0:
            raise ValueError("product must be nonnegative")
        if l >= 2 and product >> (2 * l):
            raise ValueError(f"product {product} needs more than {2 * l} bits")
        bits = tuple(bool((product >> i) & 1) for i in range(2 * l))
        return cls(l=l, product_bits=bits)

    @property
    def product(self) -> int:
        value = 0
        for i, bit in enumerate(self.product_bits):
            if bit:
                value |= 1 << i
        return value


def build_factorization(spec: FactorizationSpec, memory, alloc_chunk: int | None = 1) -> dict:
    """Encode the factorization instance into ``memory``; returns the variable layout.

    The memory is grown to at least 2l variables; variables 1..l and l+1..2l
    become the u and v bits, each MSB first; ``uVars``/``vVars`` list them
    LSB first. Satisfying models decode to pairs (u, v) with
    u * v == product and 2 <= v <= u < 2**(l-1).

    The circuit is built first and written by one ``CircuitBuilder.finalize``,
    so a fresh mirror costs two round trips (the grow to 2l, then the gate
    variables) and the node receives exactly the instance a local build
    makes. ``alloc_chunk`` pads the gate reservation as ``CircuitBuilder``
    describes.
    """
    l = spec.l
    if memory.var_count < 2 * l:
        grow = getattr(memory, "reserve_variables", None) or memory.add_variables
        grow(2 * l - memory.var_count)

    ctx = CircuitBuilder(memory, alloc_chunk=alloc_chunk)
    u = BitVec(tuple(range(l, 0, -1)))
    v = BitVec(tuple(range(2 * l, l, -1)))

    product = product_with(u, v, ctx)
    for lit, bit in zip(product, spec.product_bits):
        ctx.add_clause([lit if bit else -lit])

    # factors may not be 0 or 1: some bit below the sign and above the LSB
    for first in (1, l + 1):
        middle = list(range(first + 1, first + l - 1))
        if middle:
            ctx.add_clause(middle)
        else:
            ctx.add_clause([ctx.false_lit])

    # nonnegative factors: sign bits are zero
    ctx.add_clause([-1])
    ctx.add_clause([-(l + 1)])

    # ordering v <= u: as u * v == product, it holds exactly when v <= S =
    # floor(sqrt(product)), and then u >= C = ceil(sqrt(product)). Each is a
    # comparison with a constant, one clause per bit and no auxiliary variable.
    # Bits are listed from the top down, which is ascending variable order.
    s = isqrt(spec.product)
    c = s if s * s == spec.product else s + 1
    for i in range(l):
        if not (s >> i) & 1:  # v may not set bit i and every bit above it where S has a 1
            ctx.add_clause([-v[j] for j in range(l - 1, i, -1) if (s >> j) & 1] + [-v[i]])
    if c >> l:
        ctx.add_clause([ctx.false_lit])  # no l-bit u reaches C = 2**l
    for i in range(l):
        if (c >> i) & 1:  # u must set bit i or a bit above it where C has a 0
            ctx.add_clause([u[j] for j in range(l - 1, i, -1) if not (c >> j) & 1] + [u[i]])

    ctx.finalize()
    return {
        "uVars": list(u),
        "vVars": list(v),
        "varsAllocated": ctx.vars_allocated,
        "clausesAdded": ctx.clauses_added,
    }


def decode_model(model, spec: FactorizationSpec) -> tuple[int, int]:
    """Read the factor pair (u, v) out of a satisfying model (MSB-first bits)."""
    l = spec.l
    if len(model) < 2 * l:
        raise ValueError(f"model has {len(model)} entries, need at least {2 * l}")
    u = sum(1 << i for i in range(l) if model[l - 1 - i])
    v = sum(1 << i for i in range(l) if model[2 * l - 1 - i])
    return u, v
