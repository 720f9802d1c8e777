import random

import pytest

from sathub.bitvec import BitVec, product_with, shift_left, sum_with
from sathub.circuits import CircuitBuilder
from sathub.cnf import CnfStore
from sathub.dpll import DpllSolver

from oracles import from_bits, karatsuba_terms


class CircuitHarness:
    """One built circuit, solved repeatedly under different fixed inputs."""

    def __init__(self, widths, build):
        self.store = CnfStore(0)
        firsts = [self.store.reserve_variables(w) for w in widths]
        self.inputs = [BitVec.from_vars(f, w) for f, w in zip(firsts, widths)]
        ctx = CircuitBuilder(self.store)
        self.output = build(ctx, *self.inputs)
        ctx.finalize()
        self.solver = DpllSolver(self.store)

    def eval(self, *values):
        assumptions = []
        for vec, value in zip(self.inputs, values):
            for i, lit in enumerate(vec):
                bit = (value >> i) & 1
                assumptions.append(lit if bit else -lit)
        outcome = self.solver.solve(assumptions=assumptions)
        assert outcome.result == "SAT", f"circuit UNSAT under inputs {values}"
        model = outcome.model
        bits = [
            model[lit - 1] if lit > 0 else not model[-lit - 1] for lit in self.output
        ]
        return from_bits(bits)


def test_sum_examples():
    h = CircuitHarness([4, 4], lambda ctx, a, b: sum_with(a, b, ctx))
    assert h.eval(3, 5) == 8
    assert h.eval(12, 7) == 3  # overflow discarded
    for x in range(16):
        assert h.eval(x, 0) == x


def test_sum_exhaustive_widths_to_4():
    for w in range(1, 5):
        h = CircuitHarness([w, w], lambda ctx, a, b: sum_with(a, b, ctx))
        for x in range(1 << w):
            for y in range(1 << w):
                assert h.eval(x, y) == (x + y) % (1 << w), (w, x, y)


def test_sum_width_mismatch():
    store = CnfStore(6)
    ctx = CircuitBuilder(store)
    with pytest.raises(ValueError):
        sum_with(BitVec.from_vars(1, 2), BitVec.from_vars(3, 4), ctx)


def test_product_examples():
    h = CircuitHarness([4, 4], lambda ctx, a, b: product_with(a, b, ctx))
    assert h.eval(13, 11) == 143
    assert h.eval(5, 3) == 15

    h2 = CircuitHarness([2, 2], lambda ctx, a, b: product_with(a, b, ctx))
    for x in range(4):
        assert h2.eval(x, 0) == 0


def test_product_rejects_bad_widths():
    store = CnfStore(8)
    ctx = CircuitBuilder(store)
    with pytest.raises(ValueError):
        product_with(BitVec.from_vars(1, 3), BitVec.from_vars(4, 3), ctx)
    with pytest.raises(ValueError):
        product_with(BitVec.from_vars(1, 2), BitVec.from_vars(3, 4), ctx)


def test_product_exhaustive_widths_1_2_4():
    for w in (1, 2, 4):
        h = CircuitHarness([w, w], lambda ctx, a, b: product_with(a, b, ctx))
        for x in range(1 << w):
            for y in range(1 << w):
                assert h.eval(x, y) == x * y, (w, x, y)


def test_product_width_8_random_pairs():
    h = CircuitHarness([8, 8], lambda ctx, a, b: product_with(a, b, ctx))
    rng = random.Random(321)
    for _ in range(100):
        x = rng.randrange(256)
        y = rng.randrange(256)
        assert h.eval(x, y) == x * y, (x, y)


def test_shift_left():
    def build_shift(ctx, a):
        return shift_left(a, 2, ctx, width=6)

    hsh = CircuitHarness([4], build_shift)
    for value in range(16):
        assert hsh.eval(value) == (value << 2) % 64


def test_karatsuba_decomposition_all_4bit_pairs():
    for u in range(16):
        for v in range(16):
            t_hi, t_mid, t_lo, total = karatsuba_terms(u, v, 4)
            assert total == u * v, (u, v)


def test_karatsuba_decomposition_documented_example():
    # 13 * 11 with n=2: 20*6 + 4*2 + 5*3 = 143
    t_hi, t_mid, t_lo, total = karatsuba_terms(13, 11, 4)
    assert (t_hi, t_mid, t_lo) == (120, 8, 15)
    assert total == 143


def test_karatsuba_decomposition_needs_2_pow_n_coefficient():
    # at width 8 (n=4) the middle coefficient must be 2^n, not 2^2
    rng = random.Random(8)
    for _ in range(200):
        u, v = rng.randrange(256), rng.randrange(256)
        assert karatsuba_terms(u, v, 8)[3] == u * v
        n, mask = 4, 15
        u1, u0, v1, v0 = u >> n, u & mask, v >> n, v & mask
        wrong = (
            ((1 << (2 * n)) + (1 << n)) * u1 * v1
            + 4 * (u1 - u0) * (v0 - v1)
            + ((1 << n) + 1) * u0 * v0
        )
        if (u1 - u0) * (v0 - v1) != 0:
            assert wrong != u * v
