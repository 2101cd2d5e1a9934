"""Bit-math and QubitLayout tests (incl. hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sv.layout import (
    QubitLayout,
    axis_of_qubit,
    extract_bits,
    gather_index_table,
    permute_bits,
    permuted_view,
    spread_bits,
)


@st.composite
def permutations(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = list(range(n))
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(perm)
    return perm


class TestBitOps:
    def test_axis_of_qubit(self):
        assert axis_of_qubit(4, 0) == 3
        assert axis_of_qubit(4, 3) == 0
        with pytest.raises(ValueError):
            axis_of_qubit(4, 4)

    def test_spread_simple(self):
        vals = np.arange(4)
        out = spread_bits(vals, [1, 3])
        assert list(out) == [0, 2, 8, 10]

    def test_extract_simple(self):
        vals = np.array([0, 2, 8, 10])
        out = extract_bits(vals, [1, 3])
        assert list(out) == [0, 1, 2, 3]

    @given(positions=st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True))
    def test_extract_inverts_spread(self, positions):
        vals = np.arange(1 << len(positions), dtype=np.int64)
        assert np.array_equal(extract_bits(spread_bits(vals, positions), positions), vals)

    @given(perm=permutations())
    def test_permute_bits_is_bijection(self, perm):
        n = len(perm)
        vals = np.arange(1 << n, dtype=np.int64)
        out = permute_bits(vals, perm)
        assert sorted(out) == list(vals)

    @given(perm=permutations())
    def test_permute_bits_inverse(self, perm):
        n = len(perm)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        vals = np.arange(1 << n, dtype=np.int64)
        assert np.array_equal(permute_bits(permute_bits(vals, perm), inv), vals)

    def test_permute_identity(self):
        vals = np.arange(16, dtype=np.int64)
        assert np.array_equal(permute_bits(vals, [0, 1, 2, 3]), vals)


class TestPermutedView:
    """The transposed view against its definition, ``permute_bits``."""

    @given(perm=permutations(max_n=10))
    def test_flat_index_is_the_permuted_index(self, perm):
        data = np.arange(1 << len(perm)) * (1 + 2j)
        view = permuted_view(data, perm)
        assert view.shape == (2,) * len(perm)
        assert np.shares_memory(view, data)  # a view: no index array
        expected = np.empty_like(data)
        expected[permute_bits(np.arange(data.size), perm)] = data
        assert np.array_equal(np.array(view, order="C").reshape(-1), expected)

    @given(perm=permutations(max_n=8))
    def test_matches_layout_index_maps(self, perm):
        # logical -> packed and back, as from_full / to_full use it.
        layout = QubitLayout(perm)
        identity = QubitLayout.identity(layout.n)
        logical = np.arange(1 << layout.n, dtype=np.float64)
        packed = np.array(
            permuted_view(logical, identity.transition_sigma(layout)),
            order="C",
        ).reshape(-1)
        assert np.array_equal(
            packed, logical[layout.logical_index(np.arange(logical.size))]
        )
        back = permuted_view(packed, layout.transition_sigma(identity))
        assert np.array_equal(np.array(back, order="C").reshape(-1), logical)

    def test_rejects_non_permutations_and_wrong_sizes(self):
        data = np.zeros(8)
        for sigma in ([0, 0, 1], [0, 1, 3], [1, 2, 3]):
            with pytest.raises(ValueError, match="not a permutation"):
                permuted_view(data, sigma)
        with pytest.raises(ValueError, match="8 elements"):
            permuted_view(np.zeros(4), [0, 1, 2])
        with pytest.raises(ValueError, match="8 elements"):
            permuted_view(np.zeros((2, 4)), [0, 1, 2])

    def test_zero_bits(self):
        view = permuted_view(np.array([3.0]), [])
        assert view.shape == () and float(np.array(view, order="C")) == 3.0


class TestGatherTable:
    def test_shape(self):
        t = gather_index_table(5, [1, 3])
        assert t.shape == (8, 4)

    def test_covers_all_indices_exactly_once(self):
        t = gather_index_table(6, [0, 2, 5])
        assert sorted(t.reshape(-1)) == list(range(64))

    def test_inner_order_is_operand_order(self):
        # inner qubits [3, 1]: column j has bit0(j)->qubit3, bit1(j)->qubit1.
        t = gather_index_table(4, [3, 1])
        assert t[0, 0] == 0
        assert t[0, 1] == 8  # j=1 -> qubit 3 set
        assert t[0, 2] == 2  # j=2 -> qubit 1 set
        assert t[0, 3] == 10

    def test_duplicate_inner_rejected(self):
        with pytest.raises(ValueError):
            gather_index_table(4, [1, 1])


class TestQubitLayout:
    def test_identity(self):
        lay = QubitLayout.identity(4)
        assert lay.positions == (0, 1, 2, 3)
        assert lay.qubit_at(2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            QubitLayout([0, 0, 1])
        with pytest.raises(ValueError):
            QubitLayout([0, 2])

    def test_position_queries(self):
        lay = QubitLayout([2, 0, 1])  # qubit0->pos2, qubit1->pos0, qubit2->pos1
        assert lay.position(0) == 2
        assert lay.qubit_at(2) == 0
        assert lay.qubits_in_positions(0, 2) == [1, 2]

    def test_equality_and_hash(self):
        a = QubitLayout([1, 0, 2])
        b = QubitLayout([1, 0, 2])
        assert a == b and hash(a) == hash(b)
        assert a != QubitLayout.identity(3)

    @given(p1=permutations(max_n=8), p2=permutations(max_n=8))
    def test_transition_sigma_consistency(self, p1, p2):
        n = min(len(p1), len(p2))
        old = QubitLayout(p1[:n] if sorted(p1[:n]) == list(range(n)) else list(range(n)))
        # Build a valid second permutation of the same size.
        new_positions = sorted(range(n), key=lambda q: p2[q % len(p2)] * 100 + q)
        inv = [0] * n
        for i, p in enumerate(new_positions):
            inv[p] = i
        new = QubitLayout(new_positions)
        sigma = old.transition_sigma(new)
        packed = np.arange(1 << n, dtype=np.int64)
        # Moving through logical space must equal the direct sigma map.
        direct = permute_bits(packed, sigma)
        via_logical = new.packed_index(old.logical_index(packed))
        assert np.array_equal(direct, via_logical)

    def test_logical_packed_roundtrip(self):
        lay = QubitLayout([3, 1, 0, 2])
        idx = np.arange(16, dtype=np.int64)
        assert np.array_equal(lay.packed_index(lay.logical_index(idx)), idx)
        assert np.array_equal(lay.logical_index(lay.packed_index(idx)), idx)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            QubitLayout.identity(3).transition_sigma(QubitLayout.identity(4))
