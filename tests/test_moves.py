"""Property tests for the move-vector calculus (Lemmas 4.5–4.13)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.queueing import (
    completion_time,
    dominates,
    move,
    move_sequence_witness,
    move_star,
    precedes,
    random_move_sequence,
    singleton,
    singleton_decomposition,
    suffix_sums,
)

partitions = st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple)
moves = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)


def paired(draw, strategy_a, strategy_b):
    a = draw(strategy_a)
    b = draw(strategy_b.filter(lambda x: True))
    return a, b


@st.composite
def partition_move_pairs(draw):
    dim = draw(st.integers(1, 6))
    a = tuple(draw(st.integers(0, 5)) for _ in range(dim))
    m = tuple(draw(st.integers(0, 3)) for _ in range(dim))
    return a, m


@st.composite
def comparable_partitions(draw):
    """(a, b) with a ⪯ b, built by applying random moves to b."""
    dim = draw(st.integers(1, 5))
    b = tuple(draw(st.integers(0, 4)) for _ in range(dim))
    a = b
    for _ in range(draw(st.integers(0, 6))):
        m = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        a = move(a, m)
    return a, b


class TestMoveSemantics:
    def test_basic_shift(self):
        assert move((2, 3), (1, 1)) == (2, 2)

    def test_level_one_exits_system(self):
        assert move((4,), (2,)) == (2,)

    def test_clamped_by_occupancy(self):
        assert move((1, 0), (5, 5)) == (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            move((1, 2), (1,))

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            move((-1,), (0,))

    @given(partition_move_pairs())
    @settings(max_examples=100)
    def test_nonnegativity_preserved(self, pair):
        a, m = pair
        assert all(x >= 0 for x in move(a, m))

    @given(partition_move_pairs())
    @settings(max_examples=100)
    def test_total_never_increases(self, pair):
        a, m = pair
        assert sum(move(a, m)) <= sum(a)

    @given(partition_move_pairs())
    @settings(max_examples=100)
    def test_move_result_precedes_input(self, pair):
        a, m = pair
        assert precedes(move(a, m), a)


class TestLemma45SingletonDecomposition:
    @given(partition_move_pairs())
    @settings(max_examples=150)
    def test_decomposition_equals_simultaneous_move(self, pair):
        """Lemma 4.5: Move(a, m) == Move*(a, E_m, Σ m_i)."""
        a, m = pair
        singletons = singleton_decomposition(m)
        assert len(singletons) == sum(m)
        assert move_star(a, singletons) == move(a, m)

    def test_singleton_shape(self):
        assert singleton(4, 2) == (0, 1, 0, 0)
        with pytest.raises(ConfigurationError):
            singleton(3, 0)
        with pytest.raises(ConfigurationError):
            singleton(3, 4)

    def test_order_matters_example(self):
        """The ascending order is essential: e_2 then e_1 would let one
        message ride two hops (see module docstring)."""
        a = (0, 1)
        simultaneous = move(a, (1, 1))  # (1, 0): message moved one level
        wrong_order = move(move(a, (0, 1)), (1, 0))  # (0, 0): rode two hops
        assert simultaneous == (1, 0)
        assert wrong_order == (0, 0)


class TestPartialOrder:
    @given(partitions)
    @settings(max_examples=60)
    def test_reflexive(self, a):
        assert precedes(a, a)

    @given(comparable_partitions())
    @settings(max_examples=100)
    def test_construction_yields_comparable(self, pair):
        a, b = pair
        assert precedes(a, b)

    @given(comparable_partitions())
    @settings(max_examples=100)
    def test_witness_exists_and_verifies(self, pair):
        """precedes(a, b) iff an explicit move schedule maps b to a."""
        a, b = pair
        witness = move_sequence_witness(b, a)
        assert witness is not None
        assert move_star(b, witness) == a

    def test_witness_absent_when_not_preceding(self):
        # (1,0) ⪯ (0,1): mass can move down but not up — so (0,1) is NOT
        # reachable from (1,0).
        assert move_sequence_witness((1, 0), (0, 1)) is None
        assert precedes((1, 0), (0, 1))
        assert not precedes((0, 1), (1, 0))
        # The reachable direction has a verifying witness.
        witness = move_sequence_witness((0, 1), (1, 0))
        assert witness is not None and move_star((0, 1), witness) == (1, 0)

    def test_suffix_sums(self):
        assert suffix_sums((1, 2, 3)) == (6, 5, 3)

    @given(comparable_partitions(), moves)
    @settings(max_examples=100)
    def test_lemma_47_monotone_under_same_move(self, pair, m):
        """Lemma 4.7: a ⪯ b implies Move(a, m) ⪯ Move(b, m)."""
        a, b = pair
        m = (m + (0,) * len(a))[: len(a)]
        assert precedes(move(a, m), move(b, m))


class TestDomination:
    def test_dominates_basic(self):
        assert dominates((2, 1), (1, 1))
        assert not dominates((0, 2), (1, 1))

    @given(partition_move_pairs(), st.integers(0, 2))
    @settings(max_examples=100)
    def test_lemma_412_dominating_moves_advance_more(self, pair, extra):
        """Lemma 4.12 (a = b case): if m dominates m' then
        Move(a, m) ⪯ Move(a, m')."""
        a, m_small = pair
        m_big = tuple(x + extra for x in m_small)
        assert dominates(m_big, m_small)
        assert precedes(move(a, m_big), move(a, m_small))


class TestCompletionTime:
    def test_empty_partition_completes_at_zero(self):
        assert completion_time((0, 0), iter([])) == 0

    def test_deterministic_drain(self):
        # One message at level 2 with full-move vectors: 2 steps.
        full = [(1, 1), (1, 1)]
        assert completion_time((0, 1), iter(full)) == 2

    def test_exhausted_sequence_raises(self):
        with pytest.raises(ConfigurationError):
            completion_time((0, 1), iter([(1, 1)]))

    @given(comparable_partitions(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_lemma_48_pathwise_monotonicity(self, pair, seed):
        """Lemma 4.8: a ⪯ b implies T(a, M) ≤ T(b, M) for the same M."""
        a, b = pair
        rng = random.Random(seed)
        # λ = µ so every position (reservoir included) keeps draining.
        sequence = random_move_sequence(
            len(a), mu=0.6, lam=0.6, rng=rng, length=2_000
        )
        t_b = completion_time(b, iter(sequence))
        t_a = completion_time(a, iter(sequence))
        assert t_a <= t_b

    @given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_lemma_413_dominating_sequences_finish_sooner(
        self, dim, load, seed
    ):
        """Lemma 4.13: pointwise-dominating move sequences complete first."""
        rng = random.Random(seed)
        base = random_move_sequence(dim, mu=0.5, lam=0.5, rng=rng, length=800)
        dominating = [tuple(min(1, x + 1) for x in m) for m in base]
        a = (0,) * (dim - 1) + (load,)
        t_dominating = completion_time(a, iter(dominating + [(1,) * dim] * (load * dim + 4)))
        t_base = completion_time(
            a, iter(base + [(1,) * dim] * (load * dim + 4))
        )
        assert t_dominating <= t_base
