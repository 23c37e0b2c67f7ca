"""Property-based tests: ``integers_below`` against ``Generator.integers``.

The workloads draw every index through :func:`repro.sim.rng.integers_below`,
which re-implements numpy's 32-bit Lemire rule over the bit generator's own
``next_uint32``. These tests run it beside ``Generator.integers`` on twin
generators through arbitrary interleavings: the values must agree at every
step and the two generators must be indistinguishable at the end. If a future
numpy changes ``Generator.integers``, this is the test that fails — not a
golden digest three layers up — and CI runs it against the declared floor
``numpy==1.24.*`` as well as the current release.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.rng import integers_below

BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937")

#: 2**31 + 1 rejects half of all words; 2**32 - 1 is the last bound on
#: numpy's Lemire path.
EDGE_BOUNDS = (1, 2, 3, 5, 40, 2**16, 2**31 - 1, 2**31 + 1, 2**32 - 1)

bounds = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32 - 1))
counts = st.integers(0, 12)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("below"), bounds, counts),
        st.tuples(st.just("scalar"), bounds),
        st.tuples(st.just("numpy-integers"), bounds, counts),
        st.tuples(st.just("random")),
        st.tuples(st.just("random-k"), st.integers(0, 5)),
        st.tuples(st.just("exponential")),
    ),
    max_size=40,
)


def twins(name: str, seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    bit_generator = getattr(np.random, name)
    return (
        np.random.Generator(bit_generator(seed)),
        np.random.Generator(bit_generator(seed)),
    )


def same_state(left: object, right: object) -> bool:
    """Equality of ``bit_generator.state`` values; Philox and MT19937 hold arrays."""
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(same_state(left[key], right[key]) for key in left)
        )
    if isinstance(left, np.ndarray):
        return isinstance(right, np.ndarray) and np.array_equal(left, right)
    return left == right


def step(ours: np.random.Generator, numpys: np.random.Generator, op: tuple) -> None:
    """One operation on both twins: the helper on ``ours``, numpy on ``numpys``."""
    kind = op[0]
    if kind == "below":
        _, bound, count = op
        expected = numpys.integers(0, bound, size=count).tolist()
        assert integers_below(ours, bound, count) == expected
    elif kind == "scalar":
        assert integers_below(ours, op[1], 1) == [int(numpys.integers(0, op[1]))]
    elif kind == "numpy-integers":
        _, bound, count = op
        drawn = ours.integers(0, bound, size=count).tolist()
        assert drawn == numpys.integers(0, bound, size=count).tolist()
    elif kind == "random":
        assert ours.random() == numpys.random()
    elif kind == "random-k":
        assert ours.random(op[1]).tolist() == numpys.random(op[1]).tolist()
    else:
        assert ours.exponential() == numpys.exponential()


class TestIntegersBelowIsGeneratorIntegers:
    @pytest.mark.parametrize("name", BIT_GENERATORS)
    @given(seed=st.integers(0, 2**32 - 1), ops=operations)
    @settings(max_examples=150, deadline=None)
    def test_values_and_stream_position_agree(self, name, seed, ops) -> None:
        ours, numpys = twins(name, seed)
        for op in ops:
            step(ours, numpys, op)
        assert same_state(ours.bit_generator.state, numpys.bit_generator.state)
        # Indistinguishable from here on, whichever way the next draws go.
        assert integers_below(ours, 2**31 + 1, 4) == integers_below(
            numpys, 2**31 + 1, 4
        )
        step(ours, numpys, ("numpy-integers", 7, 3))
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_results_are_python_ints_in_range(self, name) -> None:
        ours, _ = twins(name, 9)
        for bound in EDGE_BOUNDS:
            draws = integers_below(ours, bound, 50)
            assert all(type(draw) is int and 0 <= draw < bound for draw in draws)

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_bound_one_and_count_zero_consume_nothing(self, name) -> None:
        ours, untouched = twins(name, 3)
        assert integers_below(ours, 1, 6) == [0] * 6
        assert integers_below(ours, 40, 0) == []
        assert same_state(ours.bit_generator.state, untouched.bit_generator.state)


class TestRejectedArguments:
    @pytest.mark.parametrize("bound", [0, -1, 2**32])
    def test_bound_outside_the_lemire_range(self, bound) -> None:
        with pytest.raises(ConfigurationError, match="bound"):
            integers_below(np.random.default_rng(1), bound, 1)

    def test_negative_count(self) -> None:
        with pytest.raises(ConfigurationError, match="count"):
            integers_below(np.random.default_rng(1), 5, -1)
