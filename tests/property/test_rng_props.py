"""Property-based tests: ``integers_below`` against ``Generator.integers``.

The workloads draw every index through :func:`repro.sim.rng.integers_below`,
which re-implements numpy's 32-bit Lemire rule over the bit generator's own
``next_uint32``. These tests run it beside ``Generator.integers`` on twin
generators through arbitrary interleavings: the values must agree at every
step and the two generators must be indistinguishable at the end. If a future
numpy changes ``Generator.integers``, this is the test that fails — not a
golden digest three layers up — and CI runs it against the declared floor
``numpy==1.24.*`` as well as the current release. The same floor leg runs the
pins on *how* the words are drawn: through a lock-holding pointer to the
instance's own C function, cached once per bit-generator class.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim import rng as rng_module
from repro.sim.rng import RngStreams, integers_below

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

    @pytest.mark.parametrize("bound", [5.0, 2.5, "5", None])
    def test_non_integral_bound(self, bound) -> None:
        with pytest.raises(ConfigurationError, match="integers"):
            integers_below(np.random.default_rng(1), bound, 1)

    def test_non_integral_count(self) -> None:
        with pytest.raises(ConfigurationError, match="integers"):
            integers_below(np.random.default_rng(1), 5, 2.0)


class TestNumpyIntegerArguments:
    """A numpy-integer bound is the same bound: same draws, Python ints.

    Without conversion the Lemire multiply runs in ``np.int64`` and wraps
    for bounds near ``2**32`` (with nothing but a ``RuntimeWarning``)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", BIT_GENERATORS)
    @pytest.mark.parametrize(
        "bound",
        [np.int32(5), np.int32(2**31 - 1)]
        + [
            kind(value)
            for kind in (np.int64, np.uint32, np.uint64)
            for value in (5, 2**31 - 1, 2**32 - 1)
        ],
        ids=repr,
    )
    def test_equals_generator_integers(self, name, bound) -> None:
        ours, numpys = twins(name, 11)
        draws = integers_below(ours, bound, np.int64(6))
        assert draws == numpys.integers(0, int(bound), size=6).tolist()
        assert all(type(draw) is int for draw in draws)
        assert same_state(ours.bit_generator.state, numpys.bit_generator.state)

    @pytest.mark.filterwarnings("error")
    def test_largest_bound_first_value(self) -> None:
        expected = int(np.random.default_rng(7).integers(0, 2**32 - 1))
        drawn = integers_below(np.random.default_rng(7), np.int64(2**32 - 1), 1)
        assert drawn == [expected] and type(drawn[0]) is int


def c_address(function: object) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


class TestHeldPointer:
    """The words come from the instance's own ``next_uint32`` through a
    ``PYFUNCTYPE`` pointer, which keeps the interpreter lock; numpy's
    ``ctypes.next_uint32`` is a ``CFUNCTYPE``, which drops it on every word."""

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_pointer_holds_the_lock(self, name) -> None:
        ours, _ = twins(name, 4)
        integers_below(ours, 40, 3)
        held = rng_module._HELD_NEXT_UINT32[type(ours.bit_generator)]
        numpys_flags = ours.bit_generator.ctypes.next_uint32._flags_
        assert held._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        assert not numpys_flags & ctypes._FUNCFLAG_PYTHONAPI

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_pointer_is_the_instances_next_uint32(self, name) -> None:
        for seed in (4, 5):
            ours, _ = twins(name, seed)
            integers_below(ours, 40, 1)
            held = rng_module._HELD_NEXT_UINT32[type(ours.bit_generator)]
            assert c_address(held) == c_address(ours.bit_generator.ctypes.next_uint32)

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_draws_go_through_the_cached_pointer(self, name, monkeypatch) -> None:
        ours, numpys = twins(name, 6)
        kind = type(ours.bit_generator)
        held = rng_module._held_next_uint32(ours.bit_generator)
        calls = []

        def spy(state):
            calls.append(state)
            return held(state)

        monkeypatch.setitem(rng_module._HELD_NEXT_UINT32, kind, spy)
        assert integers_below(ours, 40, 5) == numpys.integers(0, 40, 5).tolist()
        assert len(calls) >= 5

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_cache_holds_one_entry_per_class(self, name) -> None:
        bit_generator = getattr(np.random, name)
        integers_below(np.random.Generator(bit_generator(0)), 40, 1)
        integers_below(RngStreams(0).stream("workload"), 40, 1)
        before = dict(rng_module._HELD_NEXT_UINT32)
        for seed in range(1_000):
            integers_below(RngStreams(seed).stream(f"stream-{seed}"), 40, 2)
            integers_below(np.random.Generator(bit_generator(seed)), 40, 2)
        after = rng_module._HELD_NEXT_UINT32
        assert after.keys() == before.keys()
        assert all(after[kind] is before[kind] for kind in before)
        assert all(isinstance(kind, type) for kind in after)
