"""Named random streams and the bounded-Pareto sampler from §V-A1.

Determinism policy: a single experiment seed fans out into independently
seeded :class:`numpy.random.Generator` streams, one per concern (workload
choice, invalidation drops, client jitter, ...). Adding a new consumer of
randomness therefore never perturbs the draws seen by existing consumers,
which keeps figures stable across code changes.

Bounded integers: every index the workloads draw comes from
:func:`integers_below`, which pulls 32-bit words from the bit generator's own
``next_uint32`` C function — the one ``bit_generator.ctypes`` exposes, numpy's
documented extension interface, and the same function and buffered half-word
``Generator.integers`` uses — and applies numpy's 32-bit Lemire rule in Python
ints. It therefore equals ``rng.integers(0, bound, size=count).tolist()``
value for value and leaves the generator in the identical state under any
interleaving with ``random``, ``exponential`` or numpy's own ``integers`` on
the same stream; what it skips is ``Generator.integers``' per-call shape
arithmetic and ``np.int64`` boxing, which cost several times the draws.
``tests/property/test_rng_props.py`` pins the equivalence on twin generators
(it is what fails, and says why, if a future numpy changes its algorithm) and
``tests/unit/test_workload_streams.py`` pins the draws themselves.

Why the interpreter lock is held: numpy's ``ctypes.next_uint32`` is a
``CFUNCTYPE``, and ctypes releases the lock around every such call. A word
takes nanoseconds, so with two Python threads in one interpreter (an
in-process fleet daemon and its workers, or two loopback workers) each word
became a lock hand-off, and the threads spent most of the draw waiting for
each other. :func:`integers_below` instead calls the same C function on the
same state pointer through a ``PYFUNCTYPE``, which keeps the lock; serially it
is also slightly cheaper per word.

Why the pointer cache is bounded: the ``PYFUNCTYPE`` is built once per
bit-generator *class* and kept in ``_HELD_NEXT_UINT32``. numpy's bit
generators point every instance of a class at one static C function (the
state pointer is per instance, and is read from the instance on every call),
so the dict holds at most one entry per class however many streams a
long-lived fleet worker creates — unlike a per-generator cache, which would
grow by one entry per stream per sweep point.

Why :meth:`BoundedPareto.sample_offsets` is not changed the same way: its
``rng.random(count)`` is one array fill, which releases the lock once per
access set, not once per draw; a lock-holding ``next_double`` loop measured
slower single-threaded (1.75 µs against 1.21 µs for ``rng.random(5).tolist()``
on a 2-CPU x86-64 VM).
"""

from __future__ import annotations

import ctypes
import operator
import zlib

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RngStreams", "BoundedPareto", "integers_below"]

#: ``uint32_t next_uint32(void *state)``, called with the interpreter lock held.
_HeldNextUint32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)

#: Bit-generator class -> its ``next_uint32`` as a :data:`_HeldNextUint32`.
_HELD_NEXT_UINT32: dict[type, _HeldNextUint32] = {}


def _held_next_uint32(bit_generator: np.random.BitGenerator) -> _HeldNextUint32:
    """``bit_generator``'s ``next_uint32`` behind a lock-holding pointer."""
    kind = type(bit_generator)
    held = _HELD_NEXT_UINT32.get(kind)
    if held is None:
        address = ctypes.cast(bit_generator.ctypes.next_uint32, ctypes.c_void_p)
        held = _HELD_NEXT_UINT32[kind] = _HeldNextUint32(address.value)
    return held


class RngStreams:
    """A family of independently seeded random generators.

    >>> streams = RngStreams(seed=7)
    >>> a = streams.stream("invalidation-drops")
    >>> b = streams.stream("workload")
    >>> a is streams.stream("invalidation-drops")
    True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use.

        The per-stream seed mixes the experiment seed with a stable hash of
        the name (crc32 — stable across processes and Python versions, unlike
        built-in ``hash``).
        """
        generator = self._streams.get(name)
        if generator is None:
            name_digest = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=(self._seed, name_digest))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RngStreams":
        """A fresh family for a sub-experiment (e.g. one sweep point)."""
        return RngStreams(self._seed * 1_000_003 + salt)


def integers_below(rng: np.random.Generator, bound: int, count: int) -> list[int]:
    """``count`` uniform draws from ``[0, bound)``, as ``rng.integers`` draws them.

    Stream-identical to ``rng.integers(0, bound, size=count).tolist()`` (and,
    for ``count == 1``, to the scalar ``int(rng.integers(0, bound))``): numpy's
    Lemire-32 rule over the bit generator's own ``next_uint32``. ``bound == 1``
    consumes nothing, exactly as numpy. ``bound`` stops at ``2**32 - 1``
    because numpy switches algorithm at ``2**32``. ``bound`` and ``count`` may
    be any integer type (``np.int64`` included — it is converted first, so the
    draws are Python ints and the multiply cannot overflow); anything
    non-integral is a :class:`ConfigurationError`.
    """
    try:
        bound = operator.index(bound)
        count = operator.index(count)
    except TypeError as exc:
        raise ConfigurationError(
            f"bound and count must be integers, got bound={bound!r} count={count!r}"
        ) from exc
    if not 1 <= bound <= 0xFFFFFFFF:
        raise ConfigurationError(f"bound must be in [1, 2**32 - 1], got {bound}")
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if bound == 1:
        return [0] * count
    bit_generator = rng.bit_generator
    next_uint32 = _held_next_uint32(bit_generator)
    state = bit_generator.ctypes.state
    draws = []
    for _ in range(count):
        scaled = next_uint32(state) * bound
        if scaled & 0xFFFFFFFF < bound:
            # Rejection removes the bias; ``bound`` is a cheap upper bound
            # for the threshold, so the modulo is rarely computed.
            threshold = (0x100000000 - bound) % bound
            while scaled & 0xFFFFFFFF < threshold:
                scaled = next_uint32(state) * bound
        draws.append(scaled >> 32)
    return draws


class BoundedPareto:
    """Bounded Pareto distribution on ``[low, high]`` with shape ``alpha``.

    §V-A1 chooses each object of a transaction "using a bounded Pareto
    distribution starting at the head of its cluster". Small ``alpha``
    (paper: 1/32) is nearly uniform over the whole range; large ``alpha``
    (paper: 4) concentrates mass on the first few values, confining accesses
    to the cluster.

    Sampling uses the closed-form inverse CDF:

        F(x)   = (1 - (L/x)^a) / (1 - (L/H)^a)
        F^-1(u) = L * (1 - u * (1 - (L/H)^a)) ** (-1/a)
    """

    def __init__(self, alpha: float, low: float = 1.0, high: float = 1000.0) -> None:
        if alpha <= 0:
            raise ConfigurationError(f"Pareto alpha must be positive, got {alpha}")
        if not 0 < low < high:
            raise ConfigurationError(f"need 0 < low < high, got low={low} high={high}")
        self.alpha = float(alpha)
        self.low = float(low)
        self.high = float(high)
        self._tail = 1.0 - (self.low / self.high) ** self.alpha
        # Constants of the inverse CDF, hoisted out of the per-draw path
        # (one draw per object of every transaction's access set).
        self._exponent = -1.0 / self.alpha
        self._low_offset = int(self.low)

    def sample(self, rng: np.random.Generator) -> float:
        """One draw in ``[low, high]``."""
        return self.low * (1.0 - rng.random() * self._tail) ** self._exponent

    def sample_offset(self, rng: np.random.Generator) -> int:
        """One draw quantised to a zero-based integer offset.

        A draw ``x`` in ``[1, high]`` maps to offset ``floor(x) - 1``, so the
        most probable draw (``x`` just above ``low=1``) is offset 0 — the
        head of the cluster.
        """
        # sample(), inlined.
        draw = self.low * (1.0 - rng.random() * self._tail) ** self._exponent
        return int(draw) - self._low_offset

    def sample_offsets(self, rng: np.random.Generator, count: int) -> list[int]:
        """``count`` draws of :meth:`sample_offset` from one vector draw.

        ``rng.random(count)`` consumes the generator's stream exactly as
        ``count`` scalar ``rng.random()`` calls do, and the inverse-CDF
        power stays in Python floats, so the offsets — and the stream
        position afterwards — are those of the scalar form.
        """
        low, tail, exponent = self.low, self._tail, self._exponent
        low_offset = self._low_offset
        return [
            int(low * (1.0 - uniform * tail) ** exponent) - low_offset
            for uniform in rng.random(count).tolist()
        ]

    def cdf(self, x: float) -> float:
        """Exact CDF, used by distribution tests."""
        if x <= self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (1.0 - (self.low / x) ** self.alpha) / self._tail

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundedPareto(alpha={self.alpha}, low={self.low}, high={self.high})"
