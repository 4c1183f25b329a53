"""State capture, restore, and canonical fingerprints.

A world is an ordinary Python object graph: simulator, endpoints,
queues, pending events.  :class:`StateCapturer` freezes it by pickling
it to ``bytes`` at the highest protocol, and every restore unpickles a
fresh, independent graph.  The pickler reduces a bound method to
``_rebind(__func__, __self__)`` rather than pickle's default lookup by
``__name__``: a callback keeps its exact function object (even one
patched onto the class under another name, as the mutation gate does),
and its ``__self__`` is the *restored* component, never the live one.

A snapshot carries only state the search can read back.  A
:class:`~repro.sim.trace.Tracer` travels with its simulator, echo flag,
listeners and flight recorder but an empty log: nothing a restored
world runs reads its records, and a counterexample's timeline comes
from a replay on a fresh world.  A ``random.Random`` travels as its
624 twister words and index packed into bytes, plus ``gauss_next``,
and is restored by ``setstate`` on an instance that was never seeded.

Whatever pickle cannot carry -- a lambda or nested function, a
generator, an OS handle -- makes :meth:`StateCapturer.capture` raise
instead of aliasing the live world.  That is the runtime backstop for
the SNAP001 lint, which rejects the same idioms statically.  A class
whose state cannot be pickled structurally defines its own
``__reduce__`` or ``__getstate__``/``__setstate__``; none of the
shipped sim state needs one.

Fingerprints canonicalise a world's *behavioural* state vector --
sorted dict items, deques as tuples, enums by value -- and hash it.
Exact tuples and exact atoms (``str``, ``bytes``, ``int``, ``float``,
``bool``, ``None``), most of what a vector holds, are dispatched by
type identity before the ``isinstance`` ladder.
Two states with equal fingerprints have identical futures, which is
what lets the explorer merge them (see DESIGN §11 for the soundness
argument about what the vector may omit).
"""

from __future__ import annotations

import collections
import copyreg
import enum
import hashlib
import io
import pickle
import random
import struct
import types
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.trace import Tracer

#: A Mersenne Twister state: 624 words and the index into them.
_MT_WORDS = struct.Struct("<625I")


def _rebind(func: Callable, owner: Any) -> types.MethodType:
    """Unpickle a bound method: ``func`` bound to the restored ``owner``."""
    return types.MethodType(func, owner)


def pack_random(rng: random.Random) -> Tuple[bytes, Optional[float]]:
    """A stream's whole state: its packed twister words and ``gauss_next``."""
    _version, words, gauss_next = rng.getstate()
    return _MT_WORDS.pack(*words), gauss_next


def _unpack_random(words: bytes, gauss_next: Optional[float]) -> random.Random:
    """Unpickle a stream packed by :func:`pack_random`."""
    # ``__new__`` alone skips the seeding ``__init__`` does, which would
    # read os.urandom only for setstate to overwrite it.
    rng = random.Random.__new__(random.Random)
    rng.setstate((random.Random.VERSION, _MT_WORDS.unpack(words), gauss_next))
    return rng


def _reduce_method(method: types.MethodType) -> tuple:
    return _rebind, (method.__func__, method.__self__)


def _reduce_random(rng: random.Random) -> tuple:
    return _unpack_random, pack_random(rng)


def _reduce_tracer(tracer: Tracer) -> tuple:
    # The state comes third, so the tracer is memoised before its
    # ``sim`` (whose pending events lead back to it) is written.
    state = dict(tracer.__dict__, records=[], _by_category={})
    return copyreg.__newobj__, (Tracer,), state


#: The capturer's own reductions, by exact type: a subclass may carry
#: state they would drop.
_REDUCERS: Dict[type, Callable[[Any], tuple]] = {
    types.MethodType: _reduce_method,
    random.Random: _reduce_random,
    Tracer: _reduce_tracer,
}


class _Pickler(pickle.Pickler):
    """A pickler that applies :data:`_REDUCERS`."""

    def reducer_override(self, obj: Any) -> Any:
        reduce = _REDUCERS.get(type(obj))
        if reduce is None:
            return NotImplemented
        return reduce(obj)


class StateCapturer:
    """Snapshot/restore for a world object graph.

    ``capture`` returns the world pickled to ``bytes``; ``restore``
    returns a fresh live world unpickled from them.  Each restore is
    independent -- the explorer restores the same snapshot once per
    branch and mutates each copy freely.  Objects passed to
    :meth:`share` travel as persistent ids, so they come back as the
    same object in both directions; use it for genuinely ambient
    things (an interner, a read-only table), never for mutable sim
    state.
    """

    def __init__(self) -> None:
        self._shared: list[Any] = []
        self._shared_ids: dict[int, int] = {}
        self.captures = 0
        self.restores = 0

    def share(self, obj: Any) -> None:
        """Exempt ``obj`` from copying: snapshots alias it directly."""
        self._shared_ids[id(obj)] = len(self._shared)
        self._shared.append(obj)

    def _persistent_id(self, obj: Any) -> Optional[int]:
        return self._shared_ids.get(id(obj))

    def capture(self, world: Any) -> bytes:
        """Freeze the world: bytes sharing nothing mutable with it."""
        self.captures += 1
        buffer = io.BytesIO()
        pickler = _Pickler(buffer, pickle.HIGHEST_PROTOCOL)
        # The pickler calls persistent_id on every object it writes,
        # so it is installed only when there is something to find.
        if self._shared:
            pickler.persistent_id = self._persistent_id
        pickler.dump(world)
        return buffer.getvalue()

    def restore(self, frozen: bytes) -> Any:
        """A fresh live world from a frozen snapshot."""
        self.restores += 1
        unpickler = pickle.Unpickler(io.BytesIO(frozen))
        unpickler.persistent_load = self._shared.__getitem__
        return unpickler.load()


#: Types ``canonical`` returns unchanged (exact types: an enum that
#: subclasses ``int`` or ``str`` still collapses to its value).
_ATOMS = frozenset((str, bytes, int, float, bool, type(None)))


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, hashable structure.

    Dicts become sorted item tuples, sets become sorted tuples, any
    sequence becomes a tuple, enums collapse to their value.  Unordered
    containers must canonicalise to the same result regardless of
    insertion history or the states would never merge.
    """
    cls = type(value)
    if cls in _ATOMS:
        return value
    if cls is tuple:
        return tuple([canonical(item) for item in value])
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return tuple(sorted(
            (repr(key), canonical(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(canonical(item)) for item in value))
    if isinstance(value, (list, tuple, collections.deque)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, (str, bytes, int, float)):
        return value
    raise TypeError(
        f"state vector contains un-canonicalisable {type(value).__name__}: "
        f"{value!r} -- reduce it to primitives in state_vector()")


def fingerprint(state_vector: Any) -> str:
    """A stable hash of a canonicalised state vector."""
    digest = hashlib.sha256(repr(canonical(state_vector)).encode())
    return digest.hexdigest()[:32]
