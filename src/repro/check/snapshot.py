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
A ``collections.deque`` reduces as ``deque.__reduce__`` would, minus
that method's lookup of the type's slot names.  These four reductions
sit in the pickler's exact-type ``dispatch_table``: pickle looks every
other type up there without a Python call.

Pickle writes a class, a module-level function, a builtin of a module
and an enum member by name (a member as its class and value), and the
load looks the very same object up again.  A capturer keeps such
objects in a table, with the ``str`` keys of the dicts it has written
(attribute names, mostly).  Every capture starts from a copy of a memo
that already holds the table, so each entry costs one memo reference,
not a lookup by name or a string written out.  The table learns from
the captures: the first learns from a plain dump of its world before it
writes (every branch from the first state restores that snapshot), and
after captures 2, 4, 8, ... the capturer reads back what that capture's
dump memoised.  A class first met deep in a search (a connection, a
frame, a timer) and its attribute names thus join the table a few
captures later.  Only a dump that succeeded is read back, so everything
appended was pickled by name.  The table only grows, and each snapshot
ends with its capturer's key and the table length it was written
against.  A restore loads, in the same unpickler, a prefix pickle that
memoises exactly that many entries through persistent ids (one cached
per length) and then the snapshot: its references resolve to the
objects a lookup by name would give, and its own memo indices start
where its writer's did.

Whatever pickle cannot carry -- a lambda or nested function, a
generator, an OS handle -- makes :meth:`StateCapturer.capture` raise
instead of aliasing the live world.  That is the runtime backstop for
the SNAP001 lint, which rejects the same idioms statically.  A class
whose state cannot be pickled structurally defines its own
``__reduce__`` or ``__getstate__``/``__setstate__``; none of the
shipped sim state needs one.

Fingerprints canonicalise a world's *behavioural* state vector --
sorted dict items, deques as tuples, enums by value -- and hash it.  A
vector that is already canonical, exact tuples and exact atoms
(``str``, ``bytes``, ``int``, ``float``, ``bool``, ``None``) all the
way down, is hashed as it is: a walk that builds nothing checks that,
and such a vector has the ``repr`` of its canonical form.  Every
preset world's ``state_vector`` returns one.  Any other vector goes
through :func:`canonical`.
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
import itertools
import operator
import pickle
import random
import struct
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

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


def _reduce_deque(queue: collections.deque) -> tuple:
    """``deque.__reduce__`` minus its uncached ``copyreg._slotnames`` call."""
    args = () if queue.maxlen is None else ((), queue.maxlen)
    return collections.deque, args, None, iter(queue)


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
    collections.deque: _reduce_deque,
}


class _Pickler(pickle.Pickler):
    """A pickler that applies :data:`_REDUCERS`.

    A pickler with its own ``dispatch_table`` no longer reads copyreg's,
    so the table starts from a copy of it, taken at import.
    """

    dispatch_table = {**copyreg.dispatch_table, **_REDUCERS}


def _by_reference(obj: Any) -> bool:
    """Whether pickle writes ``obj`` by name and loads the same object back."""
    cls = type(obj)
    if cls is types.BuiltinFunctionType:
        # ``bytearray().append`` is this type too, but pickle reduces it
        # to a ``getattr`` on its copied ``__self__``.
        return isinstance(obj.__self__, types.ModuleType)
    return (cls is types.FunctionType or isinstance(obj, type)
            or isinstance(obj, enum.Enum))


def _memo(table: List[Any]) -> Any:
    """The memo of a pickler that has written ``table``, in order."""
    template = _Pickler(io.BytesIO(), pickle.HIGHEST_PROTOCOL)
    template.memo = {id(obj): (index, obj) for index, obj in enumerate(table)}
    return template.memo


def _prefix(count: int) -> bytes:
    """A pickle whose load memoises table entries ``0 .. count - 1``.

    Each entry is a persistent id, so the load takes no copy of
    anything.  Setting ``Unpickler.memo`` cannot do this on CPython
    3.11: a dict's entries are dropped, and a copied memo restarts the
    count that ``MEMOIZE`` assigns its index from.
    """
    ops = [pickle.PROTO, bytes([pickle.HIGHEST_PROTOCOL])]
    for index in range(count):
        ops += [pickle.BININT, struct.pack("<i", index), pickle.BINPERSID,
                pickle.MEMOIZE, pickle.POP]
    ops += [pickle.NONE, pickle.STOP]
    return b"".join(ops)


#: What a snapshot ends with: its capturer's key and the length of the
#: table it was written against.
_TRAILER = struct.Struct("<QI")

#: Capturer keys, unique in the process.
_KEYS = itertools.count()


class StateCapturer:
    """Snapshot/restore for a world object graph.

    ``capture`` returns the world pickled to ``bytes``; ``restore``
    returns a fresh live world unpickled from them.  Each restore is
    independent -- the explorer restores the same snapshot once per
    branch and mutates each copy freely.

    The table starts with the objects given to :meth:`share`.  It
    learns from a plain dump of the world at the first capture, and
    from the capture's own dump after captures 2, 4, 8, ...: it appends
    every class, module-level function, module builtin and enum member
    that the dump memoised, and every ``str`` key of a dict it
    memoised, that the table did not hold yet.  A snapshot is the
    pickler's output and a trailer holding the capturer's key and the
    table length; ``restore`` refuses another capturer's key, and a
    length its table never had, before anything loads.
    """

    def __init__(self) -> None:
        self._key = next(_KEYS)
        self._table: List[Any] = []
        self._memo = _memo(self._table)
        #: Prefix pickles by table length, built at the first restore of
        #: a snapshot written against that length.
        self._prefixes: Dict[int, bytes] = {}
        self.captures = 0
        self.restores = 0

    def share(self, obj: Any) -> None:
        """Exempt ``obj`` from copying: snapshots alias it directly.

        A shared object is a table entry and is never pickled, so it
        may hold what pickle cannot carry (a lock, a code object); use
        it for genuinely ambient things (an interner, a profiling
        hook), never for mutable sim state.  Sharing after the first
        capture raises.
        """
        if self.captures:
            raise RuntimeError("share() after the first capture")
        # One memo entry per object: a second would shift every index.
        if not any(entry is obj for entry in self._table):
            self._table.append(obj)
            self._memo = _memo(self._table)

    def capture(self, world: Any) -> bytes:
        """Freeze the world: bytes sharing nothing mutable with it."""
        if not self.captures:
            # Every branch from the first state restores the first
            # snapshot, so it is written against what its world holds.
            self._learn(self._dump(world)[1])
        length = len(self._table)
        chunks, written = self._dump(world)
        self.captures += 1
        if self.captures > 1 and not self.captures & (self.captures - 1):
            self._learn(written)  # after captures 2, 4, 8, ...
        chunks.append(_TRAILER.pack(self._key, length))
        return b"".join(chunks)

    def _dump(self, world: Any) -> Tuple[List[bytes], Any]:
        """The pickler's output for ``world``, and the memo it ended with."""
        chunks: List[bytes] = []
        pickler = _Pickler(types.SimpleNamespace(write=chunks.append),
                           pickle.HIGHEST_PROTOCOL)
        pickler.memo = self._memo
        pickler.dump(world)
        return chunks, pickler.memo

    def _learn(self, written: Any) -> None:
        """Append the entries a dump's memo holds past the table."""
        known = len(self._table)
        fresh = sorted(written.copy().values(),
                       key=operator.itemgetter(0))[known:]
        keys = {id(key) for _index, obj in fresh if isinstance(obj, dict)
                for key in obj}
        learned = [obj for _index, obj in fresh if _by_reference(obj)
                   or type(obj) is str and id(obj) in keys]
        if learned:
            self._table += learned
            self._memo = _memo(self._table)

    def restore(self, frozen: bytes) -> Any:
        """A fresh live world from a frozen snapshot."""
        self.restores += 1
        key, length = _TRAILER.unpack_from(frozen, len(frozen) - _TRAILER.size)
        if key != self._key or length > len(self._table):
            raise ValueError("snapshot taken by another StateCapturer")
        prefix = self._prefixes.get(length)
        if prefix is None:
            prefix = self._prefixes[length] = _prefix(length)
        unpickler = pickle.Unpickler(io.BytesIO(prefix + frozen))
        unpickler.persistent_load = self._table.__getitem__
        unpickler.load()
        return unpickler.load()


#: Types ``canonical`` returns unchanged (exact types: an enum that
#: subclasses ``int`` or ``str`` still collapses to its value).
_ATOMS = frozenset((str, bytes, int, float, bool, type(None)))


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, hashable structure.

    Dicts become sorted item tuples, sets become sorted tuples, any
    sequence becomes a tuple, enums collapse to their value.  Unordered
    containers must canonicalise to the same result regardless of
    insertion history or the states would never merge.  The result is
    exact tuples and atoms all the way down, and a value that already
    is comes back equal, with the same ``repr``: :func:`fingerprint`
    hashes such a value without calling this.
    """
    if type(value) in _ATOMS:
        return value
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


def _is_canonical(items: tuple) -> bool:
    """Whether an exact tuple holds exact tuples and atoms all the way down."""
    for item in items:
        cls = type(item)
        if cls is tuple:
            if not _is_canonical(item):
                return False
        elif cls not in _ATOMS:
            return False
    return True


def fingerprint(state_vector: Any) -> str:
    """A stable hash of a canonicalised state vector.

    A vector that is already canonical is hashed as it is; any other
    goes through :func:`canonical` first, so both hash the same text.
    """
    if type(state_vector) is not tuple or not _is_canonical(state_vector):
        state_vector = canonical(state_vector)
    digest = hashlib.sha256(repr(state_vector).encode())
    return digest.hexdigest()[:32]
