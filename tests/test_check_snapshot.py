"""Snapshot capture/restore is behaviourally invisible.

The model checker's whole correctness story rests on one property:
running a world to completion is indistinguishable from freezing it
mid-run, thawing the frozen copy, and running *that* to completion.
These tests prove it on a chaos-flavoured Figure-1 scenario -- fading
radio channel (seeded RNG draws in flight), a TCP transfer mid
-handshake, an ICMP ping train, per-char serial timing -- by capturing
at three different mid-run points and requiring byte-identical metric
digests from every resumed copy.

The scenario holder stores only bound-method callbacks (the SNAP001
discipline), so every restored callback is rebound to the restored
component and the copies share nothing mutable with the original.
"""

from __future__ import annotations

import collections
import copyreg
import enum
import hashlib
import io
import itertools
import pickle
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ping import Pinger
from repro.check import Budget, Explorer, build_world, explorer, snapshot
from repro.check.snapshot import StateCapturer, canonical, fingerprint
from repro.check.worlds import Lapb2World
from repro.core.topology import build_figure1_testbed
from repro.harness import metrics_digest
from repro.inet.sockets import TcpServerSocket, TcpSocket
from repro.obs.spans import FlightRecorder
from repro.serialio.line import SerialLine
from repro.sim.clock import SECOND
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

END = 120 * SECOND
CHECKPOINTS = (17 * SECOND, 43 * SECOND, 71 * SECOND)


class ChaosScenario:
    """A self-contained noisy run whose metrics live on the object graph."""

    PAYLOAD = 600

    def __init__(self, seed: int = 11) -> None:
        self.testbed = build_figure1_testbed(seed=seed, fidelity="per_char")
        sim = self.testbed.sim
        # Both radios fade: every frame consults a seeded stream, so a
        # snapshot must preserve RNG internals exactly or the resumed
        # run diverges on the first post-restore transmission.
        for name in self.testbed.channel.ports:
            self.testbed.channel.fade_probability[name] = 0.12
        self.pinger = Pinger(self.testbed.host.stack)
        self.pinger.send("44.24.0.5", count=8, interval=9 * SECOND)
        self.server_bytes = 0
        self.client_done = False
        self.client = None
        self.server = TcpServerSocket(self.testbed.peer.stack, 7,
                                      self._accept)
        sim.at(2 * SECOND, self._connect, label="tcp-connect")

    # -- callbacks (bound methods only; see module docstring) ----------

    def _connect(self) -> None:
        self.client = TcpSocket.connect(self.testbed.host.stack,
                                        "44.24.0.5", 7)
        self.client.on_connect = self._client_up

    def _client_up(self) -> None:
        self.client.send(b"snapshot me " * (self.PAYLOAD // 12))
        self.client.close()
        self.client_done = True

    def _accept(self, sock) -> None:
        sock.on_data = self._server_data

    def _server_data(self, data: bytes) -> None:
        self.server_bytes += len(data)

    # -- observation ---------------------------------------------------

    def run_until(self, when: int) -> None:
        self.testbed.sim.run(until=when)

    def metrics(self) -> dict:
        channel = self.testbed.channel
        host_if = self.testbed.host.interface
        return {
            "pings_sent": float(self.pinger.sent),
            "pings_received": float(self.pinger.received),
            "rtt_total_us": float(sum(self.pinger.rtts_us)),
            "tcp_server_bytes": float(self.server_bytes),
            "tcp_client_done": 1.0 if self.client_done else 0.0,
            "frames_faded": float(channel.frames_faded),
            "host_frames_rx": float(host_if.frames_from_tnc),
            "host_frames_tx": float(host_if.frames_to_tnc),
            "events_executed": float(self.testbed.sim.events_executed),
            "now_us": float(self.testbed.sim.now),
        }


def _uninterrupted_digest() -> str:
    scenario = ChaosScenario()
    scenario.run_until(END)
    metrics = scenario.metrics()
    # The run must actually be chaotic and actually deliver: fades
    # eat some pings but the TCP transfer retransmits its way through.
    assert metrics["frames_faded"] > 0
    assert 0 < metrics["pings_received"] < metrics["pings_sent"]
    assert metrics["tcp_server_bytes"] == float(
        len(b"snapshot me ") * (ChaosScenario.PAYLOAD // 12))
    return metrics_digest(metrics)


def test_mid_run_snapshots_resume_byte_identically():
    baseline = _uninterrupted_digest()
    capturer = StateCapturer()
    scenario = ChaosScenario()
    frozen = []
    for checkpoint in CHECKPOINTS:
        scenario.run_until(checkpoint)
        frozen.append(capturer.capture(scenario))
    # Capturing must not have perturbed the original run.
    scenario.run_until(END)
    assert metrics_digest(scenario.metrics()) == baseline

    # Every thawed copy, resumed to completion, matches byte-for-byte.
    for snapshot, checkpoint in zip(frozen, CHECKPOINTS):
        resumed = capturer.restore(snapshot)
        assert resumed.testbed.sim.now == checkpoint
        resumed.run_until(END)
        assert metrics_digest(resumed.metrics()) == baseline, (
            f"resume from t={checkpoint} diverged")


def test_restores_are_independent_of_each_other():
    capturer = StateCapturer()
    scenario = ChaosScenario()
    scenario.run_until(CHECKPOINTS[0])
    frozen = capturer.capture(scenario)

    first = capturer.restore(frozen)
    first.run_until(END)
    first_metrics = first.metrics()

    # Running one copy must leave the frozen snapshot untouched.
    second = capturer.restore(frozen)
    second.run_until(END)
    assert metrics_digest(second.metrics()) == metrics_digest(first_metrics)


def test_snapshot_shares_nothing_mutable_with_the_live_world():
    capturer = StateCapturer()
    scenario = ChaosScenario()
    scenario.run_until(CHECKPOINTS[0])
    frozen = capturer.capture(scenario)
    assert isinstance(frozen, bytes)
    thawed = capturer.restore(frozen)
    assert thawed.testbed.sim is not scenario.testbed.sim
    assert thawed.pinger is not scenario.pinger
    # The thawed pinger's stack is the thawed stack, not the live one:
    # bound methods were rebound to the restored components.
    assert thawed.pinger.stack is thawed.testbed.host.stack
    assert thawed.pinger.stack is not scenario.testbed.host.stack
    # Advancing the live world leaves the snapshot's clock alone.
    scenario.run_until(CHECKPOINTS[1])
    assert thawed.testbed.sim.now == CHECKPOINTS[0]
    assert capturer.restore(frozen).testbed.sim.now == CHECKPOINTS[0]


class Beacon:
    """A sim component with one scheduled bound-method callback."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.sent = 0
        sim.at(SECOND, self.send, label="beacon")

    def send(self) -> None:
        self.sent += 1


def _patched_send(self) -> None:
    """Patched onto ``Beacon.send`` under its own name, like a mutant."""
    self.sent += 10


def test_bound_method_keeps_its_function_object(monkeypatch):
    monkeypatch.setattr(Beacon, "send", _patched_send)
    beacon = Beacon(Simulator())
    # Pickle's own method reduction looks the function up by
    # ``__name__``, which the restored Beacon does not have.
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(beacon))
    capturer = StateCapturer()
    restored = capturer.restore(capturer.capture(beacon))
    (event,) = restored.sim.pending_events()
    assert event.fn.__func__ is _patched_send
    assert event.fn.__self__ is restored
    restored.sim.run()
    assert (restored.sent, beacon.sent) == (10, 0)


class SerialTalker:
    """Two per-char writes whose receiver logs every byte it gets."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.line = SerialLine(self.sim, baud=9600)
        self.received = []
        self.line.b.on_receive(self.receive)
        self.line.a.write(b"mid-write")
        self.line.a.write(b"!")

    def receive(self, byte: int) -> None:
        self.received.append((self.sim.now, byte))


def test_snapshot_in_the_middle_of_a_write_resumes_it():
    whole = SerialTalker()
    whole.sim.run_until_idle()
    assert len(whole.received) == 10

    talker = SerialTalker()
    talker.sim.run(until=4 * talker.line.byte_time + 1)
    assert len(talker.received) == 4
    capturer = StateCapturer()
    restored = capturer.restore(capturer.capture(talker))
    assert restored.sim.events_pending == talker.sim.events_pending == 6
    restored.sim.run_until_idle()
    talker.sim.run_until_idle()
    assert restored.received == talker.received == whole.received
    assert restored.sim.events_executed == whole.sim.events_executed


def test_shared_object_is_neither_copied_nor_replaced():
    capturer = StateCapturer()
    table = {"ambient": [1, 2, 3]}
    capturer.share(table)
    beacon = Beacon(Simulator())
    beacon.table = table
    frozen = capturer.capture(beacon)
    table["ambient"].append(4)
    restored = capturer.restore(frozen)
    assert restored.table is table
    assert restored.table["ambient"] == [1, 2, 3, 4]
    assert restored.sim is not beacon.sim


def test_lambda_on_sim_state_fails_capture():
    # A lambda has no importable name, so capture refuses it rather
    # than alias the live world (the runtime side of SNAP001).
    beacon = Beacon(Simulator())
    beacon.on_send = lambda: beacon.send()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        StateCapturer().capture(beacon)


# ----------------------------------------------------------------------
# the table the first capture learns
# ----------------------------------------------------------------------

def _primed(capturer: StateCapturer, world):
    """``world`` through a capture made after the table was learned."""
    capturer.capture(world)
    return capturer.restore(capturer.capture(world))


class ByteSink:
    """A serial line whose receive handler is a builtin bound method."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.line = SerialLine(self.sim, baud=9600)
        self.received = bytearray()
        self.line.b.on_receive(self.received.append)


def test_builtin_bound_handler_fills_the_restored_bytearray():
    live = ByteSink()
    restored = _primed(StateCapturer(), live)
    restored.line.a.write(b"hello")
    restored.sim.run_until_idle()
    assert bytes(restored.received) == b"hello"
    assert bytes(live.received) == b""


def test_bound_method_rebinds_to_the_restored_owner():
    beacon = Beacon(Simulator())
    restored = _primed(StateCapturer(), beacon)
    (event,) = restored.sim.pending_events()
    assert event.fn.__func__ is Beacon.send
    assert event.fn.__self__ is restored
    restored.sim.run()
    assert (restored.sent, beacon.sent) == (1, 0)


def test_lambda_added_after_the_first_capture_fails_capture():
    beacon = Beacon(Simulator())
    capturer = StateCapturer()
    capturer.capture(beacon)
    beacon.on_send = lambda: beacon.send()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        capturer.capture(beacon)


def test_a_first_capture_that_raised_leaves_no_table():
    beacon = Beacon(Simulator())
    beacon.on_send = lambda: beacon.send()
    capturer = StateCapturer()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        capturer.capture(beacon)
    # Still before the first capture: sharing is allowed, and the next
    # capture learns a table that holds the shared object.
    table = {"ambient": []}
    capturer.share(table)
    del beacon.on_send
    beacon.table = table
    restored = _primed(capturer, beacon)
    assert restored.table is table
    assert restored.sim is not beacon.sim


class ProfilingHook:
    """Ambient state pickle cannot carry, like perfbench's dispatch hook."""

    def __init__(self) -> None:
        self.lock = threading.Lock()


def test_shared_unpicklable_object_is_never_pickled():
    hook = ProfilingHook()
    capturer = StateCapturer()
    capturer.share(hook)
    beacon = Beacon(Simulator())
    beacon.hook = hook
    first = capturer.capture(beacon)
    later = capturer.capture(beacon)
    for frozen in (first, later, first):
        restored = capturer.restore(frozen)
        assert restored.hook is hook
        assert restored.sim is not beacon.sim


def test_share_after_the_first_capture_raises():
    capturer = StateCapturer()
    capturer.capture(Beacon(Simulator()))
    with pytest.raises(RuntimeError):
        capturer.share(ProfilingHook())


def test_restoring_on_another_capturer_raises():
    beacon = Beacon(Simulator())
    capturer, other = StateCapturer(), StateCapturer()
    first = capturer.capture(beacon)
    later = capturer.capture(beacon)
    other.capture(beacon)
    for frozen in (first, later):
        with pytest.raises(ValueError):
            other.restore(frozen)
        with pytest.raises(ValueError):
            StateCapturer().restore(frozen)
    assert capturer.restore(later).sim.now == beacon.sim.now


# ----------------------------------------------------------------------
# the table keeps learning: after captures 1, 2, 4, 8, ...
# ----------------------------------------------------------------------

def _lapb2_after(steps: int) -> Lapb2World:
    """lapb2 after its first ``steps`` head events: three open a link."""
    world = Lapb2World()
    for _ in range(steps):
        world.oracle.begin()
        world.sim.step_event(world.sim.head_events()[0])
    return world


def test_a_class_first_met_after_the_first_capture_joins_the_table():
    capturer = StateCapturer()
    capturer.capture(_lapb2_after(0))
    mid = _lapb2_after(3)
    assert mid.a.connections and mid.b.connections
    # Capture 2 writes the connections' class by name and their
    # attribute names as strings, and learns both; capture 3 refers to
    # them as table entries.
    second = capturer.capture(mid)
    third = capturer.capture(mid)
    for name in (b"LapbConnection", b"_rej_outstanding"):
        assert name in second
        assert name not in third
    assert len(third) < len(second)
    expected = fingerprint(mid.state_vector())
    for frozen in (second, third):
        restored = capturer.restore(frozen)
        assert fingerprint(restored.state_vector()) == expected
        assert restored.a.connections is not mid.a.connections


def test_a_snapshot_from_before_the_table_grew_restores_after_it():
    capturer = StateCapturer()
    world = _lapb2_after(0)
    first = capturer.capture(world)
    grown = _lapb2_after(3)
    capturer.capture(grown)
    assert b"LapbConnection" not in capturer.capture(grown)
    restored = capturer.restore(first)
    assert restored is not world
    # The restored world is the original, object for object: the same
    # table entries, written the same way.
    assert capturer.capture(restored) == capturer.capture(world)
    for copy in (restored, world):
        copy.sim.run_until_idle()
    assert (fingerprint(restored.state_vector())
            == fingerprint(world.state_vector()))


def test_a_snapshot_against_a_longer_table_is_refused(monkeypatch):
    mid = _lapb2_after(3)
    short, grown = StateCapturer(), StateCapturer()
    short.capture(_lapb2_after(0))
    grown.capture(mid)
    later = grown.capture(mid)
    assert b"LapbConnection" not in later
    with pytest.raises(ValueError):
        short.restore(later)
    with pytest.raises(ValueError):
        grown.restore(short.capture(mid))
    # Even under one key, the table length alone refuses it.
    monkeypatch.setattr(snapshot, "_KEYS", itertools.count())
    short = StateCapturer()
    monkeypatch.setattr(snapshot, "_KEYS", itertools.count())
    grown = StateCapturer()
    short.capture(_lapb2_after(0))
    grown.capture(mid)
    with pytest.raises(ValueError):
        short.restore(grown.capture(mid))


def _explored_snapshots(name):
    """Every snapshot a short search of preset world ``name`` captures."""
    explorer = Explorer(lambda: build_world(name),
                        budget=Budget(max_states=60))
    capture = explorer.capturer.capture
    snapshots = []

    def recording(world):
        snapshots.append(capture(world))
        return snapshots[-1]

    explorer.capturer.capture = recording
    explorer.run()
    return snapshots


@pytest.mark.parametrize("name", ["lapb2", "tcpxfer"])
def test_deque_entry_writes_the_bytes_deque_reduce_does(name, monkeypatch):
    """The ``deque`` entry of the pickler's table changes no snapshot.

    It only spares the ``copyreg._slotnames`` call that
    ``deque.__reduce__`` makes for every deque, because a builtin type
    cannot cache its slot names; a counting wrapper sees those calls
    when the entry is taken out.
    """
    calls = []
    slotnames = copyreg._slotnames
    monkeypatch.setattr(copyreg, "_slotnames",
                        lambda cls: calls.append(cls) or slotnames(cls))
    table = snapshot._Pickler.dispatch_table
    # Both searches' capturers get key 0, which every snapshot carries.
    monkeypatch.setattr(snapshot, "_KEYS", itertools.count())
    with_entry = _explored_snapshots(name)
    # A Python class caches its slot names at its first pickle.
    assert collections.deque not in calls
    assert len(calls) == len(set(calls))

    monkeypatch.setattr(snapshot, "_KEYS", itertools.count())
    monkeypatch.setattr(snapshot._Pickler, "dispatch_table", {
        cls: reduce for cls, reduce in table.items()
        if cls is not collections.deque})
    without_entry = _explored_snapshots(name)
    assert with_entry == without_entry and len(with_entry) > 1
    if name == "tcpxfer":
        assert collections.deque in calls


@pytest.mark.parametrize("queue", [
    collections.deque(), collections.deque([1, "two", (3,)]),
    collections.deque([1, 2], maxlen=4), collections.deque(maxlen=0),
], ids=("empty", "unbounded", "bounded", "maxlen-0"))
def test_deque_pickles_as_its_own_reduce_does(queue):
    buffer = io.BytesIO()
    snapshot._Pickler(buffer, pickle.HIGHEST_PROTOCOL).dump(queue)
    assert buffer.getvalue() == pickle.dumps(queue, pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(buffer.getvalue())
    assert restored == queue and restored.maxlen == queue.maxlen


def test_canonical_merges_insertion_orders():
    assert canonical({"b": 2, "a": 1}) == canonical({"a": 1, "b": 2})
    assert canonical({1, 2, 3}) == canonical({3, 1, 2})
    assert fingerprint(("x", {"b": 2, "a": 1})) == \
        fingerprint(("x", {"a": 1, "b": 2}))
    vector = ("x", {"b": 2, "a": [1, (2, 3)]}, {3, 1}, [b"l", None],
              collections.deque([4.5]), Colour.RED, (True, 1, 1.0))
    assert fingerprint(vector) == fingerprint(canonical(vector))


def test_canonical_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonical(("ok", object()))
    for vector in (("ok", ("nested", object())), object()):
        with pytest.raises(TypeError):
            fingerprint(vector)


@pytest.mark.parametrize("name, visits", [
    ("lapb2", 1336), ("hidden3", 101), ("tcpxfer", 1385), ("shedworld", 50)])
def test_every_visited_state_vector_is_already_canonical(name, visits,
                                                         monkeypatch):
    """Each vector an exploration fingerprints is exact tuples and atoms
    all the way down, so ``fingerprint`` never calls ``canonical``."""
    vectors, copies = [], []
    monkeypatch.setattr(explorer, "fingerprint",
                        lambda vector: vectors.append(vector)
                        or fingerprint(vector))
    monkeypatch.setattr(snapshot, "canonical",
                        lambda value: copies.append(value) or canonical(value))
    Explorer(lambda: build_world(name),
             budget=Budget(max_wall_seconds=60)).run()
    assert len(vectors) == visits
    assert copies == []
    monkeypatch.undo()
    assert all(repr(canonical(vector)) == repr(vector) for vector in vectors)


# ----------------------------------------------------------------------
# what a snapshot leaves out or packs: trace logs and RNG streams
# ----------------------------------------------------------------------

class Logbook:
    """A simulator, its tracer and a bound-method trace listener."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.tracer = Tracer(self.sim)
        self.recorder = FlightRecorder(self.tracer)
        self.heard = []
        self.tracer.subscribe(self.hear)
        self.sim.at(SECOND, self.beacon, label="beacon")

    def hear(self, record) -> None:
        self.heard.append(record.category)

    def beacon(self) -> None:
        self.tracer.log("beacon", "N7AKR", "on the air")


def test_restored_tracer_has_no_log_but_keeps_its_wiring():
    book = Logbook()
    book.tracer.log("setup", "N7AKR", "before capture")
    book.sim.run()
    live_records = list(book.tracer.records)
    capturer = StateCapturer()
    frozen = capturer.capture(book)
    # Capture leaves the live log alone.
    assert book.tracer.records == live_records
    assert book.tracer.count("beacon") == 1

    restored = capturer.restore(frozen)
    tracer = restored.tracer
    assert tracer is not book.tracer
    assert (tracer.records, tracer._by_category) == ([], {})
    assert tracer.sim is restored.sim
    # The flight recorder travels, rebound to the restored tracer.
    assert tracer.flight is restored.recorder
    assert tracer.flight is not book.recorder
    assert restored.recorder.tracer is tracer
    (listener,) = tracer._listeners
    assert listener.__self__ is restored

    tracer.log("after", "KB7DZ", "on the restored copy")
    assert [record.category for record in tracer.records] == ["after"]
    assert tracer.count("after") == 1
    assert restored.heard == ["setup", "beacon", "after"]
    assert book.tracer.records == live_records
    assert book.heard == ["setup", "beacon"]


def test_restored_world_shares_one_empty_tracer():
    world = build_world("tcpxfer")
    world.sim.run(until=3 * SECOND)
    assert world.tracer.records
    capturer = StateCapturer()
    restored = capturer.restore(capturer.capture(world))
    assert restored.tracer.records == []
    assert restored.tracer.sim is restored.sim
    # Every component logs to the one restored tracer.
    assert restored.testbed.channel.tracer is restored.tracer
    assert restored.testbed.host.interface.tracer is restored.tracer


def _draws(rng: random.Random) -> list:
    return [rng.gauss(0.0, 1.0) if index % 2 == 0 else rng.random()
            for index in range(1000)]


@pytest.mark.parametrize("gauss_first", [False, True])
def test_restored_stream_draws_like_the_original(gauss_first):
    rng = random.Random(2024)
    rng.random()
    if gauss_first:
        rng.gauss(0.0, 1.0)
        assert rng.gauss_next is not None
    capturer = StateCapturer()
    restored = capturer.restore(capturer.capture(rng))
    assert type(restored) is random.Random
    assert restored is not rng
    assert restored.gauss_next == rng.gauss_next
    assert _draws(restored) == _draws(rng)


def test_a_stream_shared_by_two_holders_stays_shared():
    rng = random.Random(7)
    holders = {"a": [rng], "b": [rng]}
    capturer = StateCapturer()
    restored = capturer.restore(capturer.capture(holders))
    assert restored["a"][0] is restored["b"][0]
    assert restored["a"][0] is not rng


# ----------------------------------------------------------------------
# canonical(): the fast path changes no output
# ----------------------------------------------------------------------

def reference_canonical(value):
    """``canonical`` before its type-identity fast path, kept to test it.

    The one deliberate difference is the deque test, which was
    ``value.__class__.__name__ == "deque"``.
    """
    if isinstance(value, enum.Enum):
        return reference_canonical(value.value)
    if isinstance(value, dict):
        return tuple(sorted(
            (repr(key), reference_canonical(item))
            for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(reference_canonical(item)) for item in value))
    if isinstance(value, (list, tuple, collections.deque)):
        return tuple(reference_canonical(item) for item in value)
    if isinstance(value, (str, bytes, int, float, bool)) or value is None:
        return value
    raise TypeError(f"un-canonicalisable {type(value).__name__}")


class Colour(enum.Enum):
    RED = "red"
    GREEN = (1, "two")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    LINK = "link"


Pair = collections.namedtuple("Pair", "left right")


class Ring(collections.deque):
    """A deque subclass: canonicalises like any deque."""


class deque:
    """An unrelated class named ``deque``: not a sequence to canonical."""

    def __init__(self, items) -> None:
        self.items = list(items)

    def __iter__(self):
        return iter(self.items)


_ATOMS = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text(max_size=4) | st.binary(max_size=4)
          | st.sampled_from(list(Colour) + list(Level) + list(Mode)))
_HASHABLE = st.recursive(
    _ATOMS,
    lambda inner: (st.tuples(inner, inner)
                   | st.frozensets(inner, max_size=3)
                   | st.builds(Pair, inner, inner)),
    max_leaves=6)


def _containers(inner):
    items = st.lists(inner, max_size=4)
    return (items
            | items.map(tuple)
            | items.map(collections.deque)
            | items.map(Ring)
            | items.map(deque)
            | st.builds(Pair, inner, inner)
            | st.dictionaries(_HASHABLE, inner, max_size=3)
            | st.sets(_HASHABLE, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_ATOMS, _containers, max_leaves=12))
def test_canonical_matches_the_reference(value):
    try:
        expected = reference_canonical(value)
    except TypeError:
        with pytest.raises(TypeError):
            canonical(value)
        with pytest.raises(TypeError):
            fingerprint(value)
        return
    # repr, not ==: it tells True from 1 and 1.0 from 1, and nan from
    # itself, and it is what fingerprint() hashes.
    assert repr(canonical(value)) == repr(expected)
    digest = hashlib.sha256(repr(expected).encode()).hexdigest()[:32]
    assert fingerprint(value) == fingerprint(canonical(value)) == digest


def test_canonical_treats_a_deque_subclass_as_a_sequence():
    assert canonical(Ring([Level.LOW, (b"x", None)])) == (1, (b"x", None))
    assert canonical(collections.deque([Mode.LINK])) == ("link",)


def test_canonical_rejects_a_class_only_named_deque():
    with pytest.raises(TypeError):
        canonical(("ok", deque([1, 2])))
