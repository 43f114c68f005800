"""Differential test: the compiled controller runtime and the flat-row
causal trace against the interpreters they replaced.

The reference classes below are the live-reading implementations —
``ControllerRuntime`` re-reading signal kinds and formatting labels on
every poke, ``EventTrace`` allocating one :class:`CausalEvent` per
scheduled callback, and the kernel loop they ran on.  Every run must
agree with them exactly: results, the executed-event dump, the
critical path, per-label slack, the bottleneck label and the error
messages of the three controller failure modes.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import pytest

import repro.sim.system as system_module
from repro import synthesize
from repro.afsm import BurstModeMachine, Edge, InputBurst, OutputBurst, Signal, SignalKind
from repro.afsm.machine import Transition
from repro.errors import SimulationError
from repro.obs.causal import (
    CausalEvent,
    EventTrace,
    Segment,
    bottleneck_label,
    critical_path,
    slack_by_label,
)
from repro.sim.controller import CONTROL_DELAY, ControllerRuntime, GlobalWire
from repro.sim.datapath import Datapath
from repro.sim.kernel import RECENT_WINDOW, EventKernel
from repro.sim.seeding import NOMINAL
from repro.sim.system import simulate_system


# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------
class ReferenceTrace:
    """One CausalEvent per schedule, order stamped on execution."""

    def __init__(self) -> None:
        self.events: Dict[int, CausalEvent] = {}
        self.current: Optional[int] = None
        self._order = 0
        self._executed: List[CausalEvent] = []

    def on_schedule(self, uid, at, delay, label) -> None:
        self.events[uid] = CausalEvent(
            uid=uid, at=at, delay=delay, time=at + delay, parent=self.current, label=label
        )

    def on_execute(self, uid) -> None:
        event = self.events[uid]
        event.order = self._order
        self._order += 1
        self.current = uid
        self._executed.append(event)

    def executed(self) -> List[CausalEvent]:
        return list(self._executed)

    def last_event(self) -> Optional[CausalEvent]:
        return self._executed[-1] if self._executed else None

    def chain(self, uid=None) -> List[CausalEvent]:
        if uid is None:
            last = self.last_event()
            if last is None:
                return []
            uid = last.uid
        path: List[CausalEvent] = []
        cursor = uid
        while cursor is not None:
            event = self.events[cursor]
            path.append(event)
            cursor = event.parent
        path.reverse()
        return path

    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            {
                "uid": event.uid,
                "time": event.time,
                "delay": event.delay,
                "parent": event.parent,
                "label": event.label,
                "order": event.order,
            }
            for event in self.executed()
        ]


def reference_critical_path(trace, end_uid=None, include_zero=False) -> List[Segment]:
    segments = [
        Segment(
            label=event.label or "(unlabeled)",
            start=event.at,
            end=event.time,
            delay=event.delay,
        )
        for event in trace.chain(end_uid)
    ]
    if not include_zero:
        segments = [segment for segment in segments if segment.delay > 0.0]
    return segments


class ReferenceKernel:
    """The per-event attribute-updating kernel loop."""

    def __init__(self, trace=None) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None], Optional[str]]] = []
        self._sequence = 0
        self.now = 0.0
        self.events_processed = 0
        self.trace = trace
        self.recent_labels: Deque[str] = deque(maxlen=RECENT_WINDOW)

    def schedule(self, delay, callback, label=None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._sequence, callback, label))
        if self.trace is not None:
            self.trace.on_schedule(self._sequence, self.now, delay, label)
        self._sequence += 1

    def pending(self) -> int:
        return len(self._queue)

    def run(self, max_events: int = 1_000_000) -> float:
        processed = 0
        while self._queue:
            if processed >= max_events:
                recent = ", ".join(self.recent_labels) or "(no labeled events)"
                raise SimulationError(
                    f"simulation exceeded {max_events} events "
                    f"(livelock or runaway loop?) at t={self.now:.3f} "
                    f"with {len(self._queue)} events still pending; "
                    f"last executed: {recent}"
                )
            time, sequence, callback, label = heapq.heappop(self._queue)
            self.now = time
            processed += 1
            self.events_processed += 1
            if label is not None:
                self.recent_labels.append(label)
            if self.trace is not None:
                self.trace.on_execute(sequence)
            callback()
        return self.now


@dataclass
class ReferenceRuntime:
    """The controller interpreter reading the machine on every poke."""

    fu: str
    machine: BurstModeMachine
    kernel: object
    datapath: Datapath
    wires: Dict[str, GlobalWire]
    ack_levels: Dict[str, int] = field(default_factory=dict)
    state: str = ""
    busy: bool = False
    transitions_taken: int = 0
    _transitions: Dict[str, tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.state = self.machine.initial_state
        for signal in self.machine.signals():
            if signal.kind is SignalKind.LOCAL_ACK:
                self.ack_levels[signal.name] = 0

    def poke(self) -> None:
        self.kernel.schedule(0.0, self._step, label=f"poke:{self.fu}")

    def _step(self) -> None:
        if self.busy:
            return
        transitions = self._transitions.get(self.state)
        if transitions is None:
            transitions = tuple(self.machine.transitions_from(self.state))
            self._transitions[self.state] = transitions
        enabled = [t for t in transitions if self._satisfied(t)]
        if not enabled:
            return
        if len(enabled) > 1:
            raise SimulationError(
                f"{self.fu}: nondeterministic choice in state {self.state}: "
                + " | ".join(str(t.input_burst) for t in enabled)
            )
        transition = enabled[0]
        self.busy = True
        fragment = transition.tags.get("node") or f"{transition.src}->{transition.dst}"
        self.kernel.schedule(
            CONTROL_DELAY,
            lambda: self._fire(transition),
            label=f"ctrl:{self.fu}:{fragment}",
        )

    def _satisfied(self, transition: Transition) -> bool:
        for cond in transition.input_burst.conditions:
            signal = self.machine.signal(cond.signal)
            assert signal.action is not None and signal.action[0] == "cond"
            if self.datapath.condition_level(signal.action[1]) != cond.high:
                return False
        for edge in transition.input_burst.compulsory_edges:
            signal = self.machine.signal(edge.signal)
            if signal.kind is SignalKind.GLOBAL_READY:
                if not self.wires[edge.signal].available(self.fu, edge.rising):
                    return False
            elif signal.kind is SignalKind.LOCAL_ACK:
                expected = 1 if edge.rising else 0
                if self.ack_levels[edge.signal] != expected:
                    return False
            else:
                raise SimulationError(f"{self.fu}: unexpected input {edge.signal}")
        return True

    def _fire(self, transition: Transition) -> None:
        self.busy = False
        if not self._satisfied(transition):
            self.poke()
            return
        for edge in transition.input_burst.edges:
            signal = self.machine.signal(edge.signal)
            if signal.kind is SignalKind.GLOBAL_READY:
                if edge.ddc:
                    self.wires[edge.signal].consume_ddc(self.fu, edge.rising)
                else:
                    self.wires[edge.signal].consume(self.fu, edge.rising)
        self.state = transition.dst
        self.transitions_taken += 1
        for edge in transition.output_burst.edges:
            signal = self.machine.signal(edge.signal)
            if signal.kind is SignalKind.GLOBAL_READY:
                self.wires[edge.signal].emit(self.kernel.now, edge.rising)
                if self.poke_all is not None:
                    self.poke_all()
            elif signal.kind is SignalKind.LOCAL_REQ:
                self._drive_request(signal.name, edge.rising)
            else:
                raise SimulationError(f"{self.fu}: cannot drive {edge.signal}")
        self.poke()

    def _drive_request(self, req: str, rising: bool) -> None:
        signal = self.machine.signal(req)
        assert signal.action is not None
        ack = signal.partner

        def complete() -> None:
            if ack is not None and ack in self.ack_levels:
                self.ack_levels[ack] = 1 if rising else 0
            self.poke()

        if rising:
            self.datapath.request(signal.action, complete)
        else:
            self.datapath.release(signal.action, complete)

    poke_all: Optional[Callable[[], None]] = None


# ----------------------------------------------------------------------
# whole-system runs
# ----------------------------------------------------------------------
WORKLOADS = ("diffeq", "gcd", "ewf", "fir")
SEEDS = (NOMINAL, 0, 1, 2, 3)


@pytest.fixture(scope="module")
def designs():
    return {name: synthesize(name) for name in WORKLOADS}


def _reference_run(design, seed, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(system_module, "ControllerRuntime", ReferenceRuntime)
        patch.setattr(system_module, "EventKernel", ReferenceKernel)
        return simulate_system(design, seed=seed, trace=ReferenceTrace())


def _outcome(result) -> dict:
    return {
        "registers": result.registers,
        "end_time": result.end_time,
        "transitions_taken": result.transitions_taken,
        "wire_events": result.wire_events,
        "hazards": result.hazards,
        "violations": result.violations,
        "events_processed": result.events_processed,
        "seed": result.seed,
        "writes": result.writes,
    }


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_system_runs_match_the_reference(designs, workload, seed, monkeypatch):
    design = designs[workload]
    expected = _reference_run(design, seed, monkeypatch)
    got = simulate_system(design, seed=seed, trace=EventTrace())
    assert isinstance(got.trace, EventTrace)
    assert _outcome(got) == _outcome(expected)
    assert got.trace.to_dicts() == expected.trace.to_dicts()
    assert got.trace.last_event() == expected.trace.last_event()
    segments = critical_path(got.trace)
    assert segments == reference_critical_path(expected.trace)
    assert critical_path(got.trace, include_zero=True) == reference_critical_path(
        expected.trace, include_zero=True
    )
    assert bottleneck_label(segments) == bottleneck_label(
        reference_critical_path(expected.trace)
    )
    assert slack_by_label(got.trace, end_time=got.end_time) == slack_by_label(
        expected.trace, end_time=expected.end_time
    )
    # an interior terminal walks the same chain too
    middle = expected.trace.executed()[len(expected.trace.executed()) // 2].uid
    assert critical_path(got.trace, end_uid=middle) == reference_critical_path(
        expected.trace, end_uid=middle
    )
    assert got.trace.chain(middle) == expected.trace.chain(middle)


def test_untraced_run_matches(designs):
    design = designs["gcd"]
    traced = simulate_system(design, seed=2, trace=EventTrace())
    plain = simulate_system(design, seed=2)
    assert plain.trace is None
    assert _outcome(plain) == _outcome(traced)


def test_trace_views_are_rebuilt_after_more_events():
    trace = EventTrace()
    kernel = EventKernel(trace=trace)
    kernel.schedule(1.0, lambda: None, label="a")
    kernel.run()
    first = trace.executed()
    assert [event.label for event in first] == ["a"]
    kernel.schedule(1.0, lambda: None, label="b")
    assert trace.events[1].order == -1
    kernel.run()
    assert [event.label for event in trace.executed()] == ["a", "b"]
    assert trace.last_event() is trace.executed()[-1]
    assert trace.events[1].order == 1


# ----------------------------------------------------------------------
# error paths: same step, same message
# ----------------------------------------------------------------------
def _pair(build):
    """Run ``build()``'s machine on the compiled and the reference
    runtime; return ((error, events, wire events), ...) per runtime."""
    outcomes = []
    for runtime_cls, kernel_cls in (
        (ControllerRuntime, EventKernel),
        (ReferenceRuntime, ReferenceKernel),
    ):
        machine = build()
        kernel = kernel_cls()
        datapath = Datapath(kernel, initial_registers={"X": 1.0}, inputs={})
        wires = {
            signal.name: GlobalWire(signal.name, ["FU"])
            for signal in machine.signals()
            if signal.kind is SignalKind.GLOBAL_READY
        }
        runtime = runtime_cls(
            fu="FU", machine=machine, kernel=kernel, datapath=datapath, wires=wires
        )
        wires["go"].emit(0.0, rising=True)
        runtime.poke()
        with pytest.raises(SimulationError) as caught:
            kernel.run()
        outcomes.append(
            (
                str(caught.value),
                kernel.events_processed,
                kernel.now,
                runtime.state,
                {name: wire.events_sent for name, wire in wires.items()},
            )
        )
    return outcomes


def _machine_with(*signals: Signal) -> BurstModeMachine:
    machine = BurstModeMachine("m")
    machine.declare_signal(Signal("go", SignalKind.GLOBAL_READY, is_input=True))
    for signal in signals:
        machine.declare_signal(signal)
    return machine


def test_unexpected_input_kind_fails_at_the_same_step():
    def build():
        machine = _machine_with(
            Signal("done", SignalKind.GLOBAL_READY, is_input=False),
            Signal("r", SignalKind.LOCAL_REQ, is_input=False, action=("latch", "X")),
        )
        s1, s2 = machine.fresh_state(), machine.fresh_state()
        machine.add_transition(
            "s0", s1, InputBurst((Edge("go", True),)), OutputBurst((Edge("done", True),))
        )
        # a request wire used as an input edge, behind a satisfied one
        machine.add_transition(
            s1, s2, InputBurst((Edge("go", False, ddc=True), Edge("r", True))), OutputBurst(())
        )
        return machine

    compiled, reference = _pair(build)
    assert compiled == reference
    assert compiled[0] == "FU: unexpected input r"


def test_cannot_drive_fails_after_the_earlier_outputs():
    def build():
        machine = _machine_with(
            Signal("done", SignalKind.GLOBAL_READY, is_input=False),
            Signal("a", SignalKind.LOCAL_ACK, is_input=True),
        )
        s1 = machine.fresh_state()
        machine.add_transition(
            "s0",
            s1,
            InputBurst((Edge("go", True),)),
            OutputBurst((Edge("done", True), Edge("a", True))),
        )
        return machine

    compiled, reference = _pair(build)
    assert compiled == reference
    assert compiled[0] == "FU: cannot drive a"
    assert compiled[4]["done"] == 1  # the wire before it was driven


def test_nondeterministic_choice_message():
    def build():
        machine = _machine_with()
        a, b = machine.fresh_state(), machine.fresh_state()
        machine.add_transition("s0", a, InputBurst((Edge("go", True),)), OutputBurst(()))
        machine.add_transition("s0", b, InputBurst((Edge("go", True),)), OutputBurst(()))
        return machine

    compiled, reference = _pair(build)
    assert compiled == reference
    assert compiled[0].startswith("FU: nondeterministic choice in state s0: ")


def test_finished_simulation_leaves_no_cyclic_garbage(designs):
    """A traced run is freed by reference counting once dropped: the
    compiled rows hold no runtime, and the system unlinks the
    runtimes' wake-up hook after the run."""
    import gc

    design = designs["diffeq"]
    simulate_system(design, seed=0, trace=EventTrace())
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = simulate_system(design, seed=0, trace=EventTrace())
        critical_path(result.trace)
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
