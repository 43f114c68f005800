"""Burst-mode controller interpreter for the AFSM-level simulation.

Each controller tracks its current state and fires outgoing
transitions whose input bursts are satisfied:

- local acknowledgments are 4-phase level signals driven by the
  datapath model;
- global ready wires are single-transition channels: each event is
  queued per receiver and consumed exactly once (edge semantics, so a
  "pulse" is never lost even when the receiver is busy);
- directed don't-care edges consume a queued event if one is present,
  otherwise they leave a *debt* that silently absorbs the event when
  it arrives;
- conditionals sample a register level at firing time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.afsm.machine import BurstModeMachine, Transition
from repro.afsm.signals import SignalKind
from repro.errors import ChannelSafetyError, SimulationError
from repro.sim.datapath import Datapath
from repro.sim.kernel import EventKernel

#: controller logic delay per state transition
CONTROL_DELAY = 0.2


class GlobalWire:
    """A single-transition channel wire with per-receiver event queues.

    Events are *directed* (rising/falling): a receiver waiting for a
    rising transition is not released by a falling one (a synthetic
    reset may overtake the wait; it stays queued for the matching ddc
    absorption).  ``debt`` records ddc edges that fired before their
    transition arrived; the arrival is then absorbed silently.
    """

    def __init__(self, name: str, receivers: List[str], strict: bool = True):
        self.name = name
        self.pending: Dict[Tuple[str, bool], int] = {
            (fu, rising): 0 for fu in receivers for rising in (True, False)
        }
        self.debt: Dict[Tuple[str, bool], int] = dict(self.pending)
        self.receivers = list(receivers)
        self.events_sent = 0
        self.strict = strict
        self.violations: List[str] = []

    def emit(self, now: float, rising: bool) -> None:
        self.events_sent += 1
        for fu in self.receivers:
            key = (fu, rising)
            if self.debt[key] > 0:
                self.debt[key] -= 1
                continue
            self.pending[key] += 1
            if self.pending[key] > 1:
                message = (
                    f"t={now:.2f}: wire {self.name} holds {self.pending[key]} unconsumed "
                    f"{'rising' if rising else 'falling'} transitions toward {fu}"
                )
                self.violations.append(message)
                if self.strict:
                    raise ChannelSafetyError(message)

    def available(self, fu: str, rising: bool) -> bool:
        return self.pending[(fu, rising)] > 0

    def consume(self, fu: str, rising: bool) -> None:
        key = (fu, rising)
        if self.pending[key] < 1:
            raise SimulationError(f"wire {self.name}: consuming missing event for {fu}")
        self.pending[key] -= 1

    def consume_ddc(self, fu: str, rising: bool) -> None:
        key = (fu, rising)
        if self.pending[key] > 0:
            self.pending[key] -= 1
        else:
            self.debt[key] += 1

    def pending_total(self, fu: str) -> int:
        return self.pending[(fu, True)] + self.pending[(fu, False)]


#: kinds of compiled guard entries, input consumes and output actions
_COND, _WIRE, _ACK, _CONSUME, _EMIT, _REQUEST, _RAISE = range(7)


def _compile(build, runtime: "ControllerRuntime", item) -> tuple:
    """``build(runtime, item)``, or a ``(_RAISE, error, None)`` entry
    when the machine names something the runtime cannot serve: the
    error is raised when the entry is reached, at the same step and
    with the same message as a live read of the machine."""
    try:
        return build(runtime, item)
    except Exception as exc:  # noqa: BLE001 — replayed when reached
        return (_RAISE, exc, None)


def _cond_entry(runtime: "ControllerRuntime", cond) -> tuple:
    signal = runtime.machine.signal(cond.signal)
    assert signal.action is not None and signal.action[0] == "cond"
    return (_COND, signal.action[1], cond.high)


def _input_entry(runtime: "ControllerRuntime", edge) -> tuple:
    kind = runtime.machine.signal(edge.signal).kind
    if kind is SignalKind.GLOBAL_READY:
        return (_WIRE, runtime.wires[edge.signal].pending, (runtime.fu, edge.rising))
    if kind is SignalKind.LOCAL_ACK:
        return (_ACK, edge.signal, 1 if edge.rising else 0)
    raise SimulationError(f"{runtime.fu}: unexpected input {edge.signal}")


def _consume_entry(runtime: "ControllerRuntime", edge) -> Optional[tuple]:
    if runtime.machine.signal(edge.signal).kind is not SignalKind.GLOBAL_READY:
        return None
    wire = runtime.wires[edge.signal]
    consume = wire.consume_ddc if edge.ddc else wire.consume
    return (_CONSUME, partial(consume, runtime.fu, edge.rising), None)


def _output_entry(runtime: "ControllerRuntime", edge) -> tuple:
    signal = runtime.machine.signal(edge.signal)
    if signal.kind is SignalKind.GLOBAL_READY:
        return (_EMIT, runtime.wires[edge.signal], edge.rising)
    if signal.kind is SignalKind.LOCAL_REQ:
        assert signal.action is not None
        drive = runtime.datapath.request if edge.rising else runtime.datapath.release
        return (_REQUEST, partial(drive, signal.action), (signal.partner, 1 if edge.rising else 0))
    raise SimulationError(f"{runtime.fu}: cannot drive {edge.signal}")


class _Row:
    """One outgoing transition compiled against a runtime.

    ``guard`` holds the input burst's conditions, then its compulsory
    edges, in burst order, as ``(_COND, register, high)``,
    ``(_WIRE, pending dict, (fu, rising))`` or
    ``(_ACK, ack name, level)`` entries; ``consumes`` its global input
    edges (ddc edges included) as ``(_CONSUME, pre-bound
    consume/consume_ddc, None)`` entries; ``outputs`` the output burst as
    ``(_EMIT, wire, rising)`` and ``(_REQUEST, pre-bound datapath
    request/release, (ack, level))`` entries.  Rows hold no reference
    back to the runtime, so a finished simulation is freed by reference
    counting.
    """

    __slots__ = ("transition", "dst", "label", "guard", "consumes", "outputs")

    def __init__(self, runtime: "ControllerRuntime", transition: Transition):
        self.transition = transition
        self.dst = transition.dst
        fragment = transition.tags.get("node") or f"{transition.src}->{transition.dst}"
        self.label = f"ctrl:{runtime.fu}:{fragment}"
        burst = transition.input_burst
        self.guard = tuple(
            [_compile(_cond_entry, runtime, cond) for cond in burst.conditions]
            + [_compile(_input_entry, runtime, edge) for edge in burst.compulsory_edges]
        )
        consumes = (_compile(_consume_entry, runtime, edge) for edge in burst.edges)
        self.consumes = tuple(entry for entry in consumes if entry is not None)
        self.outputs = tuple(
            _compile(_output_entry, runtime, edge)
            for edge in transition.output_burst.edges
        )


@dataclass
class ControllerRuntime:
    """One controller's dynamic state.

    Each state's outgoing transitions are compiled into rows
    (:class:`_Row`) on its first visit — the machine is frozen for the
    lifetime of a simulation — so a poke evaluates pre-resolved guard
    tuples instead of re-reading signal kinds and formatting labels.
    """

    fu: str
    machine: BurstModeMachine
    kernel: EventKernel
    datapath: Datapath
    wires: Dict[str, GlobalWire]
    #: local ack levels (req levels live implicitly in the machine)
    ack_levels: Dict[str, int] = field(default_factory=dict)
    state: str = ""
    busy: bool = False
    transitions_taken: int = 0

    def __post_init__(self) -> None:
        self.state = self.machine.initial_state
        for signal in self.machine.signals():
            if signal.kind is SignalKind.LOCAL_ACK:
                self.ack_levels[signal.name] = 0
        #: state -> its outgoing transitions' compiled rows, uid order
        self._rows: Dict[str, Tuple[_Row, ...]] = {}
        self._poke_label = f"poke:{self.fu}"

    # ------------------------------------------------------------------
    def poke(self) -> None:
        """Schedule an enablement check (called on any input change)."""
        self.kernel.schedule(0.0, self._step, self._poke_label)

    def _step(self) -> None:
        if self.busy:
            return
        rows = self._rows.get(self.state)
        if rows is None:
            rows = self._rows[self.state] = tuple(
                _Row(self, transition)
                for transition in self.machine.transitions_from(self.state)
            )
        enabled = [row for row in rows if self._satisfied(row.guard)]
        if not enabled:
            return
        if len(enabled) > 1:
            raise SimulationError(
                f"{self.fu}: nondeterministic choice in state {self.state}: "
                + " | ".join(str(row.transition.input_burst) for row in enabled)
            )
        row = enabled[0]
        self.busy = True
        self.kernel.schedule(CONTROL_DELAY, partial(self._fire, row), row.label)

    def _satisfied(self, guard: tuple) -> bool:
        for kind, subject, expected in guard:
            if kind is _WIRE:
                if subject[expected] <= 0:
                    return False
            elif kind is _ACK:
                if self.ack_levels[subject] != expected:
                    return False
            elif kind is _COND:
                if self.datapath.condition_level(subject) != expected:
                    return False
            else:
                raise subject
        return True

    def _fire(self, row: _Row) -> None:
        self.busy = False
        if not self._satisfied(row.guard):
            # inputs changed during the control delay; re-evaluate
            self.poke()
            return
        for kind, subject, __ in row.consumes:
            if kind is _RAISE:
                raise subject
            subject()
        self.state = row.dst
        self.transitions_taken += 1
        for kind, subject, detail in row.outputs:
            if kind is _EMIT:
                subject.emit(self.kernel.now, detail)
                if self.poke_all is not None:
                    self.poke_all()  # wake the receivers
            elif kind is _REQUEST:
                subject(partial(self._acknowledge, *detail))
            else:
                raise subject
        self.poke()

    def _acknowledge(self, ack: Optional[str], level: int) -> None:
        """Datapath completion of a request: the partner ack follows."""
        if ack is not None and ack in self.ack_levels:
            self.ack_levels[ack] = level
        self.poke()

    #: injected by the system: wakes every controller after an emission
    poke_all: Optional[Callable[[], None]] = None
