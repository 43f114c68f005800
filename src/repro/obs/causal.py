"""Causal event log and critical-path analysis for the simulators.

Both simulators run on :class:`~repro.sim.kernel.EventKernel`.  When a
kernel carries an :class:`EventTrace`, every ``schedule()`` call is
recorded as a :class:`CausalEvent` whose *parent* is the event during
whose callback it was scheduled — i.e. the event that *enabled* it
(in the token simulator the completion that delivered the last missing
token; in the AFSM simulator the burst that triggered the datapath
element or controller step).  Each event also keeps the exact ``delay``
it was scheduled with, so the chain of parents reconstructs simulated
time precisely:

    ``time(event) == time(parent) + delay(event)``

as the *same* floating-point computation the kernel performed.  Walking
parents back from the event that established the makespan therefore
yields a **critical path** whose segment delays — summed in path order —
reproduce the makespan *exactly* (zero-delay bookkeeping events add
``0.0`` and change nothing).  In ``NOMINAL`` delay mode this is the
deterministic decomposition the paper's cycle-time attribution needs:
every unit of makespan is charged to a named FU computation, controller
burst, mux/latch settle or channel hop.

:func:`slack_by_label` complements the path with per-operation slack:
how much later an event (and, conservatively, everything it triggered)
could have finished without extending the makespan.  Labels on the
critical path have slack ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CausalEvent",
    "EventTrace",
    "Segment",
    "critical_path",
    "path_delay_sum",
    "slack_by_label",
    "bottleneck_label",
]


@dataclass
class CausalEvent:
    """One scheduled kernel callback."""

    uid: int  # the kernel's scheduling sequence number
    at: float  # simulation time of the scheduling call
    delay: float  # requested delay
    time: float  # at + delay: when the callback runs
    parent: Optional[int]  # uid of the event whose callback scheduled this one
    label: Optional[str]  # caller-supplied tag ("M1:U := U - M1", "dp:latch:Y", ...)
    order: int = -1  # execution order; -1 until the callback actually ran


class EventTrace:
    """Recorder attached to an :class:`~repro.sim.kernel.EventKernel`.

    The hot path stores flat rows: ``on_schedule`` keeps one
    ``(at, delay, parent, label)`` tuple per uid and ``on_execute``
    appends the uid to the execution order.  :class:`CausalEvent`
    objects are built on demand by the queries, once per trace state,
    so repeated queries return the same objects.
    """

    def __init__(self) -> None:
        #: uid -> (at, delay, parent uid, label)
        self._rows: Dict[int, Tuple[float, float, Optional[int], Optional[str]]] = {}
        #: uids in execution order (each uid executes at most once)
        self._order: List[int] = []
        self.current: Optional[int] = None  # uid of the executing event
        #: (row count, executed count) the materialized view was built at
        self._view_at: Tuple[int, int] = (-1, -1)
        self._events: Dict[int, CausalEvent] = {}
        self._executed: List[CausalEvent] = []

    # called by the kernel -------------------------------------------------
    def on_schedule(self, uid: int, at: float, delay: float, label: Optional[str]) -> None:
        self._rows[uid] = (at, delay, self.current, label)

    def on_execute(self, uid: int) -> None:
        self._order.append(uid)
        self.current = uid

    # queries --------------------------------------------------------------
    def _view(self) -> None:
        """Build the :class:`CausalEvent` view of the rows (cached until
        the kernel schedules or executes another event)."""
        state = (len(self._rows), len(self._order))
        if state == self._view_at:
            return
        events = {
            uid: CausalEvent(
                uid=uid, at=at, delay=delay, time=at + delay, parent=parent, label=label
            )
            for uid, (at, delay, parent, label) in self._rows.items()
        }
        executed = []
        for order, uid in enumerate(self._order):
            event = events[uid]
            event.order = order
            executed.append(event)
        self._events, self._executed, self._view_at = events, executed, state

    @property
    def events(self) -> Dict[int, CausalEvent]:
        """Every scheduled event by uid (``order`` is -1 until it ran)."""
        self._view()
        return self._events

    def executed(self) -> List[CausalEvent]:
        """Events whose callback actually ran, in execution order."""
        self._view()
        return list(self._executed)

    def last_event(self) -> Optional[CausalEvent]:
        """The final executed event — the one that set the kernel's end time."""
        if not self._order:
            return None
        self._view()
        return self._executed[-1]

    def _chain_uids(self, uid: Optional[int]) -> List[int]:
        """Uids of the parent chain root -> ``uid`` (default: the last
        executed event), read straight from the rows."""
        if uid is None:
            if not self._order:
                return []
            uid = self._order[-1]
        rows = self._rows
        path: List[int] = []
        cursor: Optional[int] = uid
        while cursor is not None:
            path.append(cursor)
            cursor = rows[cursor][2]
        path.reverse()
        return path

    def chain(self, uid: Optional[int] = None) -> List[CausalEvent]:
        """Parent chain root -> ``uid`` (default: the last executed event)."""
        path = self._chain_uids(uid)
        if not path:
            return []
        events = self.events
        return [events[cursor] for cursor in path]

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


@dataclass(frozen=True)
class Segment:
    """One link of the critical path."""

    label: str
    start: float  # time the segment was enabled (parent completion)
    end: float  # completion time
    delay: float  # end - start, as scheduled (exact)


def critical_path(
    trace: EventTrace,
    end_uid: Optional[int] = None,
    include_zero: bool = False,
) -> List[Segment]:
    """The enabling chain behind the run's final event, as segments.

    ``end_uid`` selects a different terminal event (e.g. the recorded
    END completion of a token simulation whose kernel processed
    stragglers afterwards).  Zero-delay bookkeeping events (pokes,
    immediate re-enables) are dropped unless ``include_zero`` — their
    contribution to the sum is exactly ``0.0``, so
    :func:`path_delay_sum` over the filtered path still reproduces the
    terminal event's time.
    """
    rows = trace._rows
    segments = []
    for uid in trace._chain_uids(end_uid):
        at, delay, __, label = rows[uid]
        if include_zero or delay > 0.0:
            segments.append(
                Segment(label=label or "(unlabeled)", start=at, end=at + delay, delay=delay)
            )
    return segments


def path_delay_sum(segments: List[Segment]) -> float:
    """Fold-left sum of segment delays, in path order.

    Performs the same left-to-right additions the kernel performed when
    accumulating absolute time, so for a complete path the result
    equals the terminal event's time bit-for-bit.
    """
    total = 0.0
    for segment in segments:
        total += segment.delay
    return total


def slack_by_label(trace: EventTrace, end_time: Optional[float] = None) -> Dict[str, float]:
    """Per-label slack: how much later the label's events could complete
    without pushing any completion past ``end_time``.

    Conservative (tree-shaped) analysis over the enabling chain: the
    slack of an event is ``end_time`` minus the latest completion among
    the event and everything it (transitively) enabled; a label's slack
    is the minimum over its events.  Critical-path labels get ``0.0``.
    """
    executed = trace.executed()
    if not executed:
        return {}
    if end_time is None:
        end_time = max(event.time for event in executed)
    # children scheduled after parents => parent.uid < child.uid, so a
    # single descending sweep sees every child before its parent
    latest: Dict[int, float] = {}
    for event in sorted(executed, key=lambda event: event.uid, reverse=True):
        down = latest.get(event.uid, event.time)
        latest[event.uid] = down
        if event.parent is not None:
            parent_down = latest.get(event.parent)
            if parent_down is None or down > parent_down:
                latest[event.parent] = down
    slack: Dict[str, float] = {}
    for event in executed:
        if event.label is None:
            continue
        value = end_time - latest[event.uid]
        if value < 0.0:
            value = 0.0  # stragglers past a token-sim END are not "negative slack"
        current = slack.get(event.label)
        if current is None or value < current:
            slack[event.label] = value
    return slack


def bottleneck_label(segments: List[Segment]) -> str:
    """The label group contributing the most delay to the path.

    Labels are grouped by their leading components ("``ctrl:M1:...``"
    -> ``ctrl:M1``, "``dp:fu:M1:...``" -> ``dp:fu:M1``), which names
    the FU / datapath element / channel rather than one specific burst.
    """
    totals: Dict[str, float] = {}
    for segment in segments:
        parts = segment.label.split(":")
        width = 3 if parts[0] == "dp" else 2
        group = ":".join(parts[:width])
        totals[group] = totals.get(group, 0.0) + segment.delay
    if not totals:
        return ""
    return max(sorted(totals), key=lambda label: totals[label])
