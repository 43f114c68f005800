"""Whole-system simulation of a :class:`DistributedDesign`.

Instantiates one :class:`~repro.sim.controller.ControllerRuntime` per
extracted machine, a shared :class:`~repro.sim.datapath.Datapath`, and
the environment (which drives the channels leaving START and observes
the channels entering END).  Running the system executes the complete
distributed control: controller-controller ready events, controller-
datapath handshakes, register updates — and verifies that the design
terminates with the correct register file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.afsm.extract import DistributedDesign
from repro.cdfg.graph import ENV
from repro.errors import DeadlockError
from repro.obs.causal import EventTrace
from repro.obs.spans import span
from repro.sim.controller import ControllerRuntime, GlobalWire
from repro.sim.datapath import Datapath
from repro.sim.kernel import EventKernel
from repro.sim.seeding import SeedLike, resolve_seed
from repro.timing.delays import DelayModel


@dataclass
class SystemResult:
    """Outcome of one AFSM-level run."""

    registers: Dict[str, float]
    end_time: float
    transitions_taken: Dict[str, int] = field(default_factory=dict)
    wire_events: Dict[str, int] = field(default_factory=dict)
    hazards: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    events_processed: int = 0
    #: effective delay-sampling seed (None for a NOMINAL run)
    seed: Optional[int] = None
    #: causal event log (present when the run was traced)
    trace: Optional[EventTrace] = None
    #: chronological register-write log from the datapath latches
    writes: List[Tuple[str, float]] = field(default_factory=list)

    def write_streams(self) -> Dict[str, List[float]]:
        """Per-variable value streams, in latch order."""
        streams: Dict[str, List[float]] = {}
        for dest, value in self.writes:
            streams.setdefault(dest, []).append(value)
        return streams


class ControllerSystem:
    """The instantiated distributed design, ready to run."""

    def __init__(
        self,
        design: DistributedDesign,
        delays: Optional[DelayModel] = None,
        seed: SeedLike = None,
        strict: bool = True,
        max_events: int = 2_000_000,
        trace: Optional[EventTrace] = None,
    ):
        self.design = design
        self.kernel = EventKernel(trace=trace)
        self.max_events = max_events
        rng, self.seed = resolve_seed(seed)
        self.datapath = Datapath(
            self.kernel,
            design.cdfg.initial_registers,
            design.cdfg.inputs,
            delays=delays,
            rng=rng,
        )

        # wires: one per channel; receivers are the channel's dst FUs
        self.wires: Dict[str, GlobalWire] = {}
        self.env_done_wires: List[str] = []
        for channel in design.plan.channels:
            receivers = [fu for fu in channel.dst_fus if fu != ENV]
            if ENV in channel.dst_fus:
                receivers.append(ENV)
                self.env_done_wires.append(channel.wire_name())
            self.wires[channel.wire_name()] = GlobalWire(
                channel.wire_name(), receivers, strict=strict
            )

        self.controllers: Dict[str, ControllerRuntime] = {}
        for fu, controller in design.controllers.items():
            runtime = ControllerRuntime(
                fu=fu,
                machine=controller.machine,
                kernel=self.kernel,
                datapath=self.datapath,
                wires=self.wires,
            )
            runtime.poke_all = self._poke_all
            self.controllers[fu] = runtime

    def _poke_all(self) -> None:
        for runtime in self.controllers.values():
            runtime.poke()

    # ------------------------------------------------------------------
    def run(self) -> SystemResult:
        with span("sim/system", workload=self.design.cdfg.name):
            return self._run()

    def _run(self) -> SystemResult:
        # pre-enabled (backward) channels start with one pending
        # transition, then the environment raises every "go" wire
        for wire_name, rising in self.design.phases.init_events:
            self.wires[wire_name].emit(self.kernel.now, rising)
        for channel in self.design.plan.channels:
            if channel.src_fu == ENV:
                self.wires[channel.wire_name()].emit(self.kernel.now, rising=True)
        self._poke_all()
        end_time = self.kernel.run(max_events=self.max_events)

        # the environment must have received every "done"
        for wire_name in self.env_done_wires:
            wire = self.wires[wire_name]
            if wire.pending_total(ENV) < 1:
                waiting = tuple(
                    {"node": f"{fu}@{runtime.state}", "missing": [wire_name], "held": []}
                    for fu, runtime in sorted(self.controllers.items())
                )
                raise DeadlockError(
                    f"system quiesced at t={self.kernel.now:.3f} without environment "
                    f"done on {wire_name} (deadlock; controllers at: "
                    + ", ".join(f"{fu}@{rt.state}" for fu, rt in self.controllers.items())
                    + ")",
                    time=self.kernel.now,
                    waiting=waiting,
                    blocked_channels=(wire_name,),
                    recent_events=tuple(self.kernel.recent_labels),
                )

        # the runtimes reach back to this system only to wake each
        # other; dropping that link leaves a finished simulation (trace
        # included) acyclic, so it is freed as soon as its caller lets go
        for runtime in self.controllers.values():
            runtime.poke_all = None

        violations: List[str] = []
        for wire in self.wires.values():
            violations.extend(wire.violations)
        return SystemResult(
            registers=dict(self.datapath.registers),
            end_time=end_time,
            transitions_taken={
                fu: runtime.transitions_taken for fu, runtime in self.controllers.items()
            },
            wire_events={name: wire.events_sent for name, wire in self.wires.items()},
            hazards=list(self.datapath.hazards),
            violations=violations,
            events_processed=self.kernel.events_processed,
            seed=self.seed,
            trace=self.kernel.trace,
            writes=list(self.datapath.writes),
        )


def simulate_system(
    design: DistributedDesign,
    delays: Optional[DelayModel] = None,
    seed: SeedLike = None,
    strict: bool = True,
    max_events: int = 2_000_000,
    trace: Optional[EventTrace] = None,
) -> SystemResult:
    """Instantiate and run a distributed design once."""
    system = ControllerSystem(
        design, delays=delays, seed=seed, strict=strict, max_events=max_events, trace=trace
    )
    return system.run()
