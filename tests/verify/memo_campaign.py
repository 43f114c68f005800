"""A certificate campaign comparing memoized flow proofs with proofs
computed without any reuse.

The proof engine memoizes two things by content: each observable's
DFA table under its projected NFA (:meth:`_CompiledMachine.table_key`)
and each ``strict=False`` token run under its CDFG, plan and seed
(:func:`repro.verify.flow._token_key`).  :func:`no_reuse` replaces both
keys by fresh objects, so every lookup misses and no two projections
compare equal — the certificates then come from first principles.
:func:`memo_mismatches` runs the oracles exactly as the exploration
engine does (one memo per oracle, shared across a whole grid) next to
the no-reuse reference and yields every certificate that differs.

Used by ``test_memo_differential.py`` (no certificate may differ) and
by the key-completeness mutants of ``tests/mutation`` (each mutant
must make one differ).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import combinations
from typing import Dict, Iterator, List, Tuple

from repro.afsm.burst import Edge, InputBurst, OutputBurst
from repro.afsm.extract import extract_controllers
from repro.afsm.machine import BurstModeMachine
from repro.afsm.minimize import minimize_design
from repro.afsm.signals import Signal, SignalKind
from repro.channels.model import Channel, ChannelPlan
from repro.local_transforms import optimize_local
from repro.local_transforms.base import LocalReport
from repro.transforms import optimize_global
from repro.transforms.base import TransformReport
from repro.transforms.scripts import STANDARD_SEQUENCE
from repro.verify import flow
from repro.verify.flow import (
    check_global_flow,
    check_local_flow,
    compose_global_oracles,
    compose_local_oracles,
    make_flow_global_oracle,
    make_flow_local_oracle,
)
from repro.workloads import build_workload
from tests.verify.test_flow import _drop_output_edge


@contextmanager
def no_reuse() -> Iterator[None]:
    """Unique memo keys: nothing is reused, nothing is skipped."""
    table_key = flow._CompiledMachine.__dict__["table_key"]
    token_key = flow._token_key
    flow._CompiledMachine.table_key = lambda self, observable: (object(),)
    flow._token_key = lambda cdfg, plan, seed: object()
    try:
        yield
    finally:
        flow._CompiledMachine.table_key = table_key
        flow._token_key = token_key


def _text(proofs) -> str:
    return json.dumps([proof.to_dict() for proof in proofs], sort_keys=True)


class _Pair:
    """A memoized oracle pair: the engine's own oracles (one memo each,
    like an exploration context) and no-reuse twins."""

    def __init__(self) -> None:
        self.memo: List = []
        self.reference: List = []
        self._global = make_flow_global_oracle(collect=self.memo, strict=False)
        self._local = make_flow_local_oracle(collect=self.memo, strict=False)

    def global_oracle(self):
        def reference(report, before, after) -> None:
            with no_reuse():
                self.reference.append(
                    check_global_flow(report, before, after, index=len(self.reference))
                )

        return compose_global_oracles(self._global, reference)

    def local_oracle(self):
        def reference(report, before, after) -> None:
            with no_reuse():
                self.reference.append(
                    check_local_flow(report, before, after, index=len(self.reference))
                )

        return compose_local_oracles(self._local, reference)

    def mismatches(self, where: str) -> Iterator[str]:
        for index, (memo, reference) in enumerate(zip(self.memo, self.reference)):
            if _text([memo]) != _text([reference]):
                yield f"{where}: certificate {index} ({memo.stage}[{memo.subject}])"
        if len(self.memo) != len(self.reference):
            yield f"{where}: {len(self.memo)} vs {len(self.reference)} certificates"


def grid_subsets() -> List[Tuple[str, ...]]:
    return [
        subset
        for size in range(len(STANDARD_SEQUENCE) + 1)
        for subset in combinations(STANDARD_SEQUENCE, size)
    ]


def _certify(pair: _Pair, cdfg, subset):
    """GT ``subset`` then all LTs through ``pair``; the extracted design."""
    optimized = optimize_global(cdfg, enabled=subset, oracle=pair.global_oracle())
    design = extract_controllers(optimized.cdfg, optimized.plan)
    optimize_local(design, oracle=pair.local_oracle())
    return design


def merged_plan(cdfg) -> ChannelPlan:
    """One wire per sending unit: channels that can be occupied at
    once share it, so the plan is unsafe under every schedule."""
    by_source: Dict[str, list] = {}
    for arc in sorted(cdfg.inter_fu_arcs(), key=lambda arc: arc.key):
        by_source.setdefault(cdfg.fu_of(arc.src), []).append(arc)
    plan = ChannelPlan()
    for index, (source, arcs) in enumerate(sorted(by_source.items())):
        receivers = frozenset(cdfg.fu_of(arc.dst) for arc in arcs)
        plan.add(Channel(f"m{index}_{source}", source, receivers, [arc.key for arc in arcs]))
    return plan


def certify_grid(workload: str) -> Tuple[_Pair, List]:
    """Every GT subset of ``workload`` with all LTs on the result, then
    a GT5 certificate for an unsafe plan over the unchanged input CDFG
    (same CDFG, same seeds, another plan than its earlier runs), all
    through one oracle pair; returns it and the extracted designs."""
    cdfg = build_workload(workload)
    pair = _Pair()
    designs = [_certify(pair, cdfg, subset) for subset in grid_subsets()]
    unsafe = TransformReport("GT5", applied=True, artifacts={"channel_plan": merged_plan(cdfg)})
    pair.global_oracle()(unsafe, cdfg, cdfg)
    return pair, designs


def certify_standard_flow(workload: str) -> _Pair:
    """The standard GT/LT sequence through one oracle pair.  A pass a
    seeded bug breaks may fail validation; the flow then ends there,
    as it does in ``prove_workload``."""
    pair = _Pair()
    try:
        _certify(pair, build_workload(workload), tuple(STANDARD_SEQUENCE))
    except Exception:  # noqa: BLE001 — the certificates so far still count
        pass
    return pair


# ----------------------------------------------------------------------
# machine mutants: other symbols (``_drop_output_edge``), other edges,
# another initial state
# ----------------------------------------------------------------------
def _retargeted(machine: BurstModeMachine):
    """Other edges: the first non-loop transition becomes a self-loop."""
    mutant = machine.copy()
    for transition in sorted(mutant.transitions(), key=lambda t: t.uid):
        if transition.dst != transition.src:
            mutant.retarget_transition(transition.uid, transition.src)
            return mutant
    return None


def _restarted(machine: BurstModeMachine):
    """Another initial state: the machine starts one step later."""
    mutant = machine.copy()
    for transition in sorted(mutant.transitions(), key=lambda t: t.uid):
        if transition.src == mutant.initial_state and transition.dst != transition.src:
            mutant.initial_state = transition.dst
            return mutant
    return None


MACHINE_MUTATIONS = (_drop_output_edge, _retargeted, _restarted)


def idle_observables_machine() -> BurstModeMachine:
    """A wire and an action no transition touches: two all-epsilon
    projections that differ only in their alphabet."""
    machine = BurstModeMachine("idle")
    machine.declare_signal(Signal("go", SignalKind.GLOBAL_READY, is_input=True))
    machine.declare_signal(Signal("quiet", SignalKind.GLOBAL_READY, is_input=False))
    machine.declare_signal(
        Signal("r", SignalKind.LOCAL_REQ, is_input=False, action=("latch", "X"))
    )
    s1 = machine.fresh_state()
    machine.add_transition("s0", s1, InputBurst((Edge("go", True),)), OutputBurst(()))
    machine.add_transition(s1, "s0", InputBurst((Edge("go", False),)), OutputBurst(()))
    return machine


def machine_pairs(designs) -> List[Tuple[BurstModeMachine, BurstModeMachine]]:
    """(machine, mutant) for every controller and machine mutation,
    plus the idle-observables machine against itself."""
    pairs = []
    for design in designs:
        for controller in design.controllers.values():
            for mutate in MACHINE_MUTATIONS:
                mutant = mutate(controller.machine)
                if mutant is not None:
                    pairs.append((controller.machine, mutant))
    idle = idle_observables_machine()
    pairs.append((idle, idle.copy()))
    return pairs


def certify_machine_pairs(pairs) -> _Pair:
    """One local oracle pair over ``pairs`` (each reported as an
    applied pass)."""
    pair = _Pair()
    oracle = pair.local_oracle()
    for before, after in pairs:
        oracle(LocalReport(name="LT1", machine=before.name, applied=True), before, after)
    return pair


def certify_minimize(designs) -> Iterator[str]:
    for index, design in enumerate(designs):
        __, __, proofs = minimize_design(design)
        with no_reuse():
            __, __, reference = minimize_design(design)
        if _text(proofs) != _text(reference):
            yield f"minimize design {index}"


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def memo_mismatches(workloads=("diffeq", "gcd"), transform_mutants=()) -> Iterator[str]:
    """Every certificate on which the memoized engine and the no-reuse
    reference disagree: the GT x LT grid of each workload, machine
    mutants of its controllers, the minimization pass, and the
    standard flow under each armed transform mutant."""
    for workload in workloads:
        pair, designs = certify_grid(workload)
        yield from pair.mismatches(f"{workload} grid")
        yield from certify_machine_pairs(machine_pairs(designs)).mismatches(
            f"{workload} machine mutants"
        )
        yield from certify_minimize(designs)
    for mutant in transform_mutants:
        with mutant.arm():
            pair = certify_standard_flow(mutant.workload)
        yield from pair.mismatches(f"{mutant.name} on {mutant.workload}")
