"""The flow-equivalence proof engine (src/repro/verify/flow.py)."""

import hashlib
import json

import pytest

from repro.errors import FlowRefutedError
from repro.verify.flow import (
    FlowObligation,
    FlowProof,
    FlowReport,
    _observable_key,
    conflict_races,
    check_global_flow,
    load_flow_report,
    machine_observables,
    make_flow_global_oracle,
    observable_signature,
    prove_workload,
    replay_flow_report,
    stream_language_counterexample,
)
from repro.verify.oracles import _flatten_actions
from repro.workloads import workload_names

ALL_WORKLOADS = sorted(workload_names())


class TestProveWorkload:
    @pytest.fixture(scope="class")
    def reports(self):
        return {name: prove_workload(name) for name in ALL_WORKLOADS}

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_workload_proves(self, reports, name):
        report = reports[name]
        assert report.error == ""
        assert report.proved, report.summary()

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_pass_application_certified(self, reports, name):
        """One certificate per GT/LT application plus two checkpoints."""
        report = reports[name]
        stages = [proof.stage for proof in report.proofs]
        for gt in report.gts:
            assert gt in stages
        machines = sum(1 for s in stages if s == report.lts[0])
        for lt in report.lts:
            assert stages.count(lt) == machines
        assert "extract" in stages
        assert stages[-1] == "design"

    def test_no_op_passes_recorded(self, reports):
        # gcd has GT passes with nothing to do; they still get a
        # (vacuous) certificate so the count is auditable
        assert any(p.verdict == "no-op" for p in reports["gcd"].proofs)

    @pytest.mark.parametrize("name", ["diffeq", "fir"])
    def test_byte_deterministic(self, reports, name):
        assert prove_workload(name).to_json() == reports[name].to_json()

    def test_replay_is_byte_identical(self, reports):
        identical, message = replay_flow_report(reports["diffeq"].to_dict())
        assert identical, message
        assert "byte-identically" in message

    def test_round_trip(self, reports, tmp_path):
        report = reports["ewf"]
        assert FlowReport.from_dict(report.to_dict()).to_json() == report.to_json()
        path = tmp_path / "ewf.json"
        report.write(str(path))
        assert load_flow_report(str(path)).to_json() == report.to_json()

    def test_filtered_sequences(self):
        report = prove_workload("gcd", gts=("GT1", "GT2"), lts=("LT1",))
        assert report.gts == ("GT1", "GT2")
        assert report.lts == ("LT1",)
        assert report.proved

    def test_unknown_workload_lands_in_error(self):
        report = prove_workload("nonexistent")
        assert report.error != ""
        assert not report.proved


class TestMinimizeProofs:
    def test_minimize_certificates_prove(self):
        report = prove_workload("diffeq", minimize=True)
        assert report.proved, report.summary()
        minimize_proofs = [p for p in report.proofs if p.stage == "minimize"]
        assert len(minimize_proofs) == 4  # one per controller
        assert any(p.verdict == "proved" for p in minimize_proofs)
        # the design checkpoint still matches the golden reference
        assert report.proofs[-1].stage == "design"
        assert report.proofs[-1].verdict == "proved"


class TestRefutation:
    def test_unsound_gt5_is_refuted(self, monkeypatch):
        """Merging channels that CAN be concurrently occupied must
        refute the GT5 occupancy obligation."""
        from repro.transforms.gt5_channel_elimination import ChannelElimination

        monkeypatch.setattr(
            ChannelElimination,
            "_never_concurrent",
            lambda self, cdfg, reach, left, right: True,
        )
        report = prove_workload("fir")
        assert not report.proved
        gt5 = next(p for p in report.proofs if p.stage == "GT5")
        assert gt5.verdict == "refuted"
        assert gt5.counterexample is not None
        refuted = {o.name for o in gt5.refuted_obligations()}
        assert refuted  # occupancy and/or streams, with a concrete schedule

    def test_unsound_gt3_is_refuted(self, monkeypatch):
        """Dropping a constraint arc without a timing witness must
        refute the timing-witnesses obligation."""
        import repro.transforms.gt3_relative_timing as gt3

        monkeypatch.setattr(
            gt3, "relative_arc_dominates", lambda *args, **kwargs: True
        )
        report = prove_workload("diffeq", gts=("GT3",), lts=())
        assert not report.proved
        proof = next(p for p in report.proofs if p.stage == "GT3")
        assert proof.verdict == "refuted"
        assert any(o.name == "timing-witnesses" for o in proof.refuted_obligations())

    def test_strict_oracle_raises(self, monkeypatch):
        from repro.transforms import optimize_global
        from repro.transforms.gt5_channel_elimination import ChannelElimination
        from repro.workloads import build_fir_cdfg

        monkeypatch.setattr(
            ChannelElimination,
            "_never_concurrent",
            lambda self, cdfg, reach, left, right: True,
        )
        with pytest.raises(FlowRefutedError, match="flow"):
            optimize_global(build_fir_cdfg(), oracle=make_flow_global_oracle())


class TestConflictRaces:
    def test_input_diffeq_is_race_free(self, diffeq):
        assert conflict_races(diffeq) == []

    def test_races_are_canonical_tuples(self, diffeq_optimized):
        for kind, var, first, second in conflict_races(diffeq_optimized.cdfg):
            assert kind in ("write-write", "read-write")
            assert isinstance(var, str)
            assert (first, second) == tuple(sorted((first, second)))


class TestCertificateShape:
    def test_obligation_round_trip(self):
        obligation = FlowObligation("order", "proved", "relaxation only", ["a -> b"])
        assert FlowObligation.from_dict(obligation.to_dict()) == obligation

    def test_proof_failure_renders_first_refuted(self):
        proof = FlowProof(
            "GT3",
            "cdfg",
            0,
            "refuted",
            [
                FlowObligation("order", "proved"),
                FlowObligation("timing-witnesses", "refuted", "no witness"),
            ],
        )
        assert proof.failure() == "timing-witnesses: no witness"
        assert not proof.proved

    def test_report_summary_mentions_refutations(self):
        report = FlowReport(
            workload="x",
            proofs=[
                FlowProof(
                    "GT1",
                    "cdfg",
                    0,
                    "refuted",
                    [FlowObligation("order", "refuted", "tightened")],
                )
            ],
        )
        assert "REFUTED GT1[cdfg]: order: tightened" in report.summary()

    def test_proofs_json_is_sorted_and_newline_terminated(self):
        report = prove_workload("gcd", gts=(), lts=())
        text = report.to_json()
        assert text.endswith("\n")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


# ----------------------------------------------------------------------
# differential check: compiled projections vs on-the-fly projections
# ----------------------------------------------------------------------
# The reference below is the direct algorithm: every subset step
# re-derives the NFA from the live machine through transitions_from.
_REFERENCE_ALPHABET = {"wire": ("+", "-"), "act": ("!",)}


def _reference_event_map(machine, observable):
    events = {}
    for transition in machine.transitions():
        symbol = None
        if observable[0] == "wire":
            name = observable[1]
            for burst_edges in (
                transition.input_burst.edges,
                transition.output_burst.edges,
            ):
                for edge in burst_edges:
                    if edge.signal == name:
                        symbol = "+" if edge.rising else "-"
        else:
            action = observable[1]
            for edge in transition.output_burst.edges:
                if not edge.rising:
                    continue
                try:
                    signal = machine.signal(edge.signal)
                except Exception:  # noqa: BLE001 — undeclared wire: no action
                    continue
                if action in _flatten_actions(signal):
                    symbol = "!"
        events[transition.uid] = symbol
    return events


class _ReferenceProjection:
    def __init__(self, machine, observable):
        self.machine = machine
        self.events = _reference_event_map(machine, observable)

    def closure(self, states):
        seen = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for transition in self.machine.transitions_from(state):
                if self.events[transition.uid] is None and transition.dst not in seen:
                    seen.add(transition.dst)
                    stack.append(transition.dst)
        return frozenset(seen)

    def initial(self):
        return self.closure(frozenset({self.machine.initial_state}))

    def step(self, states, symbol):
        after = set()
        for state in states:
            for transition in self.machine.transitions_from(state):
                if self.events[transition.uid] == symbol:
                    after.add(transition.dst)
        return self.closure(frozenset(after))


def _reference_counterexample(before, after, observable):
    alphabet = _REFERENCE_ALPHABET[observable[0]]
    proj_a = _ReferenceProjection(before, observable)
    proj_b = _ReferenceProjection(after, observable)
    start = (proj_a.initial(), proj_b.initial())
    queue = [(start[0], start[1], [])]
    seen = {start}
    while queue:
        set_a, set_b, word = queue.pop(0)
        for symbol in alphabet:
            next_a = proj_a.step(set_a, symbol)
            next_b = proj_b.step(set_b, symbol)
            if bool(next_a) != bool(next_b):
                return word + [symbol]
            if not next_a:
                continue
            pair = (next_a, next_b)
            if pair not in seen:
                seen.add(pair)
                queue.append((next_a, next_b, word + [symbol]))
    return None


def _reference_signature(machine, observable):
    alphabet = _REFERENCE_ALPHABET[observable[0]]
    projection = _ReferenceProjection(machine, observable)
    numbering = {}
    table = []
    queue = []

    def number(subset):
        if subset not in numbering:
            numbering[subset] = len(numbering)
            table.append([])
            queue.append(subset)
        return numbering[subset]

    number(projection.initial())
    position = 0
    while position < len(queue):
        subset = queue[position]
        row = []
        for symbol in alphabet:
            target = projection.step(subset, symbol)
            row.append(-1 if not target else number(target))
        table[numbering[subset]] = row
        position += 1
    blob = json.dumps(table).encode("utf-8")
    return {
        "digest": hashlib.blake2b(blob, digest_size=8).hexdigest(),
        "length": len(table),
    }


def _assert_same_languages(before, after, extra_observables=()):
    """Both engines agree on every observable's signature (for both
    machines) and separating word; returns the observables refuted."""
    observables = sorted(
        machine_observables(before)
        | machine_observables(after)
        | set(extra_observables),
        key=_observable_key,
    )
    refuted = []
    for observable in observables:
        word = stream_language_counterexample(before, after, observable)
        assert word == _reference_counterexample(before, after, observable), observable
        if word is not None:
            refuted.append(observable)
        for machine in (before, after):
            assert observable_signature(machine, observable) == _reference_signature(
                machine, observable
            ), observable
    return refuted


def _drop_output_edge(machine):
    """A copy with the first rising global output edge removed."""
    from repro.afsm.signals import SignalKind

    mutant = machine.copy()
    for transition in sorted(mutant.transitions(), key=lambda t: t.uid):
        for edge in transition.output_burst.edges:
            kind = mutant.signal(edge.signal).kind
            if edge.rising and kind is SignalKind.GLOBAL_READY:
                transition.output_burst = transition.output_burst.without_signal(
                    edge.signal
                )
                return mutant
    return None


def _swap_wire(machine):
    """A copy whose first output edge drives another declared output."""
    from repro.afsm.burst import Edge

    mutant = machine.copy()
    outputs = sorted(signal.name for signal in mutant.outputs())
    for transition in sorted(mutant.transitions(), key=lambda t: t.uid):
        for edge in transition.output_burst.edges:
            other = next((name for name in outputs if name != edge.signal), None)
            if other is None or other in transition.output_burst.signals():
                continue
            edges = [
                Edge(other, e.rising, e.ddc) if e is edge else e
                for e in transition.output_burst.edges
            ]
            transition.output_burst = transition.output_burst.with_edges(edges)
            return mutant
    return None


@pytest.fixture(scope="module")
def grid_machine_pairs():
    """(before, after) of every applied LT step over the GT x LT grid
    of diffeq and gcd, deduplicated by machine text."""
    from itertools import combinations

    from repro.afsm.extract import extract_controllers
    from repro.local_transforms import optimize_local
    from repro.transforms import optimize_global
    from repro.transforms.scripts import STANDARD_SEQUENCE
    from repro.workloads import build_diffeq_cdfg, build_gcd_cdfg

    pairs = {}

    def capture(report, before, after):
        if report.applied:
            signals = sorted(map(repr, after.signals()))
            key = (before.describe(), after.describe(), repr(signals))
            pairs.setdefault(key, (before.copy(), after.copy()))

    for cdfg in (build_diffeq_cdfg(), build_gcd_cdfg()):
        for size in range(len(STANDARD_SEQUENCE) + 1):
            for subset in combinations(STANDARD_SEQUENCE, size):
                optimized = optimize_global(cdfg, enabled=subset)
                design = extract_controllers(optimized.cdfg, optimized.plan)
                optimize_local(design, oracle=capture)
    return list(pairs.values())


class TestCompiledProjectionMatchesReference:
    def test_grid_machines(self, grid_machine_pairs):
        assert len(grid_machine_pairs) > 20
        for before, after in grid_machine_pairs:
            assert _assert_same_languages(before, after) == []

    @pytest.mark.parametrize("mutate", [_drop_output_edge, _swap_wire])
    def test_refuting_mutants(self, grid_machine_pairs, mutate):
        for __, after in grid_machine_pairs:
            mutant = mutate(after)
            assert mutant is not None
            assert _assert_same_languages(after, mutant)

    @staticmethod
    def _edge_case_machines():
        from repro.afsm.burst import Edge, InputBurst, OutputBurst
        from repro.afsm.machine import BurstModeMachine
        from repro.afsm.signals import Signal, SignalKind

        def machine(name, transitions, states):
            m = BurstModeMachine(name)
            for state in states:
                m.add_state(state)
            m.declare_signal(Signal("go", SignalKind.GLOBAL_READY, is_input=True))
            m.declare_signal(Signal("done", SignalKind.GLOBAL_READY, is_input=False))
            m.declare_signal(
                Signal("x_req", SignalKind.LOCAL_REQ, False, "x_ack", ("op", "x"))
            )
            m.declare_signal(
                Signal(
                    "y_req",
                    SignalKind.LOCAL_REQ,
                    False,
                    "y_ack",
                    ("multi", [("op", "x"), ("write", "r1")]),
                )
            )
            m.declare_signal(Signal("x_ack", SignalKind.LOCAL_ACK, True, "x_req"))
            for src, dst, inputs, outputs in transitions:
                m.add_transition(
                    src,
                    dst,
                    InputBurst(tuple(Edge(s, r) for s, r in inputs)),
                    OutputBurst(tuple(Edge(s, r) for s, r in outputs)),
                )
            return m

        return [
            # one transition both raises and lowers ``done``, another
            # lowers ``go`` in its input and raises it in its output:
            # the last edge (output bursts after input bursts) wins
            machine(
                "rise-fall",
                [
                    ("s0", "s1", [("go", True)], [("done", True), ("done", False)]),
                    ("s1", "s0", [("go", False)], [("x_req", True), ("go", True)]),
                ],
                ["s1"],
            ),
            # a rising edge on an undeclared wire launches no action
            machine(
                "undeclared",
                [
                    ("s0", "s1", [("go", True)], [("z_req", True), ("done", True)]),
                    ("s1", "s0", [("go", False)], [("y_req", True), ("done", False)]),
                ],
                ["s1"],
            ),
            # a tau cycle s1 <-> s2 ahead of the observable edge
            machine(
                "tau-cycle",
                [
                    ("s0", "s1", [("go", True)], [("x_req", True)]),
                    ("s1", "s2", [("x_ack", True)], [("x_req", False)]),
                    ("s2", "s1", [("x_ack", False)], [("x_req", True)]),
                    ("s2", "s0", [("go", False)], [("done", True)]),
                ],
                ["s1", "s2"],
            ),
            # s2 has no outgoing transitions; s0 loops on an action
            machine(
                "dead-end",
                [
                    ("s0", "s0", [("x_ack", False)], [("y_req", True)]),
                    ("s0", "s1", [("go", True)], [("done", True)]),
                    ("s1", "s2", [("go", False)], [("y_req", True), ("done", False)]),
                    ("s1", "s0", [("x_ack", True)], [("x_req", True)]),
                ],
                ["s1", "s2"],
            ),
        ]

    def test_hand_built_edge_cases(self):
        machines = self._edge_case_machines()
        undeclared = [("wire", "z_req"), ("act", ("op", "z"))]
        refuted = 0
        for before in machines:
            for after in machines:
                refuted += bool(_assert_same_languages(before, after, undeclared))
        assert refuted > 0
