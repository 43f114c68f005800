"""Memoized flow certificates equal certificates computed without reuse.

The LT oracle shares DFA tables by projected-NFA content and the GT
oracle shares token runs by CDFG/plan/seed content across every check
it runs (``memo_campaign.py`` explains the no-reuse reference).  Over
the diffeq and gcd GT x LT grids, machine mutants of every controller,
the minimization pass and the seeded transform mutants, every
certificate must be byte-identical to its reference.
"""

import pytest

from repro.resilience.injection import PointTimeout
from repro.sim.seeding import NOMINAL
from repro.transforms import optimize_global
from repro.verify import flow
from repro.workloads import build_workload
from tests.mutation.mutants import KILLABLE
from tests.verify.memo_campaign import (
    certify_grid,
    certify_machine_pairs,
    certify_minimize,
    certify_standard_flow,
    idle_observables_machine,
    machine_pairs,
    no_reuse,
)


@pytest.fixture(scope="module", params=["diffeq", "gcd"])
def grid(request):
    pair, designs = certify_grid(request.param)
    return request.param, pair, designs


def test_grid_certificates_are_byte_identical(grid):
    workload, pair, __ = grid
    assert len(pair.memo) > 100
    assert {proof.stage for proof in pair.memo} >= {"GT1", "GT2", "GT4", "LT1", "LT2"}
    assert list(pair.mismatches(workload)) == []


def test_machine_mutant_certificates_are_byte_identical(grid):
    workload, __, designs = grid
    pair = certify_machine_pairs(machine_pairs(designs))
    assert list(pair.mismatches(workload)) == []
    # the mutants refute: the reference is not vacuous
    refuted = [proof for proof in pair.reference if not proof.proved]
    assert len(refuted) > len(pair.reference) // 2


def test_minimize_certificates_are_byte_identical(grid):
    __, __, designs = grid
    assert list(certify_minimize(designs)) == []


def test_refuting_transform_mutants_are_byte_identical():
    refuted = set()
    for mutant in KILLABLE:
        with mutant.arm():
            pair = certify_standard_flow(mutant.workload)
        assert pair.memo, mutant.name
        assert list(pair.mismatches(mutant.name)) == []
        if any(not proof.proved for proof in pair.reference):
            refuted.add(mutant.name)
    # refuted GT certificates carry counterexamples from the token-run
    # memo (the LT refutations are the machine mutants above)
    assert {"gt3-swapped-slack", "gt5-merges-concurrent-channels"} <= refuted


def test_idle_observables_differ_only_in_alphabet():
    machine = idle_observables_machine()
    compiled = flow._CompiledMachine(machine)
    wire, action = ("wire", "quiet"), ("act", ("latch", "X"))
    assert compiled.symbols(wire) == compiled.symbols(action) == (None, None)
    assert compiled.table_key(wire) != compiled.table_key(action)
    tables = {}
    assert compiled.table(wire, tables) == ((-1, -1),)
    assert compiled.table(action, tables) == ((-1,),)


def test_no_reuse_restores_the_keys():
    table_key = flow._CompiledMachine.__dict__["table_key"]
    token_key = flow._token_key
    with no_reuse():
        assert flow._token_key is not token_key
    assert flow._CompiledMachine.__dict__["table_key"] is table_key
    assert flow._token_key is token_key


def _one_shot_failure(monkeypatch, target, error):
    """``simulate_tokens`` raises ``error`` on its first run of the
    ``target`` CDFG only; returns the list of CDFGs it simulated."""
    real = flow.simulate_tokens
    simulated = []

    def armed(cdfg, **kwargs):
        simulated.append(cdfg)
        if cdfg is target and simulated.count(target) == 1:
            raise error
        return real(cdfg, **kwargs)

    monkeypatch.setattr(flow, "simulate_tokens", armed)
    return simulated


def test_a_failed_token_run_is_simulated_again(monkeypatch):
    cdfg = build_workload("diffeq")
    simulated = _one_shot_failure(monkeypatch, cdfg, PointTimeout("deadline"))
    runs = {}
    with pytest.raises(PointTimeout):
        flow._token_run(runs, cdfg, None, NOMINAL)
    assert runs == {}
    streams, violations = flow._token_run(runs, cdfg, None, NOMINAL)
    assert len(simulated) == 2 and streams and violations == []
    assert list(runs) == [flow._token_key(cdfg, None, NOMINAL)]
    assert flow._token_run(runs, cdfg, None, NOMINAL) == (streams, violations)
    assert len(simulated) == 2  # a finished run is reused


def test_an_interrupted_check_leaves_no_false_refutation(monkeypatch):
    """A timeout in one check's ``after`` run refutes that check only;
    a later check of the same content through the same memo equals a
    check with a fresh memo."""
    steps = []
    optimize_global(
        build_workload("diffeq"),
        enabled=("GT1",),
        oracle=lambda report, before, after: steps.append((report, before, after)),
    )
    report, before, after = steps[0]
    assert report.applied
    fresh = flow.check_global_flow(report, before, after)
    assert fresh.proved

    _one_shot_failure(monkeypatch, after, PointTimeout("deadline"))
    runs = {}
    interrupted = flow.check_global_flow(report, before, after, runs=runs)
    assert not interrupted.proved
    again = flow.check_global_flow(report, before, after, runs=runs)
    assert again.to_dict() == fresh.to_dict()
