"""Mutation-testing the verification stack itself.

Every seeded soundness bug in ``mutants.py`` must be killed by BOTH
detection tools — the symbolic flow-equivalence checker and the
differential fuzzer — on the pinned workload.  The equivalent-mutant
negative control must survive both.  The aggregate kill score is gated
at >= 95% per tool (in practice 100%: any survivor is a regression in
an oracle, not an accepted loss).  The key-completeness mutants (a
proof-engine memo key that forgets one input) must each be killed by
the memo differential campaign, under the same gate.
"""

import pytest

from repro.verify import fuzz_workload
from repro.verify.flow import prove_workload

from tests.mutation.mutants import KEY_MUTANTS, KILLABLE, MUTANTS
from tests.verify.memo_campaign import memo_mismatches

FUZZ_RUNS = 3
KILL_SCORE_FLOOR = 0.95


def flow_kills(mutant) -> bool:
    """The proof engine refutes (or errors out on) the mutated flow."""
    with mutant.arm():
        report = prove_workload(mutant.workload)
    return not report.proved


def fuzzer_kills(mutant) -> bool:
    """The differential campaign reports non-conformance."""
    with mutant.arm():
        report = fuzz_workload(
            mutant.workload, runs=FUZZ_RUNS, seed=0, shrink=False
        )
    return not report.conformant


class TestEveryMutantKilled:
    @pytest.mark.parametrize("mutant", KILLABLE, ids=lambda m: m.name)
    def test_flow_checker_kills(self, mutant):
        assert flow_kills(mutant), (
            f"flow checker failed to kill {mutant.name} ({mutant.description}) "
            f"on {mutant.workload}"
        )

    @pytest.mark.parametrize("mutant", KILLABLE, ids=lambda m: m.name)
    def test_fuzzer_kills(self, mutant):
        assert fuzzer_kills(mutant), (
            f"fuzzer failed to kill {mutant.name} ({mutant.description}) "
            f"on {mutant.workload}"
        )


class TestEquivalentControlSurvives:
    @pytest.mark.parametrize(
        "mutant",
        [m for m in MUTANTS if m.expect == "equivalent"],
        ids=lambda m: m.name,
    )
    def test_control_is_not_killed(self, mutant):
        assert not flow_kills(mutant), (
            f"the equivalent control {mutant.name} was killed by the flow "
            "checker — the mutation is no longer behavior-preserving"
        )


class TestKillScore:
    def test_flow_checker_kill_score(self):
        killed = sum(1 for m in KILLABLE if flow_kills(m))
        score = killed / len(KILLABLE)
        assert score >= KILL_SCORE_FLOOR, f"flow kill score {score:.0%}"

    def test_fuzzer_kill_score(self):
        killed = sum(1 for m in KILLABLE if fuzzer_kills(m))
        score = killed / len(KILLABLE)
        assert score >= KILL_SCORE_FLOOR, f"fuzzer kill score {score:.0%}"


@pytest.fixture(scope="module")
def key_kills():
    """Key mutant name -> the first certificate the memoized engine
    gets wrong under it (None: the mutant survived)."""
    kills = {}
    for mutant in KEY_MUTANTS:
        with mutant.arm():
            kills[mutant.name] = next(memo_mismatches(transform_mutants=KILLABLE), None)
    return kills


class TestKeyMutantsKilled:
    """A memo key that forgets one input must show up as a certificate
    differing from the no-reuse reference."""

    @pytest.mark.parametrize("mutant", KEY_MUTANTS, ids=lambda m: m.name)
    def test_differential_campaign_kills(self, key_kills, mutant):
        assert key_kills[mutant.name] is not None, (
            f"memo differential failed to kill {mutant.name} ({mutant.description})"
        )

    def test_key_kill_score(self, key_kills):
        killed = sum(1 for first in key_kills.values() if first is not None)
        score = killed / len(KEY_MUTANTS)
        assert score >= KILL_SCORE_FLOOR, f"key-mutant kill score {score:.0%}"

    def test_unarmed_campaign_is_clean(self):
        assert next(memo_mismatches(workloads=("gcd",)), None) is None


class TestCleanRestore:
    """Arming and disarming a mutant leaves the real passes intact."""

    def test_flow_proves_after_all_mutants(self):
        for mutant in MUTANTS + KEY_MUTANTS:
            with mutant.arm():
                pass
        assert prove_workload("diffeq").proved
