"""The crash chaos oracle: kill/partition/ablation scenarios, the
journaling A/B contract, focus mode, and corpus replay."""

import pytest

from repro.check.oracles import check_crash, check_crash_chaos
from repro.check.runner import replay_entry, run_check
from repro.errors import ReproError


class TestScenarios:
    def test_kill_is_clean_on_known_good_seeds(self):
        for net_seed in (0, 12345):
            findings = check_crash_chaos(
                net_seed, loss_rate=0.05, jitter=0.005, messages=6,
                scenario="kill",
            )
            assert findings == [], [f.detail for f in findings]

    def test_partition_fences_the_stale_owner_cleanly(self):
        findings = check_crash_chaos(
            net_seed=12345, loss_rate=0.05, jitter=0.005, messages=6,
            scenario="partition",
        )
        assert findings == [], [f.detail for f in findings]

    def test_ablation_arm_holds_its_weak_invariants(self):
        """Without journaling, loss is expected — the oracle only
        asserts no invented or double-delivered events."""
        findings = check_crash_chaos(
            net_seed=12345, loss_rate=0.05, jitter=0.005, messages=6,
            scenario="ablation",
        )
        assert findings == [], [f.detail for f in findings]

    def test_batched_publishes_ride_through_the_crash_cleanly(self):
        for scenario in ("kill", "partition"):
            findings = check_crash_chaos(
                net_seed=12345, loss_rate=0.05, jitter=0.005, messages=6,
                scenario=scenario, batch=4,
            )
            assert findings == [], [f.detail for f in findings]

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ReproError):
            check_crash_chaos(0, 0.0, 0.0, 4, scenario="meteor")

    def test_randomized_case_is_reproducible(self):
        import random

        first = check_crash(random.Random(5), messages=4)
        second = check_crash(random.Random(5), messages=4)
        assert [f.detail for f in first] == [f.detail for f in second]


class TestJournalingContract:
    def test_ablation_actually_loses_on_the_journaled_kill_seed(self):
        """The A/B the tentpole promises: on a seed where the journaled
        kill run is exactly-once, the same schedule without the journal
        loses (or re-delivers) events.  Run both arms through the
        deployment the oracle uses and compare delivered counts."""
        from repro.bench.fabric import bench_fabric_recovery

        rows = bench_fabric_recovery(messages=24, crash_fractions=(0.5,))
        journaled = next(r for r in rows if r.journaled)
        ablation = next(r for r in rows if not r.journaled)
        assert journaled.lost == 0
        assert journaled.delivered == journaled.published
        assert ablation.lost > 0 or ablation.tail_duplicates > 0


class TestHarnessIntegration:
    def test_focus_mode_spends_the_whole_budget_on_crash(self):
        summary = run_check(seed=0, budget=100, only="crash")
        assert summary["ok"], summary["findings"]
        assert summary["cases"]["crash"] > 0
        for oracle, count in summary["cases"].items():
            if oracle != "crash":
                assert count == 0

    def test_full_run_includes_crash_cases(self):
        summary = run_check(seed=0, budget=400)
        assert summary["cases"]["crash"] > 0

    def test_replay_reruns_a_crash_scenario_from_its_params(self):
        entry = {
            "kind": "crash", "scenario": "kill", "net_seed": 12345,
            "loss_rate": 0.05, "jitter": 0.005, "messages": 6,
            "expectation": "crash_exactly_once",
        }
        assert replay_entry(entry) == []

    def test_replay_defaults_scenario_to_kill(self):
        entry = {
            "kind": "crash", "net_seed": 12345, "loss_rate": 0.05,
            "jitter": 0.005, "messages": 6,
        }
        assert replay_entry(entry) == []
