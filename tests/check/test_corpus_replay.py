"""Crash corpus: persistence, minimization, and replay of the committed
regression corpus under ``tests/check/corpus/``."""

import json
import os

import pytest

from repro.check import oracles
from repro.check.corpus import Corpus, minimize_wire
from repro.check.runner import replay_corpus, replay_entry
from repro.errors import ReproError

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestCorpusStore:
    def test_add_is_idempotent(self, tmp_path):
        corpus = Corpus(str(tmp_path / "c"))
        entry = {"kind": "ecode", "program": "return 1;",
                 "expectation": "interp_matches_codegen"}
        path_a = corpus.add(entry)
        path_b = corpus.add(dict(entry))
        assert path_a == path_b
        assert len(corpus) == 1

    def test_entries_round_trip_json(self, tmp_path):
        corpus = Corpus(str(tmp_path / "c"))
        entry = {"kind": "mutation", "wire_hex": "00ff", "expectation": "x"}
        corpus.add(entry)
        assert corpus.entries() == [entry]

    def test_missing_directory_is_empty(self, tmp_path):
        corpus = Corpus(str(tmp_path / "never_created"))
        assert corpus.paths() == []
        assert len(corpus) == 0


class TestMinimizer:
    def test_minimizes_to_failing_core(self):
        # "Fails" whenever the byte 0xAB survives: the minimizer should
        # strip everything else.
        data = bytes(range(200)) + b"\xab" + bytes(range(50))
        shrunk = minimize_wire(data, lambda d: b"\xab" in d)
        assert b"\xab" in shrunk
        assert len(shrunk) <= 4

    def test_never_returns_non_failing_input(self):
        data = bytes(100)
        shrunk = minimize_wire(data, lambda d: len(d) >= 10)
        assert len(shrunk) >= 10

    def test_predicate_exception_treated_as_not_failing(self):
        def bomb(d):
            raise RuntimeError("predicate bug")
        data = b"keep me"
        assert minimize_wire(data, bomb) == data


class TestCommittedCorpus:
    """Every committed crash entry must stay fixed: replay runs the exact
    invariant that once failed and asserts it no longer fires."""

    def test_corpus_is_nonempty(self):
        assert len(Corpus(CORPUS_DIR)) >= 3

    @pytest.mark.parametrize(
        "path",
        sorted(
            os.path.join(CORPUS_DIR, name)
            for name in os.listdir(CORPUS_DIR)
            if name.endswith(".json")
        ),
        ids=os.path.basename,
    )
    def test_entry_no_longer_fails(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        findings = replay_entry(entry)
        assert findings == [], [f.detail for f in findings]

    def test_replay_corpus_summary(self):
        summary = replay_corpus(Corpus(CORPUS_DIR))
        assert summary["ok"] is True
        assert summary["entries"] == len(Corpus(CORPUS_DIR))
        assert summary["still_failing"] == 0


#: One known-clean parameter set per persisted deployment/stream kind.
SCENARIOS = [
    ("reliability-chain", oracles.check_reliability_chain,
     dict(net_seed=0, loss_rate=0.1, jitter=0.005, messages=5)),
    ("reliability-failover", oracles.check_reliability_failover,
     dict(net_seed=0, loss_rate=0.05, jitter=0.0, messages=5,
          crash_primary=True)),
    ("batching", oracles.check_batching_parity,
     dict(net_seed=1, loss_rate=0.05, jitter=0.0, messages=6,
          batch_size=2)),
    ("projection", oracles.check_projection_pushdown,
     dict(net_seed=1, loss_rate=0.05, jitter=0.0, messages=5,
          batch_size=2)),
    ("crash-kill", oracles.check_crash_chaos,
     dict(net_seed=12345, loss_rate=0.05, jitter=0.005, messages=6,
          scenario="kill")),
    ("crash-partition", oracles.check_crash_chaos,
     dict(net_seed=12345, loss_rate=0.05, jitter=0.005, messages=6,
          scenario="partition")),
    ("crash-ablation", oracles.check_crash_chaos,
     dict(net_seed=12345, loss_rate=0.05, jitter=0.005, messages=6,
          scenario="ablation")),
    ("morph", oracles.check_morph_stream,
     dict(net_seed=3, loss_rate=0.2, jitter=0.01, reader_version="0.0",
          messages=6, records_seed=11)),
]


class TestScenarioReplay:
    """Every entry a scenario oracle persists replays through the replay
    table back onto the same scenario."""

    @staticmethod
    def persisted_entry(monkeypatch, scenario, params):
        """The corpus entry *scenario* would persist for a finding (its
        base entry plus a detail), as read back from JSON."""
        settle = oracles._Case.settle

        def settle_and_flag(case, net, arm=""):
            settle(case, net, arm)
            case.flag("forced finding")

        with monkeypatch.context() as patch:
            patch.setattr(oracles._Case, "settle", settle_and_flag)
            findings = scenario(**params)
        assert [f.detail for f in findings][-1:] == ["forced finding"]
        return json.loads(json.dumps(findings[-1].entry))

    @pytest.mark.parametrize(
        "scenario, params", [s[1:] for s in SCENARIOS],
        ids=[s[0] for s in SCENARIOS],
    )
    def test_persisted_entry_replays_clean(self, monkeypatch, scenario,
                                           params):
        entry = self.persisted_entry(monkeypatch, scenario, params)
        assert entry["detail"] == "forced finding"
        assert replay_entry(entry) == []

    def test_morph_finding_replays_from_the_corpus(self, monkeypatch,
                                                   tmp_path):
        entry = self.persisted_entry(
            monkeypatch, oracles.check_morph_stream, SCENARIOS[-1][2]
        )
        corpus = Corpus(str(tmp_path / "c"))
        corpus.add(entry)
        summary = replay_corpus(corpus)
        assert summary["ok"] is True
        assert summary["results"][0]["kind"] == "morph"

    def test_unreplayable_entry_is_reported_not_raised(self, tmp_path):
        corpus = Corpus(str(tmp_path / "c"))
        corpus.add({"kind": "meteor", "expectation": "none"})
        summary = replay_corpus(corpus)
        assert summary["ok"] is False
        assert summary["still_failing"] == 1
        with pytest.raises(ReproError):
            replay_entry({"kind": "meteor"})
