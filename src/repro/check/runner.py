"""The budgeted fuzzing loop and corpus replay.

A *budget* is a case count, split across the oracles roughly by where
historical bugs hide: round-trip differentials and hostile-buffer
mutations get the bulk; ECode differentials, fusion/morph scenarios,
whole-deployment reliability chaos and batched-vs-single parity share
the rest.  Every case is
reproducible from ``(seed, oracle, index)`` alone, and ``only`` focuses
the entire budget on one oracle (the CI chaos smoke runs
``only="reliability"``).
"""

from __future__ import annotations

import inspect
import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check import oracles
from repro.check.corpus import Corpus, minimize_wire
from repro.check.oracles import Finding
from repro.errors import ReproError
from repro.pbio.serialization import format_from_dict

def _local(check: Callable[..., Any]) -> Callable[..., Any]:
    return lambda rng, _transport: check(rng)


def _deployed(check: Callable[..., Any]) -> Callable[..., Any]:
    return lambda rng, transport: check(rng, transport=transport)


#: name -> (fraction of the budget, case weight, case function).  A
#: case's weight is the budget it consumes, so `--budget` approximates
#: total work rather than loop iterations: a morph case simulates several
#: messages over the network; a fusion case pushes a stream through
#: three receivers; a reliability case stands up a whole reliable ECho
#: deployment; batching and projection cases run two of them; a crash
#: case drives a three-worker journaled fabric through a kill (or
#: partition), lease expiry, fenced recovery and client redrive.  Case
#: functions take ``(rng, transport)``; the mutation oracle's returns
#: ``(mutations_applied, findings)``, every other one its findings.
ORACLES: Dict[str, Tuple[float, int, Callable[..., Any]]] = {
    "roundtrip": (0.24, 1, _local(oracles.check_roundtrip)),
    "mutation": (0.22, 1, _local(oracles.check_mutation)),
    "ecode": (0.10, 1, _local(oracles.check_ecode)),
    "fusion": (0.10, 5, _local(oracles.check_fusion)),
    "morph": (0.08, 10, _local(oracles.check_morph)),
    "reliability": (0.08, 25, _deployed(oracles.check_reliability)),
    "batching": (0.07, 40, _deployed(oracles.check_batching)),
    "projection": (0.05, 40, _deployed(oracles.check_projection)),
    "crash": (0.06, 50, _deployed(oracles.check_crash)),
}

#: Fraction of the budget each oracle consumes.
BUDGET_SPLIT = {name: spec[0] for name, spec in ORACLES.items()}


class CheckRunner:
    """Run the oracles under a case budget, collecting findings."""

    def __init__(
        self,
        seed: int = 0,
        budget: int = 2000,
        corpus: Optional[Corpus] = None,
        only: Optional[str] = None,
        transport: str = "sim",
    ) -> None:
        if only is not None and only not in ORACLES:
            raise ReproError(
                f"unknown oracle {only!r}; expected one of {sorted(ORACLES)}"
            )
        if transport not in ("sim", "socket"):
            raise ReproError(
                f"unknown transport {transport!r}; expected 'sim' or "
                "'socket'"
            )
        self.seed = seed
        self.budget = budget
        self.corpus = corpus
        #: restrict the run to a single oracle (the whole budget goes to
        #: it); None runs the full split
        self.only = only
        #: fabric the deployment oracles run on: "sim" or "socket"
        self.transport = transport
        self.findings: List[Finding] = []
        self.cases: Dict[str, int] = {name: 0 for name in ORACLES}
        self.mutations_applied = 0

    # -- internals -----------------------------------------------------

    def _record(self, findings: List[Finding]) -> None:
        for finding in findings:
            self.findings.append(finding)
            if self.corpus is not None and finding.entry is not None:
                entry = dict(finding.entry)
                wire_hex = entry.get("wire_hex")
                fmt_dict = entry.get("format")
                if wire_hex and fmt_dict and entry.get("kind") == "mutation":
                    fmt = format_from_dict(fmt_dict)
                    wire = bytes.fromhex(wire_hex)
                    shrunk = minimize_wire(
                        wire,
                        lambda data: bool(
                            oracles.check_wire_hostility(fmt, data)
                        ),
                    )
                    entry["wire_hex"] = shrunk.hex()
                    entry["original_wire_hex"] = wire_hex
                self.corpus.add(entry)

    def _rng(self, oracle: str, index: int) -> random.Random:
        # One independent stream per (seed, oracle, case): findings name
        # their case, and reordering oracle phases never shifts streams.
        return random.Random(f"{self.seed}:{oracle}:{index}")

    # -- the loop ------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        for name, (fraction, weight, case) in ORACLES.items():
            if self.only is None:
                share = max(1, int(self.budget * fraction))
            else:
                share = self.budget if name == self.only else 0
            for index in range(max(1, share // weight) if share else 0):
                self.cases[name] += 1
                found = case(self._rng(name, index), self.transport)
                if name == "mutation":
                    applied, found = found
                    self.mutations_applied += applied
                self._record(found)
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "transport": self.transport,
            "cases": dict(self.cases),
            "cases_total": sum(self.cases.values()),
            "mutations_applied": self.mutations_applied,
            "findings": [
                {"oracle": f.oracle, "detail": f.detail} for f in self.findings
            ],
            "finding_count": len(self.findings),
            "corpus_size": len(self.corpus) if self.corpus is not None else 0,
            "ok": not self.findings,
        }


def run_check(
    seed: int = 0,
    budget: int = 2000,
    corpus_dir: Optional[str] = None,
    only: Optional[str] = None,
    transport: str = "sim",
) -> Dict[str, Any]:
    """Convenience entry point: run the harness, return the summary."""
    corpus = Corpus(corpus_dir) if corpus_dir else None
    return CheckRunner(
        seed=seed, budget=budget, corpus=corpus, only=only,
        transport=transport,
    ).run()


# ---------------------------------------------------------------------------
# Corpus replay
# ---------------------------------------------------------------------------


def _replay_scenario(scenario: Callable[..., List[Finding]]):
    """Replay a deployment scenario from the parameters its entry
    carries, by name; absent ones take the scenario's defaults.  The
    seeded fabric makes the parameters the whole case."""
    names = inspect.signature(scenario).parameters
    return lambda entry: scenario(
        **{name: entry[name] for name in names if name in entry}
    )


def _replay_wire(entry: Dict[str, Any]) -> List[Finding]:
    return oracles.check_wire_hostility(
        format_from_dict(entry["format"]), bytes.fromhex(entry["wire_hex"]),
        mutation=entry.get("mutation", "replay"),
    )


def _replay_fusion(entry: Dict[str, Any]) -> List[Finding]:
    from repro.echo.protocol import (
        RESPONSE_V0,
        RESPONSE_V1,
        V1_TO_V0_TRANSFORM,
        V2_TO_V1_TRANSFORM,
    )
    from repro.pbio.registry import FormatRegistry

    registry = FormatRegistry()
    if entry.get("scenario") == "echo":
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        handler_fmt = (
            RESPONSE_V0 if entry["reader_version"] == "0.0" else RESPONSE_V1
        )
    else:
        registry.register(format_from_dict(entry["writer_format"]))
        handler_fmt = format_from_dict(entry["reader_format"])
    wires = [bytes.fromhex(h) for h in entry["wires_hex"]]
    return oracles.check_fusion_wires(registry, handler_fmt, wires)


#: ``kind`` or ``kind/scenario`` of a corpus entry -> its replay.
_REPLAY: Dict[str, Callable[[Dict[str, Any]], List[Finding]]] = {
    "mutation": _replay_wire,
    "roundtrip": _replay_wire,
    "ecode": lambda entry: oracles.check_ecode_program(
        entry["program"],
        lambda: entry.get("inputs") or {"a": 0, "b": 0, "c": 0},
    ),
    "fusion": _replay_fusion,
    "morph": _replay_scenario(oracles.check_morph_stream),
    "reliability/chain": _replay_scenario(oracles.check_reliability_chain),
    "reliability/failover": _replay_scenario(
        oracles.check_reliability_failover
    ),
    "batching": _replay_scenario(oracles.check_batching_parity),
    "projection": _replay_scenario(oracles.check_projection_pushdown),
    "crash": _replay_scenario(oracles.check_crash_chaos),
}


def replay_entry(entry: Dict[str, Any]) -> List[Finding]:
    """Re-run the invariant a corpus *entry* captured.  Returns the
    findings the entry still provokes (empty = regression fixed/held)."""
    kind, scenario = entry.get("kind"), entry.get("scenario")
    replay = _REPLAY.get(f"{kind}/{scenario}") or _REPLAY.get(kind)
    if replay is None:
        raise ReproError(
            f"cannot replay corpus entry of kind {kind!r} "
            f"(scenario {scenario!r})"
        )
    return replay(entry)


def replay_corpus(corpus: Corpus) -> Dict[str, Any]:
    """Replay every corpus entry; summarize which still fire."""
    results = []
    for path, entry in zip(corpus.paths(), corpus.entries()):
        try:
            still_failing = [f.detail for f in replay_entry(entry)]
        except ReproError as exc:
            still_failing = [f"replay failed: {exc}"]
        results.append({
            "path": path,
            "kind": entry.get("kind"),
            "still_failing": still_failing,
        })
    failing = [r for r in results if r["still_failing"]]
    return {
        "entries": len(results),
        "still_failing": len(failing),
        "results": results,
        "ok": not failing,
    }


def to_json(summary: Dict[str, Any]) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)
