"""``python -m repro.check`` — run the differential fuzzing harness.

Examples::

    python -m repro.check --seed 0 --budget 2000
    python -m repro.check --seed 7 --budget 500 --corpus .crashes
    python -m repro.check --oracle reliability --seed 0
    python -m repro.check --replay tests/check/corpus

Exit status 0 iff every case upheld every invariant (or, with
``--replay``, no corpus entry still reproduces).
"""

from __future__ import annotations

import argparse
import sys

from repro.check.corpus import Corpus
from repro.check.runner import ORACLES, CheckRunner, replay_corpus, to_json


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Differential fuzzing & fault injection for the "
                    "morphing pipeline.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed; a seed fully determines the run")
    parser.add_argument("--budget", type=int, default=2000,
                        help="total fuzz cases across all oracles")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="directory to persist (minimized) failing "
                             "inputs into")
    parser.add_argument("--replay", default=None, metavar="DIR",
                        help="replay a crash corpus instead of fuzzing")
    parser.add_argument("--oracle", default=None, choices=sorted(ORACLES),
                        help="focus the whole budget on one oracle "
                             "(e.g. the reliability chaos smoke)")
    parser.add_argument("--transport", default="sim",
                        choices=("sim", "socket"),
                        help="fabric the deployment oracles run on: the "
                             "deterministic simulated network, or real "
                             "UDP loopback sockets with the same seeded "
                             "fault injection")
    args = parser.parse_args(argv)

    if args.replay is not None:
        summary = replay_corpus(Corpus(args.replay))
    else:
        corpus = Corpus(args.corpus) if args.corpus else None
        summary = CheckRunner(
            seed=args.seed, budget=args.budget, corpus=corpus,
            only=args.oracle, transport=args.transport,
        ).run()
    print(to_json(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
