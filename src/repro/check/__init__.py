"""repro.check — differential fuzzing & fault injection for the morphing pipeline.

The paper's pitch is that evolution support can ride on the *existing*
binary meta-data with no extra runtime machinery; the implied contract is
that every layer below morphing stays honest under hostile inputs.  This
package checks that contract mechanically, with nine seeded oracles
(``docs/TESTING.md`` catalogs them all), among them:

* **roundtrip** — random formats/records: generic encode/decode
  (:mod:`repro.pbio.encode` / :mod:`repro.pbio.decode`) must agree
  byte-for-byte and value-for-value with the DCG-specialized routines of
  :mod:`repro.pbio.codegen`.
* **mutation** — valid wire buffers are corrupted (bit flips, truncation,
  length-field lies, endianness-flag lies...); every outcome must be a
  clean :class:`repro.errors.ReproError` subclass on *both* decode paths
  — never a bare ``struct.error``/``MemoryError``/hang.
* **ecode** — random straight-line ECode programs: the tree-walking
  interpreter and the generated-Python procedure must return identical
  values (or both raise :class:`repro.errors.ECodeError`).
* **morph** — ECho ChannelOpenResponse traffic (V2 writers, V0/V1
  readers) pushed through a lossy, reordering :class:`repro.net.transport
  .Network`; delivered records must equal the interpreted transform chain
  applied to the originals, and the receiver/transport counters must
  reconcile exactly.

Failing inputs are persisted to a JSON crash corpus
(:mod:`repro.check.corpus`), minimized, and replayable as regression
tests.  Drive it with ``python -m repro.check --seed 0 --budget 2000``.
"""

from repro.check.corpus import Corpus, minimize_wire
from repro.check.gen import random_format, random_program, random_record
from repro.check.mutate import MUTATIONS, mutate
from repro.check.oracles import Finding
from repro.check.runner import CheckRunner, run_check

__all__ = [
    "CheckRunner",
    "Corpus",
    "Finding",
    "MUTATIONS",
    "minimize_wire",
    "mutate",
    "random_format",
    "random_program",
    "random_record",
    "run_check",
]
