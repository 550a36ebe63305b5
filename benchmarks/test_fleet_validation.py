"""Model-vs-reality benchmark + ``BENCH_fleet.json`` emitter.

ISSUE 7 acceptance: the discrete-event cluster sim must rank routing
policies the way the *real* fleet's wall clock ranks them.
:func:`repro.fleet.validation.run_validation` runs the same seeded
zipf-mixed stream through the sim and through real worker processes
for every routing policy, and the record asserts:

* ``rank_agreement`` — every significantly-separated predicted pair
  ordered the same by measured wall-clock makespans;
* ``proofs_identical`` — the fleet's proofs byte-equal a single sync
  service's (N processes, one proof stream);
* ``calibration_spread`` — the per-policy measured/predicted ratio
  stays consistent (the quantity rank agreement actually rests on).

Wall-clock numbers are machine-dependent by nature, so the record's
``exact`` sections hold only the machine-independent structure — the
verdicts, the run configuration and the sim's model-time makespans —
and its ``ratio`` section ``calibration_spread``; rankings, pair lists,
the core count and absolute seconds sit in ``info``, recorded for
humans and never compared.  Each ``policies.<p>`` entry carries its
cell as a ``scenario`` block
(:meth:`~repro.fleet.scenario.Scenario.as_dict`), which the gate
compares field by field.  The prediction itself is core-aware
(see :mod:`repro.fleet.validation`), so the record reproduces on
1-core CI runners and many-core laptops alike.

Like the other ``BENCH_*.json`` artifacts, the record is only
(re)written when missing or ``BENCH_FLEET_EMIT=1`` is set (as CI
does), and ``benchmarks/check_regression.py`` gates it.
"""

import json
import os
from pathlib import Path

from repro.fleet.scenario import Scenario
from repro.fleet.validation import run_validation

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

SCENARIO = "zipf-mixed"
JOBS = 24
NODES = 3
SEED = 7
#: max tolerated max/min spread of measured-over-predicted ratios —
#: generous because a loaded CI box skews per-policy overheads, while
#: genuine model breakage (e.g. ignoring the core budget again) shows
#: up as a 2x+ spread
CALIBRATION_SPREAD_CEILING = 1.75


def cell(jobs: int, nodes: int) -> Scenario:
    """The validated cell; ``run_validation`` replaces its ``policy``."""
    return Scenario(SCENARIO, jobs, SEED, nodes=nodes, time_model="functional")


class TestFleetValidation:
    def test_smoke_cell_agrees_and_proves_identically(self, benchmark):
        """A small cell wired exactly like the record (fast CI lane).

        ``rank_agreement`` is reported, not asserted: on this 8-job /
        2-node cell the measured makespans sit within ~15% of each
        other and flip run to run, so a wall-clock ranking must not
        decide tier-1 (``test_fleet_record`` asserts it when emitting).
        """
        doc = benchmark.pedantic(
            lambda: run_validation(cell(8, 2)),
            rounds=1,
            iterations=1,
        )
        print(f"rank_agreement={doc['exact']['rank_agreement']}")
        assert isinstance(doc["exact"]["rank_agreement"], bool)
        assert doc["exact"]["proofs_identical"] is True
        assert len(doc["policies"]) == 3

    def test_fleet_record(self, benchmark):
        """Structure and identical proofs always; the wall-clock verdicts
        (rank agreement, calibration spread) only when emitting the
        record, so a loaded box cannot decide tier-1."""
        doc = benchmark.pedantic(
            lambda: run_validation(cell(JOBS, NODES)),
            rounds=1,
            iterations=1,
        )
        exact, spread = doc["exact"], doc["ratio"]["calibration_spread"]
        assert isinstance(exact["rank_agreement"], bool)
        assert exact["proofs_identical"] is True
        assert len(doc["policies"]) == 3
        assert spread > 0
        emit = os.environ.get("BENCH_FLEET_EMIT") == "1"
        if emit:
            assert exact["rank_agreement"] is True
            assert spread < CALIBRATION_SPREAD_CEILING
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(json.dumps(doc, indent=2))
