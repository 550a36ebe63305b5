#!/usr/bin/env python
"""What a process pays before its first proof: the cold-start table.

Every number comes from a fresh interpreter (``python -c`` with only the
source tree on ``PYTHONPATH``), fastest of ``--repeats``::

    python tools/cold_start.py
    python tools/cold_start.py --against /path/to/parent/checkout
    python tools/cold_start.py --check

In order:

* per top-level layer: seconds to import it and how many ``repro``
  modules that loads;
* the SRS at μ ∈ {6, 8, 10}: every arity 0..μ asked bottom-first (the
  benchmark's set-up loop) and top-first (a prover), after the generator
  comb, which is timed on its own.  Either order builds the top arity
  from the generator and the rest as pair sums of the arity above, so
  the two rows agree;
* a Jellyfish μ=6 process step by step: import, SRS top-first,
  preprocess, the first proof (which builds the resident odd-multiple
  tables) and a warm one.

``--against DIR`` runs the same probes on the source tree of another
checkout (the parent commit) in alternation and prints its numbers
beside ours, with whether the SRS points and the proof are identical.
``--check`` times nothing: it asserts the module-set facts (what an
import must *not* load: any layer above the one imported — so
``import repro.cluster`` brings no ``repro.traffic`` / ``.carbon`` /
``.fleet`` — nor :mod:`multiprocessing` below ``repro.fleet`` or in the
scenario runner and the cluster CLI, ``repro`` and ``repro.fleet``
nothing but themselves, and no import compiles a Table I gate), that
README.md's module map lists the layers in :data:`LAYERS` order, and
that a fresh ``TrapdoorSRS(μ)`` makes exactly 2^μ generator
multiplications whichever order its arities are asked in (μ ∈
:data:`COUNTED_SRS_SIZES`), and exits non-zero when one fails —
DESIGN.md §13 "Cold start" records the table, CI runs the check.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: bottom of the stack first; every layer only reaches down (README.md's
#: module map is this order, and ``--check`` holds both to it)
LAYERS = (
    "repro", "repro.fields", "repro.curves", "repro.mle", "repro.gates",
    "repro.sumcheck", "repro.hyperplonk", "repro.plan", "repro.hw",
    "repro.workloads", "repro.service", "repro.sim", "repro.cluster",
    "repro.traffic", "repro.carbon", "repro.fleet", "repro.experiments",
)

#: the functional ZKP stack, and what importing any of it must not load
FUNCTIONAL = LAYERS[1:7]
NOT_FOR_A_PROOF = (
    "repro.service", "repro.sim", "repro.cluster", "repro.traffic",
    "repro.carbon", "repro.fleet", "repro.experiments", "repro.hw",
)

#: SRS sizes μ the table builds
SRS_SIZES = (6, 8, 10)

#: SRS sizes μ whose generator multiplications ``--check`` counts
COUNTED_SRS_SIZES = (6, 8)

#: the one layer whose import may load :mod:`multiprocessing`: every
#: other layer builds its process pool, if any, on first use
NEEDS_MULTIPROCESSING = "repro.fleet"

#: the scenario runner and the cluster CLI that parses into it: both sit
#: beside the fleet runtime and neither may load :mod:`multiprocessing`
NO_MULTIPROCESSING = ("repro.fleet.scenario", "repro.cluster.__main__")

#: layers whose import loads exactly these modules: ``repro`` and
#: ``repro.fleet`` resolve their exports (runtime, runner) lazily
LOADS_ONLY = {"repro": ["repro"], "repro.fleet": ["repro", "repro.fleet"]}

LOADED = """
import json, sys
print(json.dumps({
    "seconds": seconds,
    "modules": sorted(m for m in sys.modules
                      if m == "repro" or m.startswith("repro.")),
    **extra,
}))
"""

IMPORT = """
import importlib, sys, time
started = time.perf_counter()
importlib.import_module(sys.argv[1])
seconds = time.perf_counter() - started
library = sys.modules.get("repro.gates.library")
extra = {
    "multiprocessing": "multiprocessing" in sys.modules,
    "compiled_gates": sum("compiled" in vars(spec) for spec in library.TABLE1)
                      if library else 0,
}
""" + LOADED

SRS = """
import hashlib, random, sys, time
from repro.curves.bls12_381_g1 import generator_table
from repro.hyperplonk import TrapdoorSRS
mu = int(sys.argv[1])
started = time.perf_counter()
generator_table()
extra = {"comb": time.perf_counter() - started}
for name, order in (("ascending", range(mu + 1)), ("prover", range(mu, -1, -1))):
    srs = TrapdoorSRS(mu, random.Random(mu))
    started = time.perf_counter()
    for arity in order:
        srs.bases(arity)
    extra[name] = time.perf_counter() - started
    points = [(pt.x, pt.y, pt.inf) for a in range(mu + 1) for pt in srs.bases(a)]
    extra[name + "_points"] = hashlib.sha256(repr(points).encode()).hexdigest()
seconds = extra["prover"]
""" + LOADED

SRS_MULS = """
import random, sys
from repro.curves.bls12_381_g1 import generator_table
from repro.fields.counters import recording
from repro.hyperplonk import TrapdoorSRS
# each generator multiplication is one comb walk of `columns` doublings
mu, comb, extra = int(sys.argv[1]), generator_table(), {}
for name, order in (("ascending", range(mu + 1)), ("prover", range(mu, -1, -1))):
    srs = TrapdoorSRS(mu, random.Random(mu))
    with recording() as rec:
        for arity in order:
            srs.bases(arity)
    extra[name] = rec.row("srs_bases").g1.doubling // comb.columns
seconds = 0.0
""" + LOADED

PROVE = """
import hashlib, pickle, random, sys, time
clock = time.perf_counter
mu, extra, started = int(sys.argv[1]), {}, clock()
from repro.fields import Fr
from repro.hyperplonk import (JELLYFISH, HyperPlonkProver, HyperPlonkVerifier,
                              MultilinearKZG, TrapdoorSRS, preprocess)
extra["import"], started = clock() - started, clock()
srs = TrapdoorSRS(mu, random.Random(0))
for arity in range(mu, -1, -1):
    srs.bases(arity)
extra["srs"] = clock() - started
from repro.service.traffic import synthesize_circuit
kzg = MultilinearKZG(srs)
circuit = synthesize_circuit(JELLYFISH, mu, witness_seed=1)
started = clock()
pidx, vidx = preprocess(circuit, kzg)
extra["preprocess"] = clock() - started
for name in ("first_proof", "warm_proof"):
    started = clock()
    proof = HyperPlonkProver(circuit, pidx, kzg).prove()
    extra[name] = clock() - started
HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)
extra["proof"] = hashlib.sha256(pickle.dumps(proof)).hexdigest()
seconds = extra["warm_proof"]
""" + LOADED


def fresh(snippet: str, *args, src: Path = REPO / "src") -> dict:
    """Run ``snippet`` in a new interpreter that sees only ``src``;
    returns the JSON object it prints last."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", snippet, *map(str, args)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"probe failed under {src}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def readme_layers(readme: Path = REPO / "README.md") -> list[str]:
    """The packages of README.md's module-map table, top row first."""
    rows = re.findall(r"^\| (?:\d+|—) \| (`repro\.[^|]*) \|", readme.read_text(), re.M)
    return [name for row in rows for name in re.findall(r"`(repro\.\w+)`", row)]


def failures() -> list[str]:
    """The module-set facts, as a list of the ones that do not hold."""
    bad = []
    documented = readme_layers()
    if documented != list(LAYERS[1:]):
        bad.append(f"README.md module map {documented} != LAYERS[1:]")

    def absent(what: str, report: dict, names) -> None:
        loaded = set(report["modules"])
        for name in names:
            if name in loaded:
                bad.append(f"{what} loads {name}")

    for index, layer in enumerate(LAYERS):
        report = fresh(IMPORT, layer)
        unwanted = NOT_FOR_A_PROOF if layer in FUNCTIONAL else ()
        # ...nor any layer above it: "every layer only reaches down"
        absent(f"import {layer}", report,
               dict.fromkeys(unwanted + LAYERS[index + 1:]))
        only = LOADS_ONLY.get(layer)
        if only is not None and report["modules"] != only:
            extra = sorted(set(report["modules"]) - set(only))
            bad.append(f"import {layer} loads {extra}")
        if report["multiprocessing"] and layer != NEEDS_MULTIPROCESSING:
            bad.append(f"import {layer} loads multiprocessing")
        if report["compiled_gates"]:
            bad.append(f"import {layer} compiles "
                       f"{report['compiled_gates']} gates")
    for module in NO_MULTIPROCESSING:
        if fresh(IMPORT, module)["multiprocessing"]:
            bad.append(f"import {module} loads multiprocessing")
    for mu in COUNTED_SRS_SIZES:
        report = fresh(SRS_MULS, mu)
        for order in ("ascending", "prover"):
            if report[order] != 1 << mu:
                bad.append(f"TrapdoorSRS({mu}) asked in {order} order makes "
                           f"{report[order]} generator multiplications, "
                           f"not {1 << mu}")
    return bad


def fastest(snippet: str, arg, key: str, sources: list[Path], repeats: int):
    """Per source tree, the run with the smallest ``key`` out of
    ``repeats``; the trees alternate so a slow stretch of the host falls
    on all of them."""
    best: list[dict | None] = [None] * len(sources)
    for _ in range(repeats):
        for i, src in enumerate(sources):
            report = fresh(snippet, arg, src=src)
            if best[i] is None or report[key] < best[i][key]:
                best[i] = report
    return best


def table(sources: list[Path], repeats: int) -> None:
    def seconds(reports, key):
        return "  ".join(f"{r[key]:8.3f}" for r in reports)

    other = "  against" if len(sources) > 1 else ""
    print(f"{'import':26s}    ours{other}   repro modules")
    for layer in LAYERS:
        reports = fastest(IMPORT, layer, "seconds", sources, repeats)
        counts = " / ".join(str(len(r["modules"])) for r in reports)
        print(f"{layer:26s}{seconds(reports, 'seconds')}   {counts:^13s}")
    print(f"\n{'SRS, all arities 0..μ':26s}    ours{other}")
    for mu in SRS_SIZES:
        reports = fastest(SRS, mu, "prover", sources, repeats)
        same = len({r[k] for r in reports
                    for k in ("ascending_points", "prover_points")}) == 1
        if mu == SRS_SIZES[0]:
            print(f"{'generator comb':26s}{seconds(reports, 'comb')}")
        for key in ("ascending", "prover"):
            print(f"{f'μ={mu} {key} order':26s}{seconds(reports, key)}")
        print(f"{'':26s}points identical: {same}")
    print(f"\n{'Jellyfish μ=6, one process':26s}    ours{other}")
    reports = fastest(PROVE, 6, "warm_proof", sources, repeats)
    for key, label in (("import", "import repro.hyperplonk"),
                       ("srs", "SRS, prover order"),
                       ("preprocess", "preprocess"),
                       ("first_proof", "first proof"),
                       ("warm_proof", "warm proof")):
        print(f"{label:26s}{seconds(reports, key)}")
    print(f"{'':26s}proofs identical: {len({r['proof'] for r in reports}) == 1}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="assert the module-set facts only; no timing")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout to measure beside this one")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, not {args.repeats}")
    if args.against is not None and not (args.against / "src" / "repro").is_dir():
        parser.error(f"--against {args.against}: no src/repro in that checkout")
    if args.check:
        bad = failures()
        print("\n".join(bad) if bad else
              "cold start: module sets and SRS build counts OK")
        return 1 if bad else 0
    sources = [REPO / "src"]
    if args.against is not None:
        sources.append(args.against.resolve() / "src")
    table(sources, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
