#!/usr/bin/env python
"""Print one sha256 per experiment summary, and check them against a record.

Every ``repro.experiments`` module is run (fig10's sweep is handed to
table04 / fig11, as ``python -m repro.experiments`` does), its summary's
public keys (those not starting with ``_``) are serialised with
``json.dumps(sort_keys=True)`` and hashed.  A digest changes when any
headline number moves in its last bit, so two trees -- or two
interpreters -- agree on the model exactly when they print the same
digests::

    PYTHONPATH=src python tools/paper_digest.py                 # fast grid
    PYTHONPATH=src python tools/paper_digest.py --full fig06 fig10 table04 fig11
    PYTHONPATH=src python tools/paper_digest.py --check tools/paper_digest_fast.json

The last line is the digest of all the digests printed.  ``--check FILE``
compares each experiment run against the JSON record ``FILE``
(``{experiment: digest}``, written by ``--json``) and exits 1 on any
difference.  The records next to this tool were made before the round
loop of ``SumCheckUnitModel.run`` became plain arithmetic, under Python
3.11; every supported interpreter must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import run_experiments

#: the fast-grid record tier-1 holds every interpreter to
FAST_RECORD = Path(__file__).resolve().parent / "paper_digest_fast.json"


def summary_digest(summary: dict) -> str:
    """sha256 of a summary's public keys, serialised in key order."""
    public = {k: v for k, v in summary.items() if not k.startswith("_")}
    return hashlib.sha256(
        json.dumps(public, sort_keys=True).encode()
    ).hexdigest()


def digests(fast: bool = True, names=ALL_EXPERIMENTS) -> dict[str, str]:
    """``{experiment: summary digest}`` for ``names``, in that order."""
    return {name: summary_digest(result.summary)
            for name, result in run_experiments(names, fast)}


def combined(found: dict[str, str]) -> str:
    """One digest over a set of per-experiment digests."""
    return hashlib.sha256(
        json.dumps(found, sort_keys=True).encode()
    ).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Digest every experiment summary of the paper model."
    )
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help="experiments to run (default: all 17)")
    parser.add_argument("--full", action="store_true",
                        help="the paper's Table III grid, not the fast one")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="exit 1 unless every digest equals FILE's")
    parser.add_argument("--json", action="store_true",
                        help="print the digests as a JSON record")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(ALL_EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}; "
                     f"valid names: {', '.join(ALL_EXPERIMENTS)}")

    found = digests(fast=not args.full, names=args.names or ALL_EXPERIMENTS)
    if args.json:
        print(json.dumps(found, indent=2))
    else:
        for name, digest in found.items():
            print(f"{name:<8} {digest}")
        print(f"{'all':<8} {combined(found)}")
    if args.check is None:
        return 0
    record = json.loads(args.check.read_text())
    bad = [name for name, digest in found.items() if record.get(name) != digest]
    for name in bad:
        print(f"error: {name}: summary digest differs from {args.check}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
