#!/usr/bin/env python
"""Check or re-record the pinned digests of ``tests/goldens.json``.

Each pin has a builder in ``tests/goldens.py`` and a sha256 in the record::

    PYTHONPATH=src python tools/goldens.py --check
    PYTHONPATH=src python tools/goldens.py --check --only paper/full/
    PYTHONPATH=src python tools/goldens.py --record --only proof/ tally/ service/

``--check`` builds the selected pins under this interpreter and exits 1
naming each one that differs from the record.  ``--record`` builds them
under every interpreter in :data:`INTERPRETERS`: if one is missing or any
two disagree it names the interpreter or the pin, exits 1 and writes
nothing; otherwise it rewrites only the selected entries and prints each
one that moved, old -> new prefix.  ``--only`` takes name prefixes
(default: every pin).  A missing or malformed record exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))
import goldens  # noqa: E402

#: the pyenv versions ``--record`` builds every pin under
INTERPRETERS = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")

DIGESTS = "import json, sys, goldens; print(json.dumps(goldens.digests(sys.argv[1:])))"


def digests_under(version: str, prefixes: list[str]) -> dict[str, str]:
    """The selected pins' digests, built by a fresh pyenv ``version``."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    python = pyenv / "versions" / version / "bin" / "python"
    if not python.exists():
        raise RuntimeError(f"interpreter {version} not found at {python}")
    path = os.pathsep.join(str(REPO / d) for d in ("src", "tests"))
    done = subprocess.run(
        [python, "-c", DIGESTS, *prefixes],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise RuntimeError(f"interpreter {version} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="build under this python")
    mode.add_argument("--record", action="store_true", help="build under every one")
    parser.add_argument("--only", nargs="+", default=[""], metavar="PREFIX")
    args = parser.parse_args(argv)
    path = goldens.RECORD
    try:
        record = goldens.read_record(path)
    except (OSError, ValueError) as err:
        parser.error(f"cannot read the record {path}: {err}")
    if not any(name.startswith(tuple(args.only)) for name in goldens.BUILDERS):
        parser.error(f"--only {' '.join(args.only)} selects no pin")

    if args.check:
        found = goldens.digests(args.only)
        bad = [name for name, digest in found.items() if record.get(name) != digest]
        for name in bad:
            recorded = record.get(name, "nothing")[:12]
            print(
                f"error: {name}: built {found[name][:12]}, {path} records {recorded}",
                file=sys.stderr,
            )
        print(f"{len(found) - len(bad)} of {len(found)} pins match {path}")
        return 1 if bad else 0

    try:
        built = {v: digests_under(v, args.only) for v in INTERPRETERS}
    except RuntimeError as err:
        print(f"error: {err}\nnothing written", file=sys.stderr)
        return 1
    found = built[INTERPRETERS[0]]
    bad = [name for name in found if len({b.get(name) for b in built.values()}) > 1]
    for name in bad:
        each = ", ".join(f"{v} {str(b.get(name))[:12]}" for v, b in built.items())
        print(f"error: {name}: interpreters disagree ({each})", file=sys.stderr)
    if bad:
        print("nothing written", file=sys.stderr)
        return 1
    for name, digest in found.items():
        if record.get(name) != digest:
            print(f"{name}: {record.get(name, 'new')[:12]} -> {digest[:12]}")
    merged = {**record, **found}
    kept = {name: merged[name] for name in goldens.BUILDERS if name in merged}
    path.write_text(json.dumps(kept, indent=2) + "\n")
    print(f"recorded {len(found)} pins in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
