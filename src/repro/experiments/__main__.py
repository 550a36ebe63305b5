"""Run every experiment and print its table: ``python -m repro.experiments``.

``--full`` disables the reduced fast grids (the paper's Table III sweep);
``--list`` prints the valid experiment names and exits.  Unknown flags
and experiment names fail fast with the valid list (exit code 2) instead
of surfacing importlib internals.
"""

from __future__ import annotations

import importlib
import sys
import time

from repro.experiments import ALL_EXPERIMENTS

#: experiments that read Fig 10's sweep, and the fig10 summary entry each
#: takes as ``precomputed=`` when fig10 already ran in this invocation
SWEEP_READERS = {"table04": "_global_front", "fig11": "_per_bw"}


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # console-script entry point (pyproject repro-experiments)
        argv = sys.argv[1:]
    if "--list" in argv:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    known_flags = {"--full"}
    bad_flags = sorted({a for a in argv
                        if a.startswith("-") and a not in known_flags})
    if bad_flags:
        print(f"unknown flag(s): {', '.join(bad_flags)}", file=sys.stderr)
        print("valid flags: --full, --list", file=sys.stderr)
        return 2
    fast = "--full" not in argv
    selected = [a for a in argv if not a.startswith("-")]
    unknown = sorted(set(selected) - set(ALL_EXPERIMENTS))
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"valid names: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    t0 = time.time()
    for name, result in run_experiments(selected or ALL_EXPERIMENTS, fast):
        result.print(max_rows=40)
        print(f"  [{name} ran in {time.time() - t0:.1f}s]\n")
        t0 = time.time()
    return 0


def run_experiments(names, fast: bool):
    """Run ``names`` in order, yielding ``(name, result)``; a reader of
    fig10's sweep named after fig10 is handed that sweep."""
    sweep: dict = {}  # fig10's summary, once it has run
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        if name in SWEEP_READERS and sweep:
            result = module.run(fast=fast,
                                precomputed=sweep[SWEEP_READERS[name]])
        else:
            result = module.run(fast=fast)
        if name == "fig10":
            sweep = result.summary
        yield name, result


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
