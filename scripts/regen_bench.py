#!/usr/bin/env python
"""Regenerate (or verify) the committed bench artifacts.

The repository commits canonical ``rrfd-bench-v1`` documents for the two
experiments the bitset kernel is accepted against:

* ``benchmarks/artifacts/BENCH_E22.json`` — exploration-engine grid
  (replay vs set-based incremental vs packed ``+bitset`` configs);
* ``benchmarks/artifacts/BENCH_E14.json`` / ``BENCH_E14c.json`` — kernel
  scaling, including the packed-round grid up to n=2048;
* ``benchmarks/artifacts/BENCH_E24.json`` — Heard-Of certification grid
  (packed suspicion kernels vs the bridged set oracle);
* ``benchmarks/artifacts/BENCH_E25.json`` — scale-out certification grid
  (work stealing at 1 and 4 workers vs disk-backed BFS, including the
  kset n=5 headline cell);
* ``benchmarks/artifacts/BENCH_E26.json`` — communication-closure
  certification grid (compiled async protocols recorded under fault
  plans, certified and projected — all counts seed-exact).

``python scripts/regen_bench.py`` re-runs the experiments and rewrites
the artifacts (do this on the reference machine when cell semantics
change).  ``python scripts/regen_bench.py --check`` re-runs them and
verifies that the *deterministic* payload of each committed artifact
reproduces exactly — cell axes, parameters, and every count-valued
result.  Wall-clock fields (``elapsed_ms`` values, the ``timing`` block)
are machine-dependent and excluded from the comparison; everything else
must match bit for bit, which is what CI's reproducibility step asserts.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.harness.artifacts import (  # noqa: E402
    canonical_payload,
    experiment_to_doc,
    load_doc,
)
from repro.harness.registry import load_experiments  # noqa: E402
from repro.harness.runner import run_experiment  # noqa: E402

ARTIFACT_DIR = REPO_ROOT / "benchmarks" / "artifacts"

#: Experiments with committed artifacts (BENCH_<id>.json each).
EXPERIMENT_IDS = ("E22", "E14", "E14c", "E24", "E25", "E26")

#: Per-cell value fields that vary run to run and machine to machine.
#: ``shared_hits`` is environmental: which tasks share a pool worker, and so
#: which of them finds a candidate list another task computed, depends on
#: scheduling.
VOLATILE_VALUE_KEYS = frozenset({"elapsed_ms", "shared_hits"})


def stable_payload(doc: dict[str, Any]) -> dict[str, Any]:
    """The machine-independent projection of a bench document.

    Starts from :func:`canonical_payload` (which already drops the
    ``timing`` block) and additionally removes wall-clock fields from
    each cell's value, leaving only deterministic counts.
    """
    payload = copy.deepcopy(canonical_payload(doc))
    for cell in payload["results"]["cells"]:
        value = cell.get("value")
        if isinstance(value, dict):
            for key in VOLATILE_VALUE_KEYS:
                value.pop(key, None)
    return payload


def _selected(ids: list[str]) -> tuple[str, ...]:
    if not ids:
        return EXPERIMENT_IDS
    unknown = [i for i in ids if i not in EXPERIMENT_IDS]
    if unknown:
        raise SystemExit(
            f"no committed artifact for {unknown}; known: {EXPERIMENT_IDS}"
        )
    return tuple(ids)


def regenerate(ids: list[str]) -> list[Path]:
    registry = load_experiments()
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    written = []
    for exp_id in _selected(ids):
        doc = experiment_to_doc(run_experiment(registry[exp_id]))
        path = ARTIFACT_DIR / f"BENCH_{exp_id}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO_ROOT)}")
        written.append(path)
    return written


def check(ids: list[str]) -> int:
    registry = load_experiments()
    failures = 0
    for exp_id in _selected(ids):
        path = ARTIFACT_DIR / f"BENCH_{exp_id}.json"
        if not path.is_file():
            print(f"MISSING {path.relative_to(REPO_ROOT)} — run "
                  f"scripts/regen_bench.py to create it")
            failures += 1
            continue
        committed = stable_payload(load_doc(path))
        fresh = stable_payload(experiment_to_doc(run_experiment(registry[exp_id])))
        if committed == fresh:
            cells = len(committed["results"]["cells"])
            print(f"{path.name}: deterministic payload reproduces "
                  f"({cells} cells)")
        else:
            failures += 1
            print(f"{path.name}: DRIFT — committed artifact does not "
                  f"reproduce; diff of stable payloads:")
            a = json.dumps(committed, indent=1, sort_keys=True).splitlines()
            b = json.dumps(fresh, indent=1, sort_keys=True).splitlines()
            import difflib

            for line in difflib.unified_diff(
                a, b, "committed", "fresh", lineterm="", n=2
            ):
                print(f"  {line}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed artifacts reproduce instead of rewriting",
    )
    parser.add_argument(
        "ids", nargs="*",
        help="restrict to these experiment ids (default: all committed)",
    )
    args = parser.parse_args()
    return check(args.ids) if args.check else (regenerate(args.ids) and 0)


if __name__ == "__main__":
    raise SystemExit(main())
