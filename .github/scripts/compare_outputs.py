"""Check that two checkouts write byte-identical benchmark outputs.

    python3 .github/scripts/compare_outputs.py BASE_TREE [--seeds 23 37]

Runs ``perfbench/run.py --seconds 0 --trace 0`` for every workload and seed,
once in BASE_TREE and once in the current directory, and compares the
sha256 digests of the output files (every CSV, JSONL and ``model.json``)
that each run record lists.  Exits 1 when a run fails, lists no outputs, or
any digest differs.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("loocv-s1-28d", "loocv-dense-7d", "train-detect-s1-90d")


def digests(tree: Path, workload: str, seed: int) -> dict[str, str]:
    """The output digests of one benchmark run in ``tree``; empty on failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return {}
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    if not result["correct"]:
        print(f"{tree}: {workload} seed {seed} failed its gate: {record['jobs'][0]['errors']}")
        return {}
    return record["sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[23, 37])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    head = Path.cwd()
    failed = 0
    for workload in args.workloads:
        for seed in args.seeds:
            base, new = digests(args.base, workload, seed), digests(head, workload, seed)
            same = bool(base) and base == new
            print(f"{workload} seed {seed}: {len(new)} outputs, {'same' if same else 'DIFFER'}")
            for name in sorted(set(base) | set(new)):
                if base.get(name) != new.get(name):
                    print(f"  {name}: {base.get(name)} -> {new.get(name)}")
            failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
