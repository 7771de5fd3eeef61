"""Correctness gate: output invariants and comparison with recorded references.

``read_*`` parse a job's output files; ``*_invariants`` check what must hold
for any seed; ``canonical_*`` reduce the outputs to the compact form that is
stored as a reference and compared with ``diff``:

* ``evaluate``: per method and structural parameter set, the rows of the
  results CSV as ``[tp, fn, fp, tn, on_frontier, *thresholds]`` (thresholds
  ordered by name), sorted;
* ``detect``: per method, the verdicts in stream order as
  ``[legitimate, seq_len, delta]``.

Counts, decisions and frontier membership must match exactly; thresholds and
deltas within ``TOLERANCE``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

TOLERANCE = 1e-12
THRESHOLD_KEYS = ("n_single", "n_multi", "theta", "n_seq_single", "n_seq_multi")
MISDETECTION_CAP = 0.10


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _ratios(counts) -> tuple[float, float]:
    tp, fn, fp, tn = counts
    return (fp / (fp + tn) if fp + tn else 0.0, tp / (tp + fn) if tp + fn else 0.0)


def read_evaluate(out: Path, methods) -> dict[str, list[dict]]:
    found = {}
    for method in methods:
        frontier = {row["params_json"] for row in read_csv(out / f"frontier_{method}.csv")}
        rows = []
        for row in read_csv(out / f"results_{method}.csv"):
            if row["method"] != method:
                raise ValueError(f"results_{method}.csv holds a {row['method']!r} row")
            params = json.loads(row["params_json"])
            thresholds = [params.pop(k) for k in sorted(THRESHOLD_KEYS) if k in params]
            counts = [int(row[k]) for k in ("tp", "fn", "fp", "tn")]
            if (float(row["misdetection"]), float(row["detection"])) != _ratios(counts):
                raise ValueError(f"{method}: ratio columns disagree with counts {counts}")
            rows.append({
                "params_json": row["params_json"],
                "structural": json.dumps(params, sort_keys=True),
                "thresholds": thresholds,
                "counts": counts,
                "on_frontier": row["params_json"] in frontier,
            })
        if len(frontier) != sum(r["on_frontier"] for r in rows):
            raise ValueError(f"frontier_{method}.csv holds rows missing from the results")
        found[method] = rows
    return found


def evaluate_invariants(found: dict, injected: int, real: int) -> list[str]:
    """Each row judges every operation; frontier flags match a quadratic scan."""
    errors = []
    for method, rows in found.items():
        if not rows:
            errors.append(f"{method}: no results")
        bad = [r["counts"] for r in rows if r["counts"][0] + r["counts"][1] != injected
               or r["counts"][2] + r["counts"][3] != real]
        if bad:
            errors.append(f"{method}: counts {bad[0]} do not cover {injected} injected"
                          f" and {real} real operations")
        if [r["on_frontier"] for r in rows] != _frontier_flags(rows):
            errors.append(f"{method}: frontier membership differs from a quadratic scan")
    return errors


def _frontier_flags(rows) -> list[bool]:
    """On the frontier iff no point has lower misdetection at no less
    detection, or equal misdetection at more detection; of identical points
    the one with the smallest params json."""
    points = [(*_ratios(r["counts"]), r["params_json"]) for r in rows]
    return [
        not any((m < mis and d >= det) or (m == mis and (d > det or (d == det and k < key)))
                for m, d, k in points)
        for mis, det, key in points
    ]


def canonical_evaluate(found: dict) -> dict:
    canon: dict = {}
    for method, rows in found.items():
        groups: dict = canon.setdefault(method, {})
        for r in rows:
            groups.setdefault(r["structural"], []).append(
                [*r["counts"], r["on_frontier"], *r["thresholds"]])
        for group in groups.values():
            group.sort()
    return canon


def det_at_mis10(rows) -> float:
    """Detection ratio of the best frontier point under the misdetection cap."""
    ratios = [_ratios(r["counts"]) for r in rows if r["on_frontier"]]
    return max((det for mis, det in ratios if mis < MISDETECTION_CAP), default=0.0)


def read_detect(out: Path, methods) -> dict[str, list[dict]]:
    found = {}
    for method in methods:
        lines = (out / f"verdicts_{method}.jsonl").read_text().splitlines()
        found[method] = [json.loads(line) for line in lines]
    return found


def detect_invariants(found: dict, target_ops: list[tuple[str, str]]) -> list[str]:
    """One verdict per target operation, in stream order; each decision
    consistent with its delta and threshold; every delta a probability."""
    errors = []
    for method, verdicts in found.items():
        if [(v["timestamp"], v["action"]) for v in verdicts] != target_ops:
            errors.append(f"{method}: verdicts do not match the stream's target operations")
        for v in verdicts:
            delta, threshold = v["delta"], v["threshold"]
            legit = delta > threshold if method == "estimation" else delta >= threshold
            if (v["method"] != method or not 0.0 <= delta <= 1.0
                    or v["decision"] != ("legitimate" if legit else "anomalous")):
                errors.append(f"{method}: inconsistent verdict {v}")
                break
    return errors


def canonical_detect(found: dict) -> dict:
    return {
        method: [[v["decision"] == "legitimate", v["seq_len"], v["delta"]] for v in verdicts]
        for method, verdicts in found.items()
    }


def diff(got, want, path: str = "") -> str | None:
    """First difference between two canonical outputs, or None.

    Floats may differ by ``TOLERANCE``; everything else must be equal.
    """
    if isinstance(got, dict) and isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{path or 'top'}: keys {sorted(got)} != reference {sorted(want)}"
        for key in sorted(got):
            found = diff(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} entries != reference {len(want)}"
        for index, (a, b) in enumerate(zip(got, want)):
            found = diff(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if float in (type(got), type(want)) and {type(got), type(want)} <= {int, float}:
        close = abs(got - want) <= TOLERANCE
    else:
        close = type(got) is type(want) and got == want
    return None if close else f"{path}: {got!r} != reference {want!r}"


def sha256_files(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.suffix in (".csv", ".jsonl") or path.name == "model.json"
    }
