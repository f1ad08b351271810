"""Compare two result files written by ``run.py --out``.

    python3 perfbench/compare.py A.json B.json [--same-commit]

A is the parent, B the change.  Prints one row per (workload, metric):

* ``ok``         B is no worse than A by more than the metric's bound;
* ``regressed``  it is worse by more than the bound in BENCHMARK.json;
* ``unresolved`` a host metric whose executions, on either side, spread
  wider than its bound: the runs cannot tell, which is not the same as
  unchanged;
* ``changed``    a per-layer metric that moved (they carry no bound);
* ``differs``    with ``--same-commit``, a simulated number or a call count
  that is not bit-identical, though one commit must repeat it exactly.

Exits non-zero if any row regressed or differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: metrics one commit must reproduce bit for bit at one seed
_EXACT_SUFFIXES = (".calls_per_op", ".sim_cpu_ns_per_op")


def is_exact(metric: str) -> bool:
    return metric.startswith("sim_") or metric.endswith(_EXACT_SUFFIXES)


def is_host(metric: str) -> bool:
    return metric.startswith("host_cpu") or metric == "setup_s"


def verdict(spec: dict, a: float, b: float, spreads: List[float],
            same_commit: bool) -> str:
    name = spec["name"]
    if same_commit and is_exact(name) and a != b:
        return "differs"
    if "bound" not in spec:
        return "ok" if a == b else "changed"
    worse_by = (b - a) / a if spec["better"] == "lower" else (a - b) / a
    if is_host(name) and max(spreads) > spec["bound"]:
        return "unresolved"
    return "regressed" if worse_by > spec["bound"] else "ok"


def compare(doc_a: dict, doc_b: dict, spec: dict, same_commit: bool) -> int:
    if (doc_a["seed"], doc_a["trace"]) != (doc_b["seed"], doc_b["trace"]):
        raise SystemExit("the two files differ in seed or trace mode")
    specs = spec["per_layer"] if doc_a["trace"] else spec["end_to_end"]
    bad = 0
    print("%-28s %-40s %16s %16s %9s  %s"
          % ("workload", "metric", "A", "B", "B/A", "verdict"))
    for workload, a in doc_a["results"].items():
        b = doc_b["results"].get(workload)
        if b is None:
            continue
        spreads = [r["health"]["bench.host_repeat_spread"] for r in (a, b)]
        for metric in specs:
            name = metric["name"]
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            row = verdict(metric, va, vb, spreads, same_commit)
            bad += row in ("regressed", "differs")
            print("%-28s %-40s %16.6f %16.6f %9.4f  %s"
                  % (workload, name, va, vb, vb / va if va else 1.0, row))
        for side, result in (("A", a), ("B", b)):
            if not result["correct"]:
                bad += 1
                print("%-28s %s was not correct: %s"
                      % (workload, side, "; ".join(result["problems"])))
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--same-commit", action="store_true",
                        help="both files come from one commit: simulated"
                             " numbers and call counts must be identical")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.a) as fa, open(args.b) as fb:
        bad = compare(json.load(fa), json.load(fb), spec, args.same_commit)
    print("%d row(s) regressed or differ" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
