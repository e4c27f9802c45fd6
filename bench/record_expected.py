"""Writes expected.json: digests of the fixed operations' outputs.

Run once, at the commit whose outputs are the reference:

    python3 bench/record_expected.py

The search witnesses and counts are stored whole, for check_search.
"""

import json

import check
import workloads
from run import run_worker

expected = {}
for name in workloads.WORKLOADS:
    ops = [op for op in workloads.operations(name, 0) if op["fixed"]]
    for op, r in zip(ops, run_worker(ops)["ops"]):
        if r["code"] != 0:
            raise SystemExit(f"{op['id']} exited {r['code']}: {r['err']}")
        doc = json.loads(r["out"])
        expected[op["id"]] = {"digest": check.digest(op["kind"], doc)}
        if op["kind"] == "search":
            expected[op["id"]].update(max_iplus=doc["max_iplus"], witness=doc["witness"])
check.EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
print(f"wrote {len(expected)} digests to {check.EXPECTED_PATH}")
