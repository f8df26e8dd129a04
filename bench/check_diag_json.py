#!/usr/bin/env python3
"""Run BENCH_BINARY --diag=OUTPUT.json and load the file with Python's json.

Usage: check_diag_json.py BENCH_BINARY OUTPUT.json

Exit 0 when the file carries exactly the six report sections and at least
one counter and one confusion cell; 1 when the bench fails or it does not.
"""

import json
import subprocess
import sys

KEYS = {"dropped_events", "stages", "counters", "gauges", "histograms", "confusion"}


def main(bench, path):
    subprocess.run([bench, f"--diag={path}"], stdout=subprocess.DEVNULL, check=True)
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if set(doc) != KEYS or not doc["counters"] or not doc["confusion"]:
        print(f"check_diag_json: unexpected report in {path}: {doc}", file=sys.stderr)
        return 1
    print(f"check_diag_json: {path} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
