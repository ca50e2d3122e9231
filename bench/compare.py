#!/usr/bin/env python3
"""Compare two records written by repeat.py against BENCHMARK.json's bounds.

    python3 bench/compare.py bench/BENCH_baseline.json bench/BENCH_baseline_set2.json

For every workload and end-to-end metric it prints both medians, the
second's change against the first in the metric's worse direction, both
spreads and the bound.  A row fails when a spread or the worsening exceeds
the bound; the exit code is 1 if any row fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    bad = 0
    print(f"{'workload':10s} {'metric':16s} {'median1':>11s} {'median2':>11s} {'worse':>7s}"
          f" {'spread1':>7s} {'spread2':>7s} {'bound':>5s}")
    for name, w1 in first["workloads"].items():
        w2 = second["workloads"][name]
        for m in spec["end_to_end"]:
            a, b = w1["end_to_end"][m["name"]], w2["end_to_end"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spreads = (a["spread"], b["spread"])
            ok = worse <= m["bound"] and max(spreads) <= m["bound"]
            bad += not ok
            print(f"{name:10s} {m['name']:16s} {a['median']:11.5g} {b['median']:11.5g}"
                  f" {worse:+7.3f} {spreads[0]:7.3f} {spreads[1]:7.3f} {m['bound']:5.2f}"
                  f"{'' if ok else '  FAIL'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
