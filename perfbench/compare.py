"""Compare two sets of benchmark runs, e.g. a parent commit against a change.

    python3 perfbench/run.py --workload synth_grid --seed 1 --seconds 35 >> parent.log
    ...                                                                 >> change.log
    python3 perfbench/compare.py parent.log change.log

Each log holds the stdout of any number of runs. For every workload and
metric it prints both medians, their quartile spread and the change, and
flags an end-to-end metric that got worse by more than its bound in
BENCHMARK.json. It refuses to compare runs whose kernel backend or BLAS
differ, since their timings measure different programs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SAME_ENV = ("kernels_backend", "blas", "blas_version", "blas_threads")


def read_runs(path):
    """(info, result) for every run in a log; an info line precedes each result."""
    runs, info = [], None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "info" in doc:
            info = doc["info"]
        elif "metrics" in doc and info is not None:
            runs.append((info, doc))
            info = None
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [read_runs(p) for p in argv]
    envs = {tuple(info["env"].get(k) for k in SAME_ENV) for side in sides for info, _ in side}
    if len(envs) > 1:
        print(f"refusing to compare: runs differ in {SAME_ENV}: {sorted(envs, key=str)}",
              file=sys.stderr)
        return 2

    values = [defaultdict(list), defaultdict(list)]
    failed = [0, 0]
    for i, side in enumerate(sides):
        for info, res in side:
            failed[i] += res["failed"] + (not res["correct"])
            for name, m in res["metrics"].items():
                values[i][(info["workload"], name)].append(m["value"])
    print(f"failures: {failed[0]} vs {failed[1]}")
    regressed = False
    for key in sorted(set(values[0]) & set(values[1])):
        a, b = values[0][key], values[1][key]
        ma, mb = statistics.median(a), statistics.median(b)
        meta = bounds.get(key[1], {})
        change = (mb - ma) / ma if ma else 0.0
        worse = -change if meta.get("better") == "higher" else change
        verdict = ""
        if "bound" in meta:
            if worse > meta["bound"]:
                verdict, regressed = "WORSE than bound", True
            elif max(spread(a), spread(b)) > meta["bound"]:
                verdict = "unresolved (spread above bound)"
        print(f"{key[0]:13s} {key[1]:40s} {ma:14.6g} ({spread(a):.3f}, n={len(a)}) "
              f"-> {mb:14.6g} ({spread(b):.3f}, n={len(b)})  {change:+.3f} {verdict}")
    return 3 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
