"""Run one workload over several seeds and print each end-to-end metric's
median and quartile spread (IQR / median), as the acceptance check takes
them.  Each run measures BENCHMARK.json's ``run_seconds``.

    python3 perfbench/spread.py --workload image_dedup --seeds 1-5 \
        [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        run_seconds = str(json.load(fh)["run_seconds"])
    values: dict[str, list[float]] = {}
    for seed in seeds(a.seeds):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", run_seconds, "--trace", a.trace],
            capture_output=True, text=True, timeout=300, cwd=HERE.parent)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        res = json.loads(last)
        print(f"seed {seed}: exit {out.returncode} "
              f"{time.perf_counter() - t0:.1f} s {last}", flush=True)
        for name, m in res.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name}: n={len(vs)} median={med:.4g} iqr/median={share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
