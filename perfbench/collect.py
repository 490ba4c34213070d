"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 perfbench/collect.py --workloads long-docs uz-wide \
        --seeds 1-10 --seconds 60 --trace 0 --out perfbench/baseline.json

For every workload and metric it reports the median of the per-seed
values, the quartiles from `statistics.quantiles(values, n=4)`, and the
spread (third minus first quartile) as a share of the median, which is
what the benchmark's bounds are judged against. Runs are sequential, one
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  "failed", result["failed"], flush=True)
            results.append(result)
        metrics = {
            name: dict(spread([r["metrics"][name]["value"] for r in results]),
                       unit=results[0]["metrics"][name]["unit"])
            for name in results[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "environment": environment(Path.cwd(), workload, args.seeds, bool(args.trace)),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for name, stats in metrics.items():
            print(f"  {workload:10s} {name:40s} median {stats['median']:.6g} {stats['unit']}"
                  f"  spread {stats['iqr_share']:.2%}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
