"""The stoplex benchmark: `stoplex analyze` as a batch job on a seeded corpus.

Usage (from the repository root):

    python3 perfbench/run.py --workload long-docs --seed 1 --seconds 30 --trace 0

The harness generates the workload's corpus from the seed, writes it under
.perfbench_work/, then measures for --seconds seconds in a closed loop of
one: each analysis runs in a fresh child interpreter (perfbench/worker.py),
the next starts only after the previous one has been waited for and its
outputs checked against the generator's reference (perfbench/check.py).

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1 runs
only traced analyses and reports their per-layer metrics
(perfbench/tracing.py), the tracer's own cost among them. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
A full record of every sample goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import CheckFailed, RunOptions, build_reference, check_outputs  # noqa: E402
from tracing import Span, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_SPAWNS = 5  # set-up samples before the first analysis; one more precedes each
# Children are killed once the run has used this much time, so that a hung
# analysis fails the run's check instead of outliving the run.
RUN_BUDGET_S = 150.0
WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"

END_TO_END_UNITS = {
    "analyze_s": "s",
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}
PER_LAYER_UNITS = {
    "corpus.tokenize_s": "s",
    "corpus.tokenize_mchars_per_s": "Mchars/s",
    "corpus.read_decode_s": "s",
    "corpus.load_rss_growth_mb": "MB",
    "corpus.build_lexicon_s": "s",
    "corpus.build_lexicon_rss_growth_mb": "MB",
    "corpus.documents": "count",
    "corpus.tokens": "count",
    "corpus.chars": "count",
    "corpus.unique_words": "count",
    "corpus.postings_per_cell": "ratio",
    "weighting.apply_weights_s": "s",
    "weighting.apply_weights_rss_growth_mb": "MB",
    "weighting.probabilities_s": "s",
    "moments.density_s": "s",
    "moments.moment_summary_s": "s",
    "selection.select_candidates_s": "s",
    "selection.k": "count",
    "position.interval_coverage_s": "s",
    "position.hypothesis_decision_s": "s",
    "report.words_csv_s": "s",
    "report.words_csv_bytes": "bytes",
    "report.to_json_s": "s",
    "report.run_pipeline_self_s": "s",
    "plots.emit_density_plot_s": "s",
    "plots.emit_sorted_plot_s": "s",
    "plots.svg_bytes": "bytes",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
}


class Harness:
    """Spawns worker processes for one workload and seed, and checks their outputs."""

    def __init__(self, root: Path, work: Path, workload, seed: int):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.root = root
        self.work = work
        self.workload = workload
        self.options = RunOptions.from_argv(workload.options)
        corpus = generate(workload, seed)
        paths = corpus.write(work / "corpus")
        if workload.files_as_arguments:
            random.Random(f"{workload.name}/{seed}/argv").shuffle(paths)
            inputs = [str(p) for p in paths]
        else:
            inputs = [str(work / "corpus")]
        self.out = work / "out"
        self.argv = ["analyze", *inputs, *workload.options, "--out", str(self.out)]
        self.reference = build_reference(corpus.tokens, self.options)
        self.chars = sum(len(text) for text in corpus.texts)
        self.verified: set[str] = set()  # digests of outputs that passed check_outputs

    def spawn(self, argv: list[str], trace: bool = False) -> tuple[dict, subprocess.CompletedProcess]:
        """Run one worker to completion; returns its record and the finished process."""
        result_path = self.work / "worker.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), str(result_path), str(self.root / "src")]
        cmd += (["--trace"] if trace else []) + argv
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        try:
            record = json.loads(result_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            record = {}
        if "ready" in record:
            record["setup_s"] = record["ready"] - spawned
        return record, proc

    def setup_sample(self) -> float:
        record, proc = self.spawn([])
        if proc.returncode != 0 or "setup_s" not in record:
            raise RuntimeError(f"worker could not import stoplex.cli:\n{proc.stderr}")
        return record["setup_s"]

    def analyze(self, trace: bool) -> dict:
        """One checked analysis; the record's "error" is set when it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            record, proc = self.spawn(self.argv, trace)
        except subprocess.TimeoutExpired as exc:
            return {"error": f"killed after {exc.timeout:.0f} s"}
        record.pop("ready", None)
        error = None
        if proc.returncode != 0 or record.get("exit_code") != 0:
            error = f"exit {record.get('exit_code', proc.returncode)}: {proc.stderr.strip()[-500:]}"
        else:
            try:
                self.check(proc.stdout)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                error = f"check failed: {exc}"
        record["error"] = error
        return record

    def check(self, stdout: str) -> None:
        """Check this run's outputs; byte-identical repeats of checked outputs pass at once."""
        digest = hashlib.sha256(stdout.encode("utf-8"))
        for path in sorted(self.out.iterdir()):
            digest.update(f"{path.name}\0{path.stat().st_size}\0".encode("utf-8"))
            digest.update(path.read_bytes())
        key = digest.hexdigest()
        if key not in self.verified:
            check_outputs(self.out, self.reference, self.options, stdout)
            self.verified.add(key)


def measure(harness: Harness, seconds: float, trace: bool) -> tuple[list[float], list[dict]]:
    """Closed loop of one for `seconds` of checked analyses.

    Untraced, set-up samples are spread between the analyses; traced, none
    are taken, since no end-to-end metric is reported.
    """
    setup = [] if trace else [harness.setup_sample() for _ in range(SETUP_SPAWNS)]
    runs: list[dict] = []
    steps: list[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        if not trace:
            setup.append(harness.setup_sample())
        runs.append(harness.analyze(trace))
        steps.append(time.monotonic() - began)
        now = time.monotonic()
        if now > harness.deadline or now - start + statistics.median(steps) > seconds:
            return setup, runs


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(harness: Harness, setup: list[float], runs: list[dict], trace: bool) -> dict:
    if not trace:
        timed = [r for r in runs if "analyze_s" in r]
        # The fastest analysis, not the median: a host slow phase over part
        # of the run moves the median but not the fastest (README "Noise").
        analyze_s = min((r["analyze_s"] for r in timed), default=0.0)
        setup_s = setup + [r["setup_s"] for r in runs if "setup_s" in r]
        return {
            "analyze_s": analyze_s,
            "setup_s": _median(setup_s),
            "tokens_per_s": harness.reference.tokens / analyze_s if analyze_s else 0.0,
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
            "ok_share": sum(1 for r in runs if r["error"] is None) / len(runs),
        }
    per_run = [layer_metrics([Span(**s) for s in r["spans"]]) for r in runs if "spans" in r]
    return {name: _median([m[name] for m in per_run]) for name in PER_LAYER_UNITS}


def environment(root: Path, workload: str, seed: int | list[int], trace: bool) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stoplex" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/stoplex/cli.py not found", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=root / WORK_DIR))
    try:
        harness = Harness(root, work, workload, args.seed)
        setup, runs = measure(harness, args.seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = summarize(harness, setup, runs, trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    env = environment(root, workload.name, args.seed, trace)
    failed = sum(1 for r in runs if r["error"] is not None)
    ref = harness.reference
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"corpus: {ref.documents} documents, {ref.tokens} tokens, {ref.size} unique words, "
        f"{harness.chars} chars, k = {ref.k}; options: {' '.join(workload.options) or '(defaults)'}"
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if not trace:
        times = [r["analyze_s"] for r in runs if "analyze_s" in r]
        print(f"  analyze_s over the run: median {_median(times):.6g} s, max {max(times, default=0.0):.6g} s")
    print(
        f"  samples: {len(runs)} {'traced ' if trace else ''}analyses, "
        f"{len(setup) + len(runs)} set-ups; failed_share {failed / len(runs):g} ({failed}/{len(runs)})"
    )
    for r in runs:
        if r["error"]:
            print(f"  failed: {r['error']}")

    results = root / RESULTS_DIR
    results.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "workload": dataclasses.asdict(workload),
        "metrics": metrics,
        "setup_samples_s": setup,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
    }
    name = f"{workload.name}-seed{args.seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
