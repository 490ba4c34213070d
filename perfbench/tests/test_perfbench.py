"""Tests of the benchmark harness itself, on scaled-down workloads.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import stoplex.cli  # noqa: E402
from check import CheckFailed, RunOptions, build_reference, check_outputs  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, Harness  # noqa: E402
from stoplex.corpus import tokenize  # noqa: E402
from tracing import TARGETS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS, generate, scaled  # noqa: E402

SMALL = {name: scaled(w, 0.02) for name, w in WORKLOADS.items()}


def _analyze(workload, seed, tmp_path: Path, out_name: str, tracer: Tracer | None = None):
    corpus = generate(workload, seed)
    paths = corpus.write(tmp_path / "corpus")
    out = tmp_path / out_name
    argv = ["analyze", *map(str, paths), *workload.options, "--out", str(out)]
    stdout = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(stdout):
            code = stoplex.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.restore()
    assert code == 0
    return corpus, out, stdout.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first = generate(SMALL[name], 7)
    assert generate(SMALL[name], 7) == first
    assert generate(SMALL[name], 8).texts != first.texts


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generated_text_tokenizes_to_the_canonical_stream(name):
    corpus = generate(SMALL[name], 3)
    for text, tokens in zip(corpus.texts, corpus.tokens):
        assert tuple(tokenize(text)) == tokens


def test_uz_text_carries_the_unicode_cases():
    text = "".join(generate(scaled(WORKLOADS["uz-wide"], 0.2), 1).texts)
    for needle in ("'", "’", "ʼ", "`", "ʻ", "''", "İ", "́", "½", "Ⅻ", "1987"):
        assert needle in text
    assert any(word.isupper() and len(word) > 2 for word in text.split())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_accepts_a_correct_run(name, tmp_path):
    workload = SMALL[name]
    corpus, out, stdout = _analyze(workload, 5, tmp_path, "out")
    options = RunOptions.from_argv(workload.options)
    check_outputs(out, build_reference(corpus.tokens, options), options, stdout)


def test_check_rejects_a_dropped_stopword_and_a_perturbed_probability(tmp_path):
    workload = SMALL["long-docs"]
    corpus, out, stdout = _analyze(workload, 5, tmp_path, "out")
    options = RunOptions.from_argv(workload.options)
    ref = build_reference(corpus.tokens, options)

    stopwords = out / "stopwords.txt"
    original = stopwords.read_text(encoding="utf-8")
    stopwords.write_text("".join(original.splitlines(keepends=True)[:-1]), encoding="utf-8")
    with pytest.raises(CheckFailed, match="stopwords.txt"):
        check_outputs(out, ref, options, stdout)
    stopwords.write_text(original, encoding="utf-8")

    words = out / "words.csv"
    lines = words.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[10].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))
    lines[10] = ",".join(cells) + "\n"
    words.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CheckFailed, match="probability"):
        check_outputs(out, ref, options, stdout)


def _current(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def test_wrappers_restore_originals():
    originals = [_current(module, path) for module, path, _, _ in TARGETS]
    tracer = Tracer()
    assert tracer.install() == []
    wrapped = [_current(module, path) for module, path, _, _ in TARGETS]
    assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    tracer.restore()
    assert all(_current(module, path) is o for (module, path, _, _), o in zip(TARGETS, originals))


def test_traced_and_untraced_runs_write_identical_outputs(tmp_path):
    workload = SMALL["uz-wide"]
    _, plain, plain_stdout = _analyze(workload, 2, tmp_path, "plain")
    tracer = Tracer()
    _, traced, traced_stdout = _analyze(workload, 2, tmp_path, "traced", tracer)
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    assert len(names) == 5
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    assert plain_stdout.replace("plain", "traced") == traced_stdout


def test_span_self_times_sum_to_the_root_duration(tmp_path):
    tracer = Tracer()
    _analyze(SMALL["uz-wide"], 4, tmp_path, "out", tracer)
    spans = tracer.spans
    root = spans[0]
    assert root.name == "cli.main" and root.parent is None
    assert all(s.parent is not None for s in spans[1:])
    overhead = sum(s.overhead_s for s in spans[1:])
    assert math.isclose(sum(self_times(spans)) + overhead, root.end - root.start, abs_tol=1e-9)
    metrics = layer_metrics(spans)
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["corpus.documents"] == SMALL["uz-wide"].docs
    assert metrics["corpus.tokens"] == SMALL["uz-wide"].tokens
    assert metrics["plots.svg_bytes"] > 0 and metrics["selection.k"] > 0
    assert 0 < metrics["corpus.postings_per_cell"] <= 1


def test_tracer_work_is_charged_to_overhead_not_to_the_caller():
    def slow_counts(_args, _result):
        time.sleep(0.05)
        return {}

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None, slow_counts)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    own = self_times(tracer.spans)
    assert own[0] < 0.01
    assert layer_metrics(tracer.spans)["trace.overhead_s"] >= 0.15


def test_harness_runs_checked_analyses_in_child_processes(tmp_path):
    harness = Harness(ROOT, tmp_path, SMALL["many-docs"], 1)
    assert 0 < harness.setup_sample() < 30
    plain = harness.analyze(trace=False)
    assert plain["error"] is None and plain["peak_rss_mb"] > 0
    traced = harness.analyze(trace=True)
    assert traced["error"] is None and traced["skipped_spans"] == []
    assert layer_metrics([Span(**s) for s in traced["spans"]])["corpus.documents"] == 20


def test_harness_checks_a_changed_output_again(tmp_path):
    harness = Harness(ROOT, tmp_path, SMALL["long-docs"], 2)
    shutil.rmtree(harness.out, ignore_errors=True)
    _, proc = harness.spawn(harness.argv)
    harness.check(proc.stdout)
    harness.check(proc.stdout)
    assert len(harness.verified) == 1
    stopwords = harness.out / "stopwords.txt"
    stopwords.write_text("".join(stopwords.read_text(encoding="utf-8").splitlines(True)[1:]), encoding="utf-8")
    with pytest.raises(CheckFailed, match="stopwords.txt"):
        harness.check(proc.stdout)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
