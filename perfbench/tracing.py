"""Timing wrappers installed from outside the program, and what they measure.

`install` replaces the module attributes `run_pipeline` looks up (the
`stoplex.report.<fn>` names it imported, `stoplex.corpus.tokenize`,
`AnalysisReport.to_json`) plus `stoplex.cli.main` and
`stoplex.cli.run_pipeline` with wrappers that record one span per call:
name, start, end and parent span. The spans in `RSS_SPANS` also record the
growth of the process's peak RSS (VmHWM) across the call. `restore` puts
the originals back. Names a future version no longer has are skipped, and
their metrics read 0.

Everything a wrapper does outside its span (bookkeeping, VmHWM reads,
counts taken from a call's arguments or result) is timed and stored as the
span's `overhead_s`. Self times exclude it, so the tracer's cost is charged
to `trace.overhead_s` and not to the calling layer.
"""

from __future__ import annotations

import importlib
import resource
import time
from dataclasses import dataclass, field

# The only spans whose RSS growth is reported; reading VmHWM costs a file read.
RSS_SPANS = frozenset({
    "corpus.load_corpus_from_paths",
    "corpus.build_lexicon",
    "weighting.apply_weights",
})


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    Linux keeps `ru_maxrss` across exec, so a child spawned by a large
    parent starts with the parent's peak; VmHWM belongs to the new image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _postings(lexicon) -> dict:
    return {
        "unique_words": lexicon.size,
        "postings": sum(e.doc_frequency for e in lexicon.entries),
    }


def _utf8_bytes(_args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute path, span name, counts taken from (args, result))
TARGETS = (
    ("stoplex.cli", "main", "cli.main", None),
    ("stoplex.cli", "run_pipeline", "report.run_pipeline", None),
    ("stoplex.report", "collect_input_files", "corpus.collect_input_files", None),
    ("stoplex.report", "load_corpus_from_paths", "corpus.load_corpus_from_paths",
     lambda args, corpus: {"documents": corpus.doc_count}),
    ("stoplex.corpus", "tokenize", "corpus.tokenize",
     lambda args, tokens: {"chars": len(args[0]), "tokens": len(tokens)}),
    ("stoplex.report", "build_lexicon", "corpus.build_lexicon",
     lambda args, lexicon: _postings(lexicon)),
    ("stoplex.report", "apply_weights", "weighting.apply_weights", None),
    ("stoplex.report", "probabilities", "weighting.probabilities", None),
    ("stoplex.report", "density", "moments.density", None),
    ("stoplex.report", "moment_summary", "moments.moment_summary", None),
    ("stoplex.report", "select_candidates", "selection.select_candidates",
     lambda args, stopwords: {"k": stopwords.count}),
    ("stoplex.report", "interval_coverage", "position.interval_coverage", None),
    ("stoplex.report", "sample_mean_for", "report.sample_mean_for", None),
    ("stoplex.report", "hypothesis_decision", "position.hypothesis_decision", None),
    ("stoplex.report", "location_verdict", "position.location_verdict", None),
    ("stoplex.report", "export_list", "selection.export_list", None),
    ("stoplex.report", "words_csv", "report.words_csv", _utf8_bytes),
    ("stoplex.report", "AnalysisReport.to_json", "report.to_json", None),
    ("stoplex.report", "emit_density_plot", "plots.emit_density_plot", _utf8_bytes),
    ("stoplex.report", "emit_sorted_plot", "plots.emit_sorted_plot", _utf8_bytes),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    overhead_s: float = 0.0
    rss_growth_mb: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; one tracer per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counts=None):
        read_rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = Span(name, self._open[-1] if self._open else None, 0.0)
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss = peak_rss_mb() if read_rss else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if read_rss:
                span.rss_growth_mb = peak_rss_mb() - rss
            if counts is not None:
                span.counts = counts(args, result)
            span.overhead_s = time.perf_counter() - entered - (span.end - span.start)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the span names skipped."""
        skipped = []
        for module_name, path, name, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                skipped.append(name)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counts))
        return skipped

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations and tracing overhead.

    These self times plus the `overhead_s` of every span but the root sum to
    the root span's duration.
    """
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start + span.overhead_s
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced analysis, keyed by metric name."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    rss: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span, self_time in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        self_s[span.name] = self_s.get(span.name, 0.0) + self_time
        rss[span.name] = rss.get(span.name, 0.0) + span.rss_growth_mb
        for key, value in span.counts.items():
            label = f"{span.name}.{key}"
            counts[label] = counts.get(label, 0) + value

    def t(name):
        return total.get(name, 0.0)

    tokenize_s = t("corpus.tokenize")
    chars = counts.get("corpus.tokenize.chars", 0)
    documents = counts.get("corpus.load_corpus_from_paths.documents", 0)
    unique = counts.get("corpus.build_lexicon.unique_words", 0)
    postings = counts.get("corpus.build_lexicon.postings", 0)
    return {
        "corpus.tokenize_s": tokenize_s,
        "corpus.tokenize_mchars_per_s": chars / tokenize_s / 1e6 if tokenize_s else 0.0,
        "corpus.read_decode_s": self_s.get("corpus.load_corpus_from_paths", 0.0),
        "corpus.load_rss_growth_mb": rss.get("corpus.load_corpus_from_paths", 0.0),
        "corpus.build_lexicon_s": t("corpus.build_lexicon"),
        "corpus.build_lexicon_rss_growth_mb": rss.get("corpus.build_lexicon", 0.0),
        "corpus.documents": documents,
        "corpus.tokens": counts.get("corpus.tokenize.tokens", 0),
        "corpus.chars": chars,
        "corpus.unique_words": unique,
        "corpus.postings_per_cell": postings / (unique * documents) if unique and documents else 0.0,
        "weighting.apply_weights_s": t("weighting.apply_weights"),
        "weighting.apply_weights_rss_growth_mb": rss.get("weighting.apply_weights", 0.0),
        "weighting.probabilities_s": t("weighting.probabilities"),
        "moments.density_s": t("moments.density"),
        "moments.moment_summary_s": t("moments.moment_summary"),
        "selection.select_candidates_s": t("selection.select_candidates"),
        "selection.k": counts.get("selection.select_candidates.k", 0),
        "position.interval_coverage_s": t("position.interval_coverage"),
        "position.hypothesis_decision_s": t("position.hypothesis_decision"),
        "report.words_csv_s": t("report.words_csv"),
        "report.words_csv_bytes": counts.get("report.words_csv.bytes", 0),
        "report.to_json_s": t("report.to_json"),
        "report.run_pipeline_self_s": self_s.get("report.run_pipeline", 0.0),
        "plots.emit_density_plot_s": t("plots.emit_density_plot"),
        "plots.emit_sorted_plot_s": t("plots.emit_sorted_plot"),
        "plots.svg_bytes": counts.get("plots.emit_density_plot.bytes", 0)
        + counts.get("plots.emit_sorted_plot.bytes", 0),
        "cli.main_self_s": self_s.get("cli.main", 0.0),
        "trace.overhead_s": sum(span.overhead_s for span in spans),
    }
