"""Pipeline orchestration: input files in, reports and plots out.

The run writes stopwords.txt, report.json and words.csv (plus two SVG
plots when enabled) into the output directory, all after computation has
finished. JSON numbers use Python's shortest round-trip float
representation, so reports diff byte-stably and reload losslessly.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ._version import __version__
from .corpus import ORDER_MODES, Lexicon, _check_profile_column, build_lexicon, collect_input_files
from .corpus import load_corpus_from_paths
from .errors import DomainError, EmptyCorpus, NonFinite, StoplexError
from .moments import MomentSummary, density, moment_summary
from .plots import emit_density_plot, emit_sorted_plot
from .position import (
    CoverageReport,
    LocationVerdict,
    ZTestResult,
    hypothesis_decision,
    interval_coverage,
    location_verdict,
)
from .selection import StopwordSet, _as_fraction, export_list, select_candidates
from .weighting import AveragingMode, apply_weights, inverse_document_frequency, probabilities

XBAR_MODES = ("midpoint", "candidates")


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on; the CLI's options and defaults are these fields.

    A bad value raises ValueError. Paths (str, bytes or os.PathLike) are
    kept as os.fsdecode's text, ``fraction`` as the exact Fraction of the
    decimal given (0.05 and "0.05" give 1/20), and ``z_critical`` as a float
    (2 and Fraction(2) give 2.0).
    """

    inputs: tuple[str, ...]
    fraction: Fraction | float | str = 0.05
    averaging: AveragingMode | str = AveragingMode.ALL_DOCS
    xbar_mode: str = "midpoint"
    z_critical: float = 1.96
    output_dir: str | Path = "."
    plots: bool = False
    order: str = "list"

    def __post_init__(self):
        if isinstance(self.inputs, (str, bytes, os.PathLike)):
            raise ValueError(f"inputs must be a sequence of paths, not one path: {self.inputs!r}")
        inputs = tuple(self.inputs)
        for path in (*inputs, self.output_dir):
            if not isinstance(path, (str, bytes, os.PathLike)):
                raise ValueError(f"a path must be str, bytes or os.PathLike, got {path!r}")
        object.__setattr__(self, "inputs", tuple(map(os.fsdecode, inputs)))
        object.__setattr__(self, "output_dir", os.fsdecode(self.output_dir))
        object.__setattr__(self, "averaging", AveragingMode(self.averaging))
        try:
            frac = _as_fraction(self.fraction)
        except DomainError as exc:
            raise ValueError(str(exc)) from None
        # the report echoes float(frac), so that value must lie in (0, 1) too
        if not (0 < frac < 1 and 0.0 < float(frac) < 1.0):
            raise ValueError(f"fraction must lie in (0, 1), got {self.fraction!r}")
        object.__setattr__(self, "fraction", frac)
        z = self.z_critical  # the run reads float(z), so z must neither overflow nor round to 0.0
        if isinstance(z, bool) or not isinstance(z, Real) or not 0 < z <= sys.float_info.max or float(z) == 0:
            raise ValueError(f"z_critical must be a finite real number > 0, got {z!r}")
        object.__setattr__(self, "z_critical", float(z))
        if not isinstance(self.plots, bool):
            raise ValueError(f"plots must be True or False, got {self.plots!r}")
        if self.xbar_mode not in XBAR_MODES:
            raise ValueError(f"xbar_mode must be one of {XBAR_MODES}, got {self.xbar_mode!r}")
        if self.order not in ORDER_MODES:
            raise ValueError(f"order must be one of {ORDER_MODES}, got {self.order!r}")


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated results of one pipeline run."""

    doc_count: int
    unique_words: int
    token_total: int
    moments: MomentSummary
    stopwords: StopwordSet
    coverage: CoverageReport
    z_test: ZTestResult
    verdict: LocationVerdict
    config: RunConfig
    version: str = __version__

    def to_dict(self) -> dict:
        """Report as a JSON-ready dict with a fixed key layout."""
        m = self.moments
        data = {
            "corpus": {
                "documents": self.doc_count,
                "unique_words": self.unique_words,
                "tokens": self.token_total,
            },
            "moments": {
                "expectation": m.expectation,
                "dispersion": m.dispersion,
                "std_dev": m.std_dev,
                "raw_moment_1": m.raw_moment_1,
                "raw_moment_2": m.raw_moment_2,
                "raw_moment_3": m.raw_moment_3,
                "third_central_moment": m.third_central_moment,
                "asymmetry": m.asymmetry,
            },
            "stopwords": {
                "fraction": self.stopwords.fraction,
                "count": self.stopwords.count,
                "threshold": self.stopwords.threshold,
                "zero_weight_words": self.stopwords.zero_weight_words,
                "below_threshold": self.stopwords.below_threshold,
                "tied_at_threshold": self.stopwords.tied_at_threshold,
            },
            "coverage": {
                "left": self.coverage.left_count,
                "inside": self.coverage.inside_count,
                "right": self.coverage.right_count,
                "outside_fraction": self.coverage.outside_fraction,
            },
            "z_test": {
                "n": self.z_test.n_unique,
                "x_bar": self.z_test.sample_mean,
                "z": self.z_test.z,
                "critical": self.z_test.critical,
                "x_bar_side": self.z_test.xbar_side.value,
                "decision": self.z_test.decision.value,
            },
            "verdict": {
                "asymmetry": self.verdict.asymmetry,
                "location": self.verdict.location.value,
            },
            "config": {
                "inputs": list(self.config.inputs),
                "fraction": float(self.config.fraction),
                "averaging": self.config.averaging.value,
                "xbar_mode": self.config.xbar_mode,
                "z_critical": self.config.z_critical,
                "plots": self.config.plots,
                "order": self.config.order,
            },
            "version": self.version,
        }
        _require_finite(data)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2) + "\n"


def _require_finite(node, path="report") -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            _require_finite(value, f"{path}[{pos}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise NonFinite(f"{path} is {node!r}")


@contextmanager
def _stage(name: str):
    """Tag any StoplexError or OSError escaping the block with the stage name."""
    try:
        yield
    except (StoplexError, OSError) as exc:
        exc.stage = name
        raise


def sample_mean_for(xbar_mode: str, lexicon_size: int, first_indices: Sequence[int]) -> float:
    """X-bar for the Z test: index-range midpoint, or the candidates' mean first index.

    Raises DomainError for a mode outside XBAR_MODES, and for the
    candidates' mean of no first indices.
    """
    if xbar_mode not in XBAR_MODES:
        raise DomainError(f"xbar_mode must be one of {XBAR_MODES}, got {xbar_mode!r}")
    if xbar_mode == "midpoint":
        return (lexicon_size + 1) / 2
    if not first_indices:
        raise DomainError("the candidates' mean first index needs at least one candidate")
    return math.fsum(first_indices) / len(first_indices)


# rows per words.csv chunk (~80 bytes each on Uzbek text): a run holds one
# batch of rows, never the whole file, whose size grows with N
_WORDS_CSV_BATCH = 4096


def _needs_quotes(text: str) -> bool:
    """Whether csv.writer's minimal quoting with a "\n" line end quotes a field holding ``text``."""
    return "," in text or '"' in text or "\n" in text


def _csv_field(text: str) -> str:
    """A CSV field as csv.writer's minimal quoting with a "\n" line end writes it."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def words_csv(lexicon: Lexicon, weight: Sequence[float], probability: Sequence[float]) -> str:
    """CSV word table in first_index order; floats use repr round-tripping.

    It is the text of the batches that runs stream to words.csv, joined.
    Raises DomainError unless there is one weight and one probability per profile.
    """
    return "".join(_words_csv_chunks(lexicon, weight, probability))


def _words_csv_chunks(lexicon: Lexicon, weight: Sequence[float], probability: Sequence[float]) -> Iterator[str]:
    """The words.csv text as its header, then one str per batch of _WORDS_CSV_BATCH rows.

    The doc_frequency, idf, weight and probability fields depend only on
    the word's count profile, so their text is rendered once per profile,
    here at call time: a column of the wrong length raises DomainError
    before any chunk is taken. Whether a surface needs quoting is checked
    once per batch, on the batch's surfaces joined, and per surface only in
    a batch where some surface does.
    """
    _check_profile_column(lexicon, weight, "weight")
    _check_profile_column(lexicon, probability, "probability")
    numbers = [
        f"{m},{inverse_document_frequency(lexicon.doc_count, m)!r},{w!r},{p!r}\n"
        for m, w, p in zip(lexicon.doc_frequency, weight, probability)
    ]

    def chunks() -> Iterator[str]:
        yield "word,first_index,doc_frequency,idf,weight,probability\n"
        surfaces, profile_ids = lexicon.surfaces, lexicon.profile_ids
        for start in range(0, len(surfaces), _WORDS_CSV_BATCH):
            stop = start + _WORDS_CSV_BATCH
            fields = surfaces[start:stop]
            if _needs_quotes("".join(fields)):
                fields = map(_csv_field, fields)
            rows = zip(range(start + 1, stop + 1), fields, profile_ids[start:stop])
            yield "".join([f"{surface},{first_index},{numbers[pid]}" for first_index, surface, pid in rows])

    return chunks()


def run_pipeline(config: RunConfig) -> AnalysisReport:
    """Execute the full analysis and write the output files.

    Stages run in a fixed order; any stage error carries the stage name in
    its ``stage`` attribute. Output is all or nothing: each file is streamed
    to a temporary file in the output directory, words.csv in batches of
    rows and the others whole, and only when every one is written do they
    replace the final names. A failed run leaves earlier outputs as they
    were and no temporary files, and removes the directories it created.
    An output directory that cannot be made (a file sits where one of its
    directories should be), or a directory at an output name, fails before
    any work is done.
    """
    with _stage("output_dir"):
        _check_output_dir(Path(config.output_dir), _output_names(config))
    with _stage("load_corpus"):
        files = collect_input_files(config.inputs, config.order)
        corpus = load_corpus_from_paths(files)
        if corpus.token_total == 0:
            raise EmptyCorpus("no document holds a word")
    token_total = corpus.token_total
    with _stage("build_lexicon"):
        lexicon = build_lexicon(corpus)
    del corpus  # later stages read only the lexicon; this frees the corpus's dict of pairs
    with _stage("weights"):
        weight = apply_weights(lexicon, config.averaging)
    with _stage("probabilities"):
        probability = probabilities(lexicon, weight)
    with _stage("density"):
        dist = density(lexicon, probability)
    with _stage("moment_summary"):
        summary = moment_summary(dist)
    with _stage("select_candidates"):
        stopwords = select_candidates(lexicon, probability, config.fraction)
    with _stage("interval_coverage"):
        coverage = interval_coverage(stopwords.first_indices, summary)
    with _stage("z_test"):
        xbar = sample_mean_for(config.xbar_mode, lexicon.size, stopwords.first_indices)
        z_result = hypothesis_decision(lexicon.size, xbar, summary, config.z_critical)
    with _stage("verdict"):
        verdict = location_verdict(summary.asymmetry)

    report = AnalysisReport(
        doc_count=lexicon.doc_count,
        unique_words=lexicon.size,
        token_total=token_total,
        moments=summary,
        stopwords=stopwords,
        coverage=coverage,
        z_test=z_result,
        verdict=verdict,
        config=config,
    )

    renderers = {
        "stopwords.txt": lambda: (export_list(stopwords),),
        "report.json": lambda: (report.to_json(),),
        "words.csv": lambda: _words_csv_chunks(lexicon, weight, probability),
        "density.svg": lambda: (emit_density_plot(dist, stopwords.first_indices, summary),),
        "sorted.svg": lambda: (emit_sorted_plot(dist, stopwords.count),),
    }
    with _stage("write_outputs"):
        _write_all(Path(config.output_dir), [(name, renderers[name]) for name in _output_names(config)])
    return report


def _check_output_dir(out_dir: Path, names: Iterable[str]) -> None:
    """Raise NotADirectoryError unless the nearest existing one of ``out_dir`` and its parents is a directory.

    A dangling symlink counts as existing, since no directory can be made
    where it sits. Raise IsADirectoryError when one of ``names`` in
    ``out_dir`` is a directory and not a symlink (os.replace replaces a
    link itself), so that no rename fails after others have replaced their
    files. It creates nothing, so a run that fails later leaves no output
    directory.
    """
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists() or d.is_symlink())
    if not existing.is_dir():
        raise NotADirectoryError(f"cannot make output directory {out_dir}: {existing} is not a directory")
    for path in map(out_dir.joinpath, names):
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(f"cannot write output {path}: it is a directory")


def _output_names(config: RunConfig) -> tuple[str, ...]:
    """The files a run with this config writes, in writing order."""
    names = ("stopwords.txt", "report.json", "words.csv")
    return names + ("density.svg", "sorted.svg") if config.plots else names


def _write_all(out_dir: Path, outputs: list[tuple[str, Callable[[], Iterable[str]]]]) -> None:
    """Render and write every (file name, renderer) output, or none of them.

    A renderer returns its output as str chunks. Each chunk goes to a
    temporary file in ``out_dir`` as soon as it is rendered, so one chunk is
    held at a time: a batch of words.csv rows, or a whole smaller file. The
    temporary files replace the final names only after all of them are
    written. On failure they are deleted, and so are the directories this
    call created.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[tuple[Path, Path]] = []
    try:
        for name, render in outputs:
            temp = out_dir / f".{name}.{os.getpid()}.tmp"
            written.append((temp, out_dir / name))
            with open(temp, "w", encoding="utf-8") as handle:
                handle.writelines(render())
        for temp, final in written:
            os.replace(temp, final)
    except BaseException:
        for temp, _ in written:
            temp.unlink(missing_ok=True)
        with suppress(OSError):  # not empty if a replace failed midway
            for directory in made:
                directory.rmdir()
        raise


def format_percent(fraction: float) -> str:
    """Human-readable percentage with one decimal, e.g. 0.858255 -> '85.8%'."""
    return f"{100.0 * fraction:.1f}%"
