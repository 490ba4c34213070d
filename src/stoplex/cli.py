"""Command line interface.

Exit codes: 0 success; 2 bad option values, input that is missing,
unreadable, undecodable or empty (no file, or no word), an output
directory that cannot be made, or an input that is one of the run's
outputs; 3 degenerate corpora (no tf-idf signal or zero variance); 1 any
other stoplex error, such as a renderer failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .corpus import ORDER_MODES, _blocks, _decode, tokenize
from .errors import (
    AllZeroWeights,
    DecodeError,
    DegenerateDistribution,
    EmptyCorpus,
    StoplexError,
)
from .report import (
    XBAR_MODES,
    AnalysisReport,
    RunConfig,
    _output_names,
    format_percent,
    run_pipeline,
)
from .weighting import AveragingMode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoplex",
        description="Detect stop-word candidates in a document corpus via tf-idf "
        "and analyze where they fall in the text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each analyze option's dest is the RunConfig field it sets; the defaults are RunConfig's.
    analyze = sub.add_parser("analyze", help="run the full analysis on files or directories")
    analyze.add_argument("inputs", nargs="+", help="text files and/or directories of text files")
    analyze.add_argument("--fraction", help="selection fraction in (0,1), default %(default)s")
    analyze.add_argument(
        "--averaging", choices=[m.value for m in AveragingMode],
        help="average tf-idf over all documents or only containing ones",
    )
    analyze.add_argument(
        "--xbar", dest="xbar_mode", choices=XBAR_MODES,
        help="sample mean for the Z test: index-range midpoint or candidate mean",
    )
    analyze.add_argument(
        "--zcrit", dest="z_critical", metavar="ZCRIT", type=float, help="critical Z value, default %(default)s"
    )
    analyze.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory, default current")
    analyze.add_argument("--plots", action="store_true", help="also write density.svg and sorted.svg")
    analyze.add_argument(
        "--order", choices=ORDER_MODES, help="document order: as given, or re-sorted by file name"
    )
    analyze.set_defaults(func=_cmd_analyze, **RunConfig._field_defaults)

    tok = sub.add_parser("tokenize", help="print the tokens of one file, one per line")
    tok.add_argument("file")
    tok.set_defaults(func=_cmd_tokenize)

    ver = sub.add_parser("version", help="print the tool version")
    ver.set_defaults(func=_cmd_version)
    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = run_pipeline(RunConfig(**{name: getattr(args, name) for name in RunConfig._fields}))
    _print_summary(report)
    return 0


def _print_summary(report: AnalysisReport) -> None:
    m = report.moments
    cov = report.coverage
    zt = report.z_test
    print(f"documents: {report.doc_count}  unique words: {report.unique_words}  tokens: {report.token_total}")
    print(f"expectation: {m.expectation:.6g}  std dev: {m.std_dev:.6g}  asymmetry: {m.asymmetry:.6g}")
    print(
        f"candidates: {report.stopwords.count} "
        f"(fraction {report.stopwords.fraction:.6g}, threshold {report.stopwords.threshold:.6g})"
    )
    print(
        f"zero-weight words: {report.stopwords.zero_weight_words}  "
        f"below threshold: {report.stopwords.below_threshold}  "
        f"tied at threshold: {report.stopwords.tied_at_threshold}"
    )
    print(
        f"outside (E-sigma, E+sigma): {format_percent(cov.outside_fraction)} "
        f"(left {cov.left_count}, inside {cov.inside_count}, right {cov.right_count})"
    )
    print(
        f"z-test: Z = {zt.z:.6g} (critical {zt.critical:.6g}, x-bar {zt.sample_mean:.6g} "
        f"is {zt.xbar_side.value}) -> {zt.decision.value}"
    )
    print(f"location verdict: {report.verdict.location.value}")
    out_dir = Path(report.config.output_dir)
    print("wrote: " + ", ".join(str(out_dir / name) for name in _output_names(report.config)))


def _cmd_tokenize(args: argparse.Namespace) -> int:
    path = Path(args.file)
    for block in _blocks(_decode(path.stem, path.read_bytes())):
        for token in tokenize(block):
            print(token)
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    print(f"stoplex {__version__}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EmptyCorpus, DecodeError, OSError, ValueError) as exc:  # bad input, output or option value
        return _fail(exc, 2)
    except (AllZeroWeights, DegenerateDistribution) as exc:
        return _fail(exc, 3)
    except StoplexError as exc:
        return _fail(exc, 1)


def _fail(exc: Exception, code: int) -> int:
    """Print ``exc`` to stderr, prefixed with its stage when it has one, and return ``code``."""
    stage = getattr(exc, "stage", None)
    prefix = f"stoplex: [{stage}] " if stage else "stoplex: "
    print(f"{prefix}{exc}", file=sys.stderr)
    return code
