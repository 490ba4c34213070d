"""Reference results for a generated corpus, and the check of one run's outputs.

The reference is built from the generator's canonical token stream with
the formulas the stoplex modules document: first-appearance indices,
idf = ln(n/m), the average of per-document tf*idf through math.fsum,
fsum-normalized probabilities, fsum moments, ceil(fraction * N) candidates
with ties broken by (probability, total count, word). It imports nothing
from stoplex.

Floats are compared with the acceptance suite's tolerances (relative 1e-9,
absolute 1e-12). The candidate list must be exactly the ordered selection
implied by the run's own words.csv probabilities, and as a set it must
equal the reference selection; only words whose reference probability ties
with the threshold within tolerance may be swapped.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
ZERO_SKEW_EPS = 1e-9
WORDS_CSV_HEADER = ["word", "first_index", "doc_frequency", "idf", "weight", "probability"]


class CheckFailed(Exception):
    """A run's outputs disagree with the reference."""


@dataclass(frozen=True)
class RunOptions:
    fraction: str = "0.05"
    averaging: str = "all"
    xbar: str = "midpoint"
    zcrit: float = 1.96
    plots: bool = False
    order: str = "list"

    @classmethod
    def from_argv(cls, options: tuple[str, ...]) -> "RunOptions":
        values: dict = {}
        args = list(options)
        while args:
            flag = args.pop(0)
            if flag == "--plots":
                values["plots"] = True
            elif flag in ("--fraction", "--averaging", "--xbar", "--order"):
                values[flag[2:]] = args.pop(0)
            elif flag == "--zcrit":
                values["zcrit"] = float(args.pop(0))
            else:
                raise ValueError(f"unknown analyze option {flag!r}")
        return cls(**values)


@dataclass(frozen=True)
class Reference:
    documents: int
    tokens: int
    words: tuple[str, ...]  # first-appearance order
    doc_frequency: tuple[int, ...]
    total_count: tuple[int, ...]
    idf: tuple[float, ...]
    weight: tuple[float, ...]
    probability: tuple[float, ...]
    moments: dict
    k: int
    selection: tuple[str, ...]  # ordered candidate list

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def threshold(self) -> float:
        return self.probability[self.words.index(self.selection[-1])]


def build_reference(docs: tuple[tuple[str, ...], ...], options: RunOptions) -> Reference:
    """Reference statistics for documents given as canonical token tuples, in document order."""
    n = len(docs)
    slot: dict[str, int] = {}
    per_word_counts: list[list[int]] = []
    for tokens in docs:
        for word, count in Counter(tokens).items():  # first-occurrence order
            pos = slot.setdefault(word, len(slot))
            if pos == len(per_word_counts):
                per_word_counts.append([])
            per_word_counts[pos].append(count)
    words = tuple(slot)
    doc_frequency = tuple(len(c) for c in per_word_counts)
    total_count = tuple(sum(c) for c in per_word_counts)
    idf = tuple(0.0 if m == n else math.log(n / m) for m in doc_frequency)
    weight = tuple(
        math.fsum(c * w_idf for c in counts) / (n if options.averaging == "all" else m)
        for counts, w_idf, m in zip(per_word_counts, idf, doc_frequency)
    )
    weight_sum = math.fsum(weight)
    probability = tuple(w / weight_sum for w in weight)
    k = candidate_count(len(words), options.fraction)
    ranked = sorted(range(len(words)), key=lambda i: (probability[i], total_count[i], words[i]))
    return Reference(
        documents=n,
        tokens=sum(total_count),
        words=words,
        doc_frequency=doc_frequency,
        total_count=total_count,
        idf=idf,
        weight=weight,
        probability=probability,
        moments=moments(probability),
        k=k,
        selection=tuple(words[i] for i in ranked[:k]),
    )


def candidate_count(size: int, fraction: str) -> int:
    frac = Fraction(fraction)
    return -((-frac.numerator * size) // frac.denominator)


def moments(probability: tuple[float, ...]) -> dict:
    points = list(enumerate(probability, start=1))
    e1 = math.fsum(p * i for i, p in points)
    e2 = math.fsum(p * i**2 for i, p in points)
    e3 = math.fsum(p * i**3 for i, p in points)
    dispersion = math.fsum(p * (i - e1) ** 2 for i, p in points)
    sigma = math.sqrt(dispersion)
    mu3 = e3 - 3.0 * e1 * e2 + 2.0 * e1**3
    return {
        "expectation": e1,
        "dispersion": dispersion,
        "std_dev": sigma,
        "raw_moment_1": e1,
        "raw_moment_2": e2,
        "raw_moment_3": e3,
        "third_central_moment": mu3,
        "asymmetry": mu3 / sigma**3,
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_outputs(out_dir: Path, ref: Reference, options: RunOptions, stdout: str) -> None:
    """Raise CheckFailed unless the run's files in out_dir match the reference."""
    probability = _check_words_csv(out_dir / "words.csv", ref)
    selection = _check_stopwords(out_dir / "stopwords.txt", ref, probability)
    _check_report(out_dir / "report.json", ref, options, selection)
    for name in ("density.svg", "sorted.svg"):
        path = out_dir / name
        if options.plots:
            text = path.read_text(encoding="utf-8")
            _expect(
                text.startswith("<?xml") and text.endswith("</svg>\n"),
                f"{name} is not a complete SVG document",
            )
        else:
            _expect(not path.exists(), f"{name} written without --plots")
    first_line = stdout.splitlines()[0] if stdout else ""
    _expect(
        first_line == f"documents: {ref.documents}  unique words: {ref.size}  tokens: {ref.tokens}",
        f"unexpected summary line {first_line!r}",
    )


def _check_words_csv(path: Path, ref: Reference) -> list[float]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _expect(rows[:1] == [WORDS_CSV_HEADER], f"words.csv header is {rows[:1]}")
    rows = rows[1:]
    _expect(len(rows) == ref.size, f"words.csv has {len(rows)} rows, expected {ref.size}")
    probability = []
    for pos, row in enumerate(rows):
        word, first_index, df, idf, weight, p = row
        _expect(
            (word, int(first_index), int(df)) == (ref.words[pos], pos + 1, ref.doc_frequency[pos]),
            f"words.csv row {pos + 1} is {row[:3]}, expected "
            f"{[ref.words[pos], pos + 1, ref.doc_frequency[pos]]}",
        )
        for column, got, want in (
            ("idf", float(idf), ref.idf[pos]),
            ("weight", float(weight), ref.weight[pos]),
            ("probability", float(p), ref.probability[pos]),
        ):
            _expect(_close(got, want), f"words.csv {column} of {word!r} is {got!r}, expected {want!r}")
        probability.append(float(p))
    return probability


def _check_stopwords(path: Path, ref: Reference, probability: list[float]) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _expect(len(lines) == ref.k, f"stopwords.txt has {len(lines)} lines, expected k = {ref.k}")
    index = {w: i for i, w in enumerate(ref.words)}
    ranked = sorted(range(ref.size), key=lambda i: (probability[i], ref.total_count[i], ref.words[i]))
    implied = [ref.words[i] for i in ranked[: ref.k]]
    _expect(lines == implied, "stopwords.txt is not the selection its own words.csv implies")
    threshold = ref.threshold
    for word in set(lines) ^ set(ref.selection):
        _expect(
            _close(ref.probability[index[word]], threshold),
            f"stopwords.txt differs from the reference selection at {word!r}",
        )
    return lines


def _check_report(path: Path, ref: Reference, options: RunOptions, selection: list[str]) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    _expect(
        report["corpus"] == {"documents": ref.documents, "unique_words": ref.size, "tokens": ref.tokens},
        f"report.json corpus is {report['corpus']}",
    )
    for key, want in ref.moments.items():
        _expect(_close(report["moments"][key], want), f"report.json moments.{key} mismatch")
    stop = report["stopwords"]
    _expect(stop["count"] == ref.k, f"report.json stopwords.count is {stop['count']}, expected {ref.k}")
    _expect(_close(stop["fraction"], float(Fraction(options.fraction))), "report.json fraction mismatch")
    _expect(_close(stop["threshold"], ref.threshold), "report.json stopwords.threshold mismatch")

    e, sigma = ref.moments["expectation"], ref.moments["std_dev"]
    first_index = {w: i for i, w in enumerate(ref.words, start=1)}
    indices = [first_index[w] for w in selection]
    left = sum(1 for i in indices if i <= e - sigma)
    right = sum(1 for i in indices if i >= e + sigma)
    cov = report["coverage"]
    _expect(
        (cov["left"], cov["inside"], cov["right"]) == (left, len(indices) - left - right, right),
        f"report.json coverage is {cov}",
    )
    _expect(_close(cov["outside_fraction"], (left + right) / len(indices)), "outside_fraction mismatch")

    xbar = (ref.size + 1) / 2 if options.xbar == "midpoint" else math.fsum(indices) / len(indices)
    z = (xbar - e) / (sigma / math.sqrt(ref.size))
    side = "Left" if xbar <= e - sigma else "Right" if xbar >= e + sigma else "Inside"
    decision = "RetainH0" if side != "Inside" and abs(z) >= options.zcrit else "RejectH0"
    zt = report["z_test"]
    _expect(zt["n"] == ref.size and _close(zt["x_bar"], xbar) and _close(zt["z"], z), f"z_test is {zt}")
    _expect((zt["x_bar_side"], zt["decision"]) == (side, decision), f"z_test is {zt}")
    skew = ref.moments["asymmetry"]
    location = "Beginning" if skew < -ZERO_SKEW_EPS else "End" if skew > ZERO_SKEW_EPS else "BothEnds"
    _expect(report["verdict"]["location"] == location, f"verdict is {report['verdict']}")
    config = report["config"]
    _expect(
        (config["averaging"], config["xbar_mode"], config["plots"], config["order"])
        == (options.averaging, options.xbar, options.plots, options.order),
        f"report.json config is {config}",
    )
