"""Whole runs of `stoplex analyze` against the benchmark's stoplex-free reference.

Small corpora and every option value are drawn at random. The reference
(perfbench/check.py, loaded by path and only read) is fed the tokens of
tests/scanner_oracle.py, never those of stoplex.tokenize, so a fault in any
stage, the tokenizer included, shows as a mismatch of the run's outputs.
"""

import dataclasses
import importlib.util
import json
import math
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from hypothesis import Phase, example, given, settings, strategies as st

import scanner_oracle
from stoplex.cli import main

_CHECK_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
_spec = importlib.util.spec_from_file_location("perfbench_check", _CHECK_PATH)
check = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = check  # dataclasses resolve the module's string annotations through sys.modules
_spec.loader.exec_module(check)

# "42" and "!!" hold no word; "O'zbek" and "O’zbek" are one word, "½x" is the word "x"
ASCII_PIECES = ("O'zbek", "olma", "nok", "OLMA", "42", "!!")
PIECES = ASCII_PIECES + ("O’zbek", "gʻoya", "CAFÉ", "café", "İz", "½x")

# each document is all ASCII, which takes the tokenizer's ASCII path, or mixed
document = st.lists(st.sampled_from(ASCII_PIECES), max_size=12) | st.lists(st.sampled_from(PIECES), max_size=12)
documents = st.lists(document, min_size=2, max_size=5)
options = st.builds(
    check.RunOptions,
    fraction=st.integers(1, 999).map(lambda n: str(n / 1000)),
    averaging=st.sampled_from(["all", "containing"]),
    xbar=st.sampled_from(["midpoint", "candidates"]),
    zcrit=st.sampled_from([0.5, 1.96, 3.0, 40.0]),
    plots=st.booleans(),
    order=st.sampled_from(["list", "lexicographic"]),
)


def _argv(opts) -> list[str]:
    """The analyze options that ``opts`` stands for."""
    argv = [
        "--fraction", opts.fraction, "--averaging", opts.averaging, "--xbar", opts.xbar,
        "--zcrit", repr(opts.zcrit), "--order", opts.order,
    ]
    return argv + ["--plots"] if opts.plots else argv


def _degenerate(docs: list[tuple[str, ...]]) -> bool:
    """True when at most one word has weight: every other word is in every document."""
    doc_frequency = Counter(word for tokens in docs for word in set(tokens))
    return sum(m < len(docs) for m in doc_frequency.values()) <= 1


def _exact_probabilities(ref, averaging: str) -> list[float]:
    """The reference's probabilities with each weight's sum of count * idf taken exactly, rounded once.

    That is idf times the total count, as stoplex weighs a word. check.py
    rounds each document's count * idf before it sums them, which can set
    two words with one doc frequency and one total an ulp apart.
    """
    weight = [
        float(Fraction(idf) * total) / (ref.documents if averaging == "all" else m)
        for idf, total, m in zip(ref.idf, ref.total_count, ref.doc_frequency)
    ]
    weight_sum = math.fsum(weight)
    return [w / weight_sum for w in weight]


def _exact_moments(probability: list[float]) -> dict:
    """The moments check.py reports, with E1-E3 and D as exact sums, each rounded once.

    That is how stoplex defines them, D about the float E1. check.py rounds
    each p * i**k before its fsum, which can move E or sigma by an ulp and
    put an index on the other side of E - sigma or E + sigma.
    """
    points = [(i, Fraction(p)) for i, p in enumerate(probability, start=1)]
    e1, e2, e3 = (float(sum(p * i**k for i, p in points)) for k in (1, 2, 3))
    dispersion = float(sum(p * (i - Fraction(e1)) ** 2 for i, p in points))
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


# "oʻzbek" counts (3, 2) and "olma" (1, 4): one doc frequency and one total, so the two tie
TIED_PAIR = [[], [], ["O'zbek", "O'zbek", "O'zbek", "olma"], ["O'zbek", "O'zbek", "olma", "olma", "olma", "olma"]]


# no explain phase: after shrinking a failure it re-runs whole analyses while
# it varies each part of the example, which under -X dev made a failing run
# take six to seven times as long and over 1 GB of memory
@settings(
    max_examples=300,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink),
)
@given(documents, st.permutations(range(5)), options)
@example(TIED_PAIR, [0, 1, 2, 3, 4], check.RunOptions(fraction="0.001", zcrit=0.5))
@example(TIED_PAIR, [0, 1, 2, 3, 4], check.RunOptions(fraction="0.501", zcrit=0.5))
# p = (0.4, 0.3, 0.2, 0.1) rounded: the exact E and sigma put index 1 just inside
# E - sigma, where check.py's rounded products put it on the edge
@example(
    [[], ["gʻoya", "O'zbek", "O'zbek", "O'zbek", "olma", "olma", "nok", "gʻoya", "gʻoya", "gʻoya"]],
    [0, 1, 2, 3, 4],
    check.RunOptions(fraction="0.751", averaging="all", xbar="midpoint", zcrit=0.5),
)
def test_analyze_matches_the_reference(pieces, shuffle, opts):
    texts = [" ".join(doc) for doc in pieces]
    names = [f"doc{i}.txt" for i in range(len(texts))]
    passed = [i for i in shuffle if i < len(texts)]  # the files in shuffled order
    read = sorted(passed, key=names.__getitem__) if opts.order == "lexicographic" else passed
    docs = [tuple(scanner_oracle.tokenize(texts[i])) for i in read]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in zip(names, texts):
            (root / name).write_text(text, encoding="utf-8")
        out = root / "out"
        stdout = StringIO()
        with redirect_stdout(stdout):
            code = main(["analyze", *(str(root / names[i]) for i in passed), *_argv(opts), "--out", str(out)])

        if not any(docs):
            assert code == 2
        elif _degenerate(docs):
            assert code == 3
        else:
            assert code == 0
            ref = check.build_reference(tuple(docs), opts)
            probability = _exact_probabilities(ref, opts.averaging)
            exact = dataclasses.replace(ref, moments=_exact_moments(probability))
            check.check_outputs(out, exact, opts, stdout.getvalue())
            counts = json.loads((out / "report.json").read_text(encoding="utf-8"))["stopwords"]
            threshold = sorted(probability)[ref.k - 1]
            assert counts["zero_weight_words"] == sum(w == 0.0 for w in ref.weight)
            assert counts["below_threshold"] == sum(p < threshold for p in probability)
            assert counts["tied_at_threshold"] == sum(p == threshold for p in probability)
        if code:
            assert not out.exists()
