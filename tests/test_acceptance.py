"""Acceptance suite: each criterion runs at a pinned tolerance and reports
one PASS/FAIL line in the terminal summary (see conftest)."""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from stoplex import (
    MomentSummary,
    RunConfig,
    apply_weights,
    build_lexicon,
    check_table_consistency,
    density,
    format_percent,
    interval_coverage,
    load_corpus,
    moment_summary,
    probabilities,
    run_pipeline,
    select_candidates,
    z_score,
)
from stoplex.cli import main

from conftest import (
    TOY_DIR,
    TOY_SOURCES,
    distribution,
    index_probabilities,
    make_lexicon,
    per_word,
    weighted_lexicon,
    word_rows,
)


def test_criterion_1_z_score_checkpoint(criterion):
    with criterion(1, "z_score(12837, 6419, 7076.62, 3461.419) = -21.526 +/- 0.005"):
        z = z_score(12837, 6419.0, 7076.62, 3461.419)
        assert z == pytest.approx(-21.526, abs=0.005)


def test_criterion_2_candidate_count_checkpoint(criterion):
    with criterion(2, "5% of any 12837-entry lexicon selects exactly 642 candidates"):
        uniform = make_lexicon([1 / 12837] * 12837)
        assert select_candidates(density(*uniform), 0.05).count == 642
        rng = np.random.default_rng(7)
        weights = rng.random(12837) + 1e-6
        random_lexicon = weighted_lexicon(weights.tolist())
        assert select_candidates(density(*random_lexicon), 0.05).count == 642


def test_criterion_3_coverage_checkpoint(criterion):
    with criterion(3, "coverage left=545 right=6 of 642 -> 0.8583 +/- 0.0005, shown as 85.8%"):
        indices = [10] * 545 + [7000] * 91 + [12500] * 6
        summary = MomentSummary(
            expectation=7076.62,
            dispersion=3461.419**2,
            std_dev=3461.419,
            raw_moment_1=7076.62,
            raw_moment_2=3461.419**2 + 7076.62**2,
            raw_moment_3=0.0,
            third_central_moment=0.0,
            asymmetry=0.0,
        )
        report = interval_coverage(indices, summary)
        assert (report.left_count, report.right_count) == (545, 6)
        assert report.total == 642
        assert report.outside_fraction == pytest.approx(0.8583, abs=5e-4)
        assert format_percent(report.outside_fraction) == "85.8%"


def test_criterion_4_table_consistency_audit(criterion):
    with criterion(4, "reported-table audit flags sigma^3 and E2; corrected values satisfy mu3 identity"):
        printed = MomentSummary(
            expectation=7076.623,
            dispersion=11981425.0,
            std_dev=3461.41,
            raw_moment_1=7076.623,
            raw_moment_2=602060020.0,
            raw_moment_3=598084106956.0,
            third_central_moment=-10667328016.0,
            asymmetry=-0.251,
        )
        flags = check_table_consistency(printed, sigma_cubed=414472396507.0)
        assert "std_dev_cubed" in flags  # printed sigma^3 is ~10x sigma cubed
        assert "dispersion" in flags  # printed E2 disagrees with D + E^2

        # derived corrections: E2 = D + E^2, sigma^3 = sigma cubed
        e2_corrected = printed.dispersion + printed.expectation**2
        assert e2_corrected == pytest.approx(6.206e7, rel=1e-3)
        sigma_cubed_corrected = printed.std_dev**3
        assert sigma_cubed_corrected == pytest.approx(4.147e10, rel=1e-3)
        corrected = MomentSummary(
            expectation=printed.expectation,
            dispersion=printed.dispersion,
            std_dev=printed.std_dev,
            raw_moment_1=printed.raw_moment_1,
            raw_moment_2=e2_corrected,
            raw_moment_3=printed.raw_moment_3,
            third_central_moment=printed.third_central_moment,
            asymmetry=printed.asymmetry,
        )
        corrected_flags = check_table_consistency(
            corrected, sigma_cubed=sigma_cubed_corrected, rel_tol=1e-3
        )
        assert "third_central_moment" not in corrected_flags
        recomputed_skew = printed.third_central_moment / sigma_cubed_corrected
        assert recomputed_skew == pytest.approx(-0.257, abs=0.01)


def test_criterion_5_toy_corpus_pipeline(criterion, tmp_path):
    with criterion(5, "toy corpus end to end: p=(0.375,0.25,0.375), E=2, D=0.75, A_s=0, BothEnds, <100ms"):
        config = RunConfig(inputs=(str(TOY_DIR),), fraction="0.4", output_dir=tmp_path)
        start = time.perf_counter()
        report = run_pipeline(config)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        lexicon = build_lexicon(load_corpus(TOY_SOURCES))
        probability = per_word(lexicon, probabilities(lexicon, apply_weights(lexicon)))
        assert list(probability) == pytest.approx([0.375, 0.25, 0.375], abs=1e-12)
        m = report.moments
        assert m.expectation == pytest.approx(2.0, abs=1e-12)
        assert m.dispersion == pytest.approx(0.75, abs=1e-12)
        assert m.third_central_moment == pytest.approx(0.0, abs=1e-12)
        assert m.asymmetry == pytest.approx(0.0, abs=1e-12)
        assert report.verdict.location.value == "BothEnds"
        assert report.stopwords.count == 2


def test_criterion_6_randomized_property_suite(criterion):
    with criterion(6, "1000 randomized trials: sum(p)=1, D and mu3 identities, symmetric and mirrored skew"):
        rng = np.random.default_rng(20240621)
        for _ in range(1000):
            # normalization through the weighting path
            n_weights = int(2 ** rng.uniform(0, 10))
            weights = rng.lognormal(mean=rng.uniform(-6, 6), sigma=2.0, size=n_weights)
            _, probability = weighted_lexicon(weights.tolist())
            assert abs(math.fsum(probability) - 1.0) <= 1e-12

            # moment identities on a random distribution, N <= 10^4
            n = min(int(2 ** rng.uniform(1, 13.2877)) + 1, 10**4)
            raw = rng.random(n) + 1e-9
            p = raw / raw.sum()
            dist = distribution(p.tolist())
            s = moment_summary(dist)
            assert abs(s.dispersion - (s.raw_moment_2 - s.raw_moment_1**2)) <= 1e-9 * max(
                1.0, s.raw_moment_2
            )
            direct = math.fsum(q * (i - s.expectation) ** 3 for i, q in enumerate(index_probabilities(dist), start=1))
            magnitude = math.fsum(q * abs(i - s.expectation) ** 3 for i, q in enumerate(index_probabilities(dist), start=1))
            assert abs(s.third_central_moment - direct) <= 1e-9 * max(
                1.0, abs(direct), magnitude
            )

            # symmetric distribution: zero skew
            sym = np.concatenate([raw, raw[::-1]])
            sym /= sym.sum()
            sym_summary = moment_summary(distribution(sym.tolist()))
            assert abs(sym_summary.asymmetry) <= 1e-9

            # mirrored distribution: negated skew
            mirrored = moment_summary(distribution(p[::-1].tolist()))
            assert mirrored.asymmetry == pytest.approx(-s.asymmetry, rel=1e-9, abs=1e-9)


def test_criterion_7_invariance_suite(criterion, tmp_path):
    with criterion(7, "duplication and scaling invariance; reruns byte-identical"):
        rng = np.random.default_rng(20220607)
        vocab = ["olma", "nok", "uzum", "anor", "bir", "ikki", "uch", "suv", "tosh", "til"]
        effective = 0
        for _ in range(100):
            n_docs = int(rng.integers(2, 6))
            sources = []
            for d in range(n_docs):
                words = rng.choice(vocab, size=rng.integers(1, 40))
                sources.append((f"d{d}", " ".join(words.tolist())))
            base = build_lexicon(load_corpus(sources))
            if all(e.doc_frequency == n_docs for e in base.entries):
                continue  # no tf-idf signal; duplication preserves the error too
            effective += 1
            base_w = apply_weights(base)
            base_p = probabilities(base, base_w)
            doubled_sources = [(f"{n}a", t) for n, t in sources] + [(f"{n}b", t) for n, t in sources]
            doubled = build_lexicon(load_corpus(doubled_sources))
            doubled_w = apply_weights(doubled)
            doubled_p = probabilities(doubled, doubled_w)
            for a, b in zip(word_rows(base, base_w, base_p), word_rows(doubled, doubled_w, doubled_p)):
                assert a.surface == b.surface
                assert a.idf == b.idf
                assert a.weight == b.weight
                assert a.probability == b.probability
            base_sel = select_candidates(density(base, base_p), 0.25)
            doubled_sel = select_candidates(density(doubled, doubled_p), 0.25)
            assert base_sel.words == doubled_sel.words

            # uniform weight scaling
            for scale in (0.125, 3.7, 1e5):
                scaled = weighted_lexicon([w * scale for w in per_word(base, apply_weights(base))])
                reference = weighted_lexicon(per_word(base, apply_weights(base)))
                for a, b in zip(reference[1], scaled[1]):
                    assert b == pytest.approx(a, abs=1e-12)
                reference_sel = select_candidates(density(*reference), 0.25)
                assert reference_sel.words == select_candidates(density(*scaled), 0.25).words
        assert effective >= 50

        # rerun determinism: byte-identical outputs
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        config1 = RunConfig(inputs=(str(TOY_DIR),), fraction="0.4", output_dir=out1, plots=True)
        config2 = RunConfig(inputs=(str(TOY_DIR),), fraction="0.4", output_dir=out2, plots=True)
        run_pipeline(config1)
        run_pipeline(config2)
        for name in ("stopwords.txt", "report.json", "words.csv", "density.svg", "sorted.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_criterion_8_tokenizer_conformance(criterion):
    from stoplex import tokenize

    with criterion(8, "example sentences tokenize as listed; apostrophes normalize; empty inputs"):
        assert tokenize("Men bu maqolani qiynalib yozdim") == [
            "men", "bu", "maqolani", "qiynalib", "yozdim",
        ]
        assert tokenize("Har bir inson baxtli bo’lishga haqlidir") == [
            "har", "bir", "inson", "baxtli", "boʻlishga", "haqlidir",
        ]
        for apostrophe in ("'", "’", "ʼ", "`"):
            assert tokenize(f"g{apostrophe}oya") == ["gʻoya"]
        assert tokenize("") == []
        assert tokenize(" \t\n") == []
        assert tokenize(".,;:!?()[]--42 1989 ***") == []


def test_criterion_9_cli_end_to_end(criterion, tmp_path, capsys):
    with criterion(9, "CLI analyze: exit 0, schema-valid report, 2-line stopwords, 4-line csv, SVGs, <1s"):
        out_dir = tmp_path / "out"
        start = time.perf_counter()
        code = main([
            "analyze", str(TOY_DIR), "--fraction", "0.4", "--out", str(out_dir), "--plots",
        ])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0
        summary = capsys.readouterr().out.splitlines()
        assert summary[3] == "zero-weight words: 0  below threshold: 1  tied at threshold: 2"

        stopwords = (out_dir / "stopwords.txt").read_text(encoding="utf-8")
        assert stopwords == "nok\nolma\n"
        assert len(stopwords.splitlines()) == 2

        csv_text = (out_dir / "words.csv").read_text(encoding="utf-8")
        assert len(csv_text.splitlines()) == 4

        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert set(report) == {
            "corpus", "moments", "stopwords", "coverage", "z_test", "verdict",
            "config", "version",
        }
        assert report["corpus"] == {"documents": 3, "unique_words": 3, "tokens": 8}
        assert report["stopwords"]["count"] == 2
        # p = (0.375, 0.25, 0.375): "nok" lies below the threshold, and the
        # tie-break picks "olma" from the two words tied at it
        assert report["stopwords"]["zero_weight_words"] == 0
        assert report["stopwords"]["below_threshold"] == 1
        assert report["stopwords"]["tied_at_threshold"] == 2
        assert report["verdict"]["location"] == "BothEnds"

        for name in ("density.svg", "sorted.svg"):
            root = ET.fromstring((out_dir / name).read_text(encoding="utf-8"))
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
            assert root.get("version") == "1.1"
