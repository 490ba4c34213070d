import random
import time
import tracemalloc
import xml.etree.ElementTree as ET

import stoplex.plots
from stoplex import (
    IndexDistribution,
    apply_weights,
    build_lexicon,
    density,
    emit_density_plot,
    emit_sorted_plot,
    load_corpus,
    moment_summary,
    probabilities,
    select_candidates,
)

from conftest import TOY_SOURCES, eight_profile_corpus, make_lexicon, stopword_set

SVG_NS = "{http://www.w3.org/2000/svg}"


def toy_parts():
    lexicon = probabilities(apply_weights(build_lexicon(load_corpus(TOY_SOURCES))))
    dist = density(lexicon)
    return lexicon, dist, moment_summary(dist), select_candidates(lexicon, 0.4)


def by_class(svg: str) -> dict[str, int]:
    root = ET.fromstring(svg)
    counts: dict[str, int] = {}
    for element in root.iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def test_density_plot_structure():
    _, dist, summary, selected = toy_parts()
    svg = emit_density_plot(dist, selected, summary)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    counts = by_class(svg)
    assert counts.get("word", 0) + counts.get("stopword", 0) == 3
    assert counts.get("stopword", 0) >= 1
    assert counts.get("ref", 0) == 3


def test_density_plot_empty_candidates():
    _, dist, summary, _ = toy_parts()
    empty = stopword_set()
    counts = by_class(emit_density_plot(dist, empty, summary))
    assert counts.get("stopword", 0) == 0
    assert counts.get("word", 0) == 3
    assert counts.get("ref", 0) == 3


def test_density_plot_axis_labels():
    _, dist, summary, selected = toy_parts()
    svg = emit_density_plot(dist, selected, summary)
    assert "first-appearance index" in svg
    assert "probability" in svg


def test_density_plot_full_scale_fast_and_small():
    n = 12837
    lexicon = make_lexicon([1 / n] * n)
    dist = IndexDistribution(tuple(1 / n for _ in range(n)))
    summary = moment_summary(dist)
    selected = select_candidates(lexicon, 0.05)
    start = time.perf_counter()
    svg = emit_density_plot(dist, selected, summary)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(svg.encode("utf-8")) < 5 * 1024 * 1024
    ET.fromstring(svg)  # well-formed


def test_both_plots_small_at_100k_words(monkeypatch):
    n = 100_000
    rng = random.Random(7)
    weights = [rng.paretovariate(1.0) for _ in range(n)]
    total = sum(weights)
    lexicon = make_lexicon([w / total for w in weights])
    dist = density(lexicon)
    selected = select_candidates(lexicon, 0.05)

    summary = moment_summary(dist)

    def both_plots():
        return emit_density_plot(dist, selected, summary), emit_sorted_plot(lexicon, selected)

    for svg in both_plots():
        assert len(svg.encode("utf-8")) < 5 * 1024 * 1024
        ET.fromstring(svg)  # well-formed
    # printed at full precision, no two circles of a class round to the same pixel
    monkeypatch.setattr(stoplex.plots, "_fmt", repr)
    for svg in both_plots():
        pixels = [
            (c.get("class"), round(float(c.get("cx"))), round(float(c.get("cy"))))
            for c in ET.fromstring(svg).iter(f"{SVG_NS}circle")
        ]
        assert len(pixels) == len(set(pixels))
        assert {cls for cls, _, _ in pixels} == {"word", "stopword"}


def test_density_plot_memory_is_far_below_one_point_per_word():
    n_words = 100_000
    lexicon = probabilities(apply_weights(build_lexicon(eight_profile_corpus(n_words))))
    dist = density(lexicon)
    summary = moment_summary(dist)
    selected = select_candidates(lexicon, 0.05)
    tracemalloc.start()
    try:
        emit_density_plot(dist, selected, summary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: about 14 bytes per word, mostly the rendered text; an
    # (index, probability) tuple per word alone would cost over 60
    assert peak / n_words < 32


def test_sorted_plot_structure():
    lexicon, _, _, selected = toy_parts()
    svg = emit_sorted_plot(lexicon, selected)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    counts = by_class(svg)
    assert counts.get("word", 0) + counts.get("stopword", 0) == 3
    assert counts.get("cutoff", 0) == 1
    assert "cutoff (rank 1)" in svg  # N=3, k=2


def test_sorted_plot_descending_order():
    lexicon, _, _, selected = toy_parts()
    root = ET.fromstring(emit_sorted_plot(lexicon, selected))
    ys = [
        float(el.get("cy"))
        for el in root.iter(f"{SVG_NS}circle")
    ]
    # pixel y grows downward, so descending probability means ascending cy
    assert ys == sorted(ys)


def test_sorted_plot_uniform_probabilities():
    lexicon = make_lexicon([0.25] * 4)
    selected = select_candidates(lexicon, 0.3)  # k = 2
    svg = emit_sorted_plot(lexicon, selected)
    assert "cutoff (rank 2)" in svg


def test_sorted_plot_single_word():
    lexicon = make_lexicon([1.0])
    selected = select_candidates(lexicon, 0.5)  # k = 1
    svg = emit_sorted_plot(lexicon, selected)
    assert "cutoff (rank 0)" in svg
    counts = by_class(svg)
    assert counts.get("word", 0) + counts.get("stopword", 0) == 1


def test_plots_are_deterministic():
    lexicon, dist, summary, selected = toy_parts()
    assert emit_density_plot(dist, selected, summary) == emit_density_plot(dist, selected, summary)
    assert emit_sorted_plot(lexicon, selected) == emit_sorted_plot(lexicon, selected)
