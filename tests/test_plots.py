import random
import time
import tracemalloc
import xml.etree.ElementTree as ET
from array import array

from hypothesis import assume, given, settings, strategies as st

import plot_oracle
import stoplex.plots
from stoplex import (
    Lexicon,
    MomentSummary,
    build_lexicon,
    density,
    emit_density_plot,
    emit_sorted_plot,
    load_corpus,
    moment_summary,
    probabilities,
    select_candidates,
)

from conftest import (
    TOY_SOURCES,
    distribution,
    letter_code,
    make_lexicon,
    per_word,
    probability_of,
    six_profile_corpus,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def weighted_parts(lexicon):
    """The lexicon's probabilities with the default weights, by profile id, and its distribution."""
    probability = probability_of(lexicon)
    return probability, density(lexicon, probability)


def toy_parts():
    lexicon = build_lexicon(load_corpus(TOY_SOURCES))
    probability, dist = weighted_parts(lexicon)
    return dist, moment_summary(dist), select_candidates(lexicon, probability, 0.4)


def by_class(svg: str) -> dict[str, int]:
    root = ET.fromstring(svg)
    counts: dict[str, int] = {}
    for element in root.iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def test_density_plot_structure():
    dist, summary, selected = toy_parts()
    svg = emit_density_plot(dist, selected.first_indices, summary)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    counts = by_class(svg)
    assert counts.get("word", 0) + counts.get("stopword", 0) == 3
    assert counts.get("stopword", 0) >= 1
    assert counts.get("ref", 0) == 3


def test_density_plot_empty_candidates():
    dist, summary, _ = toy_parts()
    counts = by_class(emit_density_plot(dist, [], summary))
    assert counts.get("stopword", 0) == 0
    assert counts.get("word", 0) == 3
    assert counts.get("ref", 0) == 3


def test_density_plot_axis_labels():
    dist, summary, selected = toy_parts()
    svg = emit_density_plot(dist, selected.first_indices, summary)
    assert "first-appearance index" in svg
    assert "probability" in svg


def test_density_plot_full_scale_fast_and_small():
    n = 12837
    dist = distribution(1 / n for _ in range(n))
    summary = moment_summary(dist)
    selected = select_candidates(*make_lexicon([1 / n] * n), 0.05)
    start = time.perf_counter()
    svg = emit_density_plot(dist, selected.first_indices, summary)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(svg.encode("utf-8")) < 5 * 1024 * 1024
    ET.fromstring(svg)  # well-formed


def test_both_plots_small_at_100k_words(monkeypatch):
    n = 100_000
    rng = random.Random(7)
    weights = [rng.paretovariate(1.0) for _ in range(n)]
    total = sum(weights)
    lexicon, probability = make_lexicon([w / total for w in weights])
    dist = density(lexicon, probability)
    selected = select_candidates(lexicon, probability, 0.05)

    summary = moment_summary(dist)

    def both_plots():
        return emit_density_plot(dist, selected.first_indices, summary), emit_sorted_plot(dist, selected.count)

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
    lexicon = build_lexicon(six_profile_corpus(n_words))
    probability, dist = weighted_parts(lexicon)
    summary = moment_summary(dist)
    selected = select_candidates(lexicon, probability, 0.05)
    tracemalloc.start()
    try:
        emit_density_plot(dist, selected.first_indices, summary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: about 9 bytes per word, mostly the rendered text; an
    # (index, probability) tuple per word alone would cost over 60
    assert peak / n_words < 32


def test_plots_map_far_fewer_points_than_words(monkeypatch):
    lexicon = build_lexicon(six_profile_corpus(100_000))
    probability, dist = weighted_parts(lexicon)
    selected = select_candidates(lexicon, probability, 0.05)
    calls = 0
    x = stoplex.plots._Frame.x

    def counted(frame, value):
        nonlocal calls
        calls += 1
        return x(frame, value)

    monkeypatch.setattr(stoplex.plots._Frame, "x", counted)
    emit_density_plot(dist, selected.first_indices, moment_summary(dist))
    emit_sorted_plot(dist, selected.count)
    # measured: 19 470 calls, 5 000 of them for the candidates of the density
    # plot, which are walked one by one; mapping every point costs 2N + 4
    assert calls < lexicon.size // 4


def test_sorted_plot_structure():
    dist, _, selected = toy_parts()
    svg = emit_sorted_plot(dist, selected.count)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    counts = by_class(svg)
    assert counts.get("word", 0) + counts.get("stopword", 0) == 3
    assert counts.get("cutoff", 0) == 1
    assert "cutoff (rank 1)" in svg  # N=3, k=2


def test_sorted_plot_descending_order():
    dist, _, selected = toy_parts()
    root = ET.fromstring(emit_sorted_plot(dist, selected.count))
    ys = [
        float(el.get("cy"))
        for el in root.iter(f"{SVG_NS}circle")
    ]
    # pixel y grows downward, so descending probability means ascending cy
    assert ys == sorted(ys)


def test_sorted_plot_uniform_probabilities():
    lexicon, probability = make_lexicon([0.25] * 4)
    selected = select_candidates(lexicon, probability, 0.3)  # k = 2
    svg = emit_sorted_plot(density(lexicon, probability), selected.count)
    assert "cutoff (rank 2)" in svg


def test_sorted_plot_single_word():
    lexicon, probability = make_lexicon([1.0])
    selected = select_candidates(lexicon, probability, 0.5)  # k = 1
    svg = emit_sorted_plot(density(lexicon, probability), selected.count)
    assert "cutoff (rank 0)" in svg
    counts = by_class(svg)
    assert counts.get("word", 0) + counts.get("stopword", 0) == 1


def test_plots_are_deterministic():
    dist, summary, selected = toy_parts()
    indices = selected.first_indices
    assert emit_density_plot(dist, indices, summary) == emit_density_plot(dist, indices, summary)
    assert emit_sorted_plot(dist, selected.count) == emit_sorted_plot(dist, selected.count)


# ---------------------------------------------------------------------------
# the emitters against the per-point plots they replaced (tests/plot_oracle.py)


def _profile_lexicon(weights, profile_ids) -> tuple[Lexicon, tuple[float, ...]]:
    """Words over count profiles of the given weights, and their probabilities as the pipeline makes them."""
    lexicon = Lexicon(
        surfaces=tuple(map(letter_code, range(len(profile_ids)))),
        profile_ids=array("I", profile_ids),
        doc_frequency=(1,) * len(weights),
        total_count=tuple(range(1, len(weights) + 1)),
        doc_count=2,
    )
    return lexicon, probabilities(lexicon, tuple(weights))


@st.composite
def plot_cases(draw, sizes, weights, candidates=st.sampled_from(["select", "scattered", "nearly all"])):
    """A lexicon of ``sizes`` words over profiles of ``weights``, its probabilities and candidates' first indices.

    Words come in stretches that share a profile, so a pixel column holds
    repeated probabilities. Candidates are either selected, or hand-picked
    anywhere in the index range, in random order; "nearly all" picks all
    but at most three words.
    """
    n = draw(sizes)
    profile_weights = draw(weights)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stretch = draw(st.sampled_from([1, 5, 300]))
    ids: list[int] = []
    while len(ids) < n:
        ids += [rng.randrange(len(profile_weights))] * rng.randint(1, stretch)
    ids = ids[:n]
    assume(any(profile_weights[pid] > 0 for pid in ids))
    lexicon, probability = _profile_lexicon(profile_weights, ids)
    how = draw(candidates)
    if how == "select":
        fraction = draw(st.sampled_from(["0.05", "0.5", "0.999"]))
        indices = select_candidates(lexicon, probability, fraction).first_indices
    else:
        k = rng.randint(0, n) if how == "scattered" else max(n - rng.randint(0, 3), 0)
        indices = rng.sample(range(1, n + 1), k)
    return lexicon, probability, indices


# small weights, so distinct profiles often share a probability; -0.0 and
# 0.0 are one dict key but two floats
WEIGHTS = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=12)
EQUAL_WEIGHTS = st.builds(lambda count, weight: [weight] * count, st.integers(1, 12), st.sampled_from([1.0, 3.0]))
SIZES = st.integers(1, 20_000)


def assert_plots_match_oracle(lexicon, probability, indices):
    dist = density(lexicon, probability)
    summary = MomentSummary((lexicon.size + 1) / 2, 0.0, lexicon.size / 4, 0.0, 0.0, 0.0, 0.0, 0.0)
    # the per-index tuple density built before it grouped indices by profile
    probs = per_word(lexicon, probability)
    assert emit_density_plot(dist, indices, summary) == plot_oracle.emit_density_plot(probs, indices, summary)
    k = len(indices)
    assert emit_sorted_plot(dist, k) == plot_oracle.emit_sorted_plot(probability, lexicon.profile_ids, k)


def test_one_word_plots_match_oracle():
    lexicon, probability = _profile_lexicon([1.0], [0])
    for indices in (select_candidates(lexicon, probability, 0.05).first_indices, []):
        assert_plots_match_oracle(lexicon, probability, indices)


@settings(max_examples=60, deadline=None)
@given(plot_cases(SIZES, WEIGHTS))
def test_plots_match_oracle(case):
    assert_plots_match_oracle(*case)


@settings(max_examples=60, deadline=None)
@given(plot_cases(st.integers(1, 700), WEIGHTS))
def test_plots_match_oracle_below_one_index_per_column(case):
    assert_plots_match_oracle(*case)


@settings(max_examples=30, deadline=None)
@given(plot_cases(SIZES, st.just([1.0])))
def test_plots_match_oracle_on_equal_probabilities(case):
    assert_plots_match_oracle(*case)


@settings(max_examples=30, deadline=None)
@given(plot_cases(SIZES, EQUAL_WEIGHTS))
def test_plots_match_oracle_on_equal_probabilities_across_profiles(case):
    assert_plots_match_oracle(*case)


@settings(max_examples=30, deadline=None)
@given(plot_cases(SIZES, WEIGHTS, st.just("scattered")))
def test_plots_match_oracle_with_candidates_across_columns(case):
    assert_plots_match_oracle(*case)


@settings(max_examples=30, deadline=None)
@given(plot_cases(SIZES, WEIGHTS, st.just("nearly all")))
def test_plots_match_oracle_with_nearly_every_word_a_candidate(case):
    assert_plots_match_oracle(*case)
