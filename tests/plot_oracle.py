"""Reference SVG emitters: the per-point plots stoplex used to draw.

Both send every one of the N points through ``_circles``, which draws at
most one circle per (class, pixel). The package now walks pixel columns and
distinct probabilities instead; tests require the two to produce the same
bytes. The density plot takes the per-index probability tuple that density
used to build, not an IndexDistribution. The frame, circle and number
helpers are the package's own.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice, repeat
from typing import Iterable, Sequence

from stoplex import Lexicon, MomentSummary
from stoplex.plots import (
    _AXIS_COLOR,
    _CANDIDATE_COLOR,
    _HEIGHT,
    _POINT_COLOR,
    _REF_COLOR,
    _TOP,
    _WIDTH,
    _circles,
    _fmt,
    _Frame,
    _tick,
)


def _scatter(
    title: str, x_label: str, n: int, y_max: float,
    words: Iterable[tuple[float, float]], stopwords: Iterable[tuple[float, float]], stopword_radius: int,
    markers: Iterable[tuple[str, float, str]],
) -> str:
    """Probability against x in 1..n: word points, stopword points on top, then markers.

    The y-axis runs from 0 to 5% above ``y_max``, or to 1 when ``y_max`` is
    0. Each (class, x, label) marker is a dashed vertical line at x, clamped
    into the x range, with its label above the plot.
    """
    frame = _Frame(0.5, n + 0.5, 0.0, y_max * 1.05 if y_max > 0 else 1.0)
    x0, x1 = frame.px_lo, frame.px_hi
    y0, y1 = frame.py_lo, frame.py_hi
    mid_x = (x0 + x1) / 2
    mid_y = (y0 + y1) / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<title>{title}</title>\n'
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n',
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="{_AXIS_COLOR}"/>',
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{_AXIS_COLOR}"/>',
        f'<text class="axis-label" x="{_fmt(mid_x)}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text class="axis-label" x="18" y="{_fmt(mid_y)}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 18 {_fmt(mid_y)})">probability</text>',
        # tick labels at the data extremes
        f'<text class="tick" x="{x0}" y="{y0 + 18}" text-anchor="middle" font-size="11">'
        f'{_tick(frame.x_lo)}</text>',
        f'<text class="tick" x="{x1}" y="{y0 + 18}" text-anchor="middle" font-size="11">'
        f'{_tick(frame.x_hi)}</text>',
        f'<text class="tick" x="{x0 - 6}" y="{y0 + 4}" text-anchor="end" font-size="11">'
        f'{_tick(frame.y_lo)}</text>',
        f'<text class="tick" x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" font-size="11">'
        f'{_tick(frame.y_hi)}</text>',
        *_circles(frame, words, "word", 2, _POINT_COLOR),
        *_circles(frame, stopwords, "stopword", stopword_radius, _CANDIDATE_COLOR),
    ]
    for cls, value, label in markers:
        px = _fmt(frame.x(frame.clamp_x(value)))
        parts.append(
            f'<line class="{cls}" x1="{px}" y1="{y1}" x2="{px}" y2="{y0}" '
            f'stroke="{_REF_COLOR}" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text class="ref-label" x="{px}" y="{_TOP - 8}" text-anchor="middle" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>\n")
    return "\n".join(parts)


def emit_density_plot(probs: Sequence[float], first_indices: Sequence[int], summary: MomentSummary) -> str:
    """Scatter of (index, probs[index - 1]) with the candidates' first indices and E, E+-sigma marked.

    Candidate points are drawn on top in a second color; dashed reference
    lines sit at E - sigma, E and E + sigma (clamped into the index range).
    """
    candidate_indices = set(first_indices)
    mean, sigma = summary.expectation, summary.std_dev
    return _scatter(
        "probability of unique words by first-appearance index", "first-appearance index",
        len(probs), max(probs),
        ((i, p) for i, p in enumerate(probs, start=1) if i not in candidate_indices),
        ((i, probs[i - 1]) for i in first_indices), 3,
        (("ref", mean - sigma, "E-σ"), ("ref", mean, "E"), ("ref", mean + sigma, "E+σ")),
    )


def emit_sorted_plot(lexicon: Lexicon, k: int) -> str:
    """Probabilities in descending order with the selection cutoff marked.

    The cutoff line sits after rank N - k, separating the kept words from
    the k candidates at the low end of the curve. The curve is drawn from
    the count profiles' probabilities, each repeated once per word.
    """
    words = Counter(lexicon.profile_ids)
    profiles = sorted(
        ((value, words[pid]) for pid, value in enumerate(lexicon.column("probability"))),
        reverse=True,
    )
    n = lexicon.size
    probs = chain.from_iterable(repeat(value, count) for value, count in profiles)
    ranked = enumerate(probs, start=1)  # ranks up to N - k are kept words, the rest candidates
    return _scatter(
        "unique words sorted by probability", "rank (descending probability)",
        n, profiles[0][0] if profiles else 0.0,
        islice(ranked, max(n - k, 0)), ranked, 2,
        (("cutoff", n - k + 0.5, f"cutoff (rank {n - k})"),),
    )
