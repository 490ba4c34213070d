"""Reference tokenizer: the per-character scanner stoplex used to run.

It tests every character with unicodedata.category, so the package now
cuts words with str methods instead; tests require the two to produce the
same tokens.
"""

from __future__ import annotations

import unicodedata

from stoplex import CANONICAL_APOSTROPHE


# U+02BB and U+02BC are Unicode letters (category Lm), so they must be
# claimed by this class before the letter test sees them; otherwise a
# doubled apostrophe could hide inside a letter run.
_APOSTROPHES = frozenset("'’ʼ`ʻ")


def _is_letter(ch: str) -> bool:
    return ch not in _APOSTROPHES and unicodedata.category(ch).startswith("L")


def tokenize(text: str) -> list[str]:
    """Split raw text into normalized word tokens, order preserved.

    Rules:
    - The input is NFC-normalized first.
    - Tokens are maximal runs of Unicode letters; anything else separates.
    - A single apostrophe flanked by letters stays inside the token and is
      rewritten to U+02BB; leading, trailing or doubled apostrophes never
      attach.
    - Tokens are lowercased (and re-normalized, since lowercasing can
      denormalize in rare cases).

    Any input yields a (possibly empty) token list.
    """
    text = unicodedata.normalize("NFC", text)
    tokens: list[str] = []
    run: list[str] = []
    last_was_letter = False
    length = len(text)
    for pos, ch in enumerate(text):
        if _is_letter(ch):
            run.append(ch)
            last_was_letter = True
            continue
        if (
            ch in _APOSTROPHES
            and last_was_letter
            and pos + 1 < length
            and _is_letter(text[pos + 1])
        ):
            run.append(CANONICAL_APOSTROPHE)
            last_was_letter = False
            continue
        if run:
            tokens.append(_finish_token(run))
            run.clear()
        last_was_letter = False
    if run:
        tokens.append(_finish_token(run))
    return tokens


def _finish_token(run: list[str]) -> str:
    return unicodedata.normalize("NFC", "".join(run).lower())
