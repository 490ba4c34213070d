"""Reference word table: the csv.writer rendering stoplex used to run.

It formats three floats per row through the csv module, so the package now
builds the rows itself and prints each distinct number once instead; tests
require the two to produce the same text.
"""

from __future__ import annotations

import csv
import io

from stoplex import Lexicon


def words_csv(lexicon: Lexicon) -> str:
    """CSV word table in first_index order; floats use repr round-tripping."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["word", "first_index", "doc_frequency", "idf", "weight", "probability"])
    for e in lexicon.entries:
        writer.writerow([e.surface, e.first_index, e.doc_frequency, e.idf, e.weight, e.probability])
    return buffer.getvalue()
