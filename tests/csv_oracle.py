"""Reference word table: the csv.writer rendering stoplex used to run.

It formats three floats per row through the csv module, so the package now
builds the rows itself and prints each distinct number once instead; tests
require the two to produce the same text.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable


def words_csv(rows: Iterable) -> str:
    """CSV word table of rows with the fields of conftest.WordRow, in order; floats use repr round-tripping."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["word", "first_index", "doc_frequency", "idf", "weight", "probability"])
    for e in rows:
        writer.writerow([e.surface, e.first_index, e.doc_frequency, e.idf, e.weight, e.probability])
    return buffer.getvalue()
