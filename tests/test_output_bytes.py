"""The output files of `stoplex analyze --plots`, pinned by SHA-256.

The digests were recorded on Linux/glibc before the lexicon became a
count-profile table, but for the two words.csv digests: those were recorded
again when a weight's numerator became idf times the total count, rounded
once, which moved the last digit of the weight and probability on 10 of
the 2 745 rows in each mode. idf is math.log, so another libm may print a
different last digit. report.json is compared after its three decisiveness
counts are removed, since those keys were added with the table.
"""

import hashlib
import json
import random

import pytest

from stoplex.cli import main

DECISIVENESS_KEYS = ("zero_weight_words", "below_threshold", "tied_at_threshold")
APOSTROPHES = "'’ʼ`ʻ"


def _texts(seed: int = 20261018) -> list[str]:
    """A dozen documents, about 3 000 unique words, most of them hapax.

    Roots may hold an oʻ or gʻ digraph, and each occurrence writes its
    apostrophe as a random variant. "va" sits in every document, so some
    weights are zero; the many hapax words tie at the threshold.
    """
    rng = random.Random(seed)
    syllables = ["ba", "ki", "to", "ma", "su", "la", "ro", "ne", "di", "oʻ", "gʻa", "sh", "yo"]
    roots = sorted({"".join(rng.choices(syllables, k=rng.randint(1, 3))) for _ in range(1500)})
    suffixes = ["", "lar", "ni", "da", "dan", "ga", "ning", "larni"]
    forms = [root + suffix for root in roots for suffix in suffixes]
    rng.shuffle(forms)
    weights = [1 / rank for rank in range(1, len(forms) + 1)]
    texts = []
    for _ in range(12):
        words = rng.choices(forms, weights, k=rng.randint(1000, 1500)) + ["va"]
        words = [w.replace("ʻ", rng.choice(APOSTROPHES)) for w in words]
        texts.append(" ".join(w.capitalize() if rng.random() < 0.1 else w for w in words))
    return texts


EXPECTED = {
    "all": {
        "stopwords.txt": "047aa564eaaa39f652cef6ae29dab75aa3fb4a4c51ad6af9900936afa05dbaaf",
        "words.csv": "ee642e8c0a5d07b70739fb6ce671bad0fc648095fe2dda06793c2700f408e4ff",
        "density.svg": "f2eec5a48c18a1abbef852961e03b1c893a23e1eae7ef1002b06b31d97944963",
        "sorted.svg": "a4d95191204281a312ca6a8a810ad787038e9fddcaaeff11e522f72706eb1811",
        "report.json": "c2f1a58b870176b66e1d25ef643f41f26620b91c9b8da91f4504eccbdcec2fed",
    },
    "containing": {
        "stopwords.txt": "a3dc66e1c2012600b46575c380519a12e4435e51bd4f4c51cf9d0bdf172b077d",
        "words.csv": "b524e551b85650dd580e30faa3f42ac1edb1ca4b71410b63810a9b05f72b5e99",
        "density.svg": "090219744075bc653184871f74638ab2bd614e10b65eb507ce126cbfed6ad27c",
        "sorted.svg": "58a71a703733fcfda843a79cb52a121dec898f5be7242c8ca8aa61ffcde00a55",
        "report.json": "515192e87048903da5856939f70f7822d59024486aa98398a517f38117d9c01c",
    },
}


def _digests(out_dir) -> dict[str, str]:
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("stopwords.txt", "words.csv", "density.svg", "sorted.svg")
    }
    text = (out_dir / "report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, ensure_ascii=False, indent=2) + "\n"
    for key in DECISIVENESS_KEYS:
        del report["stopwords"][key]
    pinned = json.dumps(report, ensure_ascii=False, indent=2) + "\n"
    digests["report.json"] = hashlib.sha256(pinned.encode("utf-8")).hexdigest()
    return digests


@pytest.mark.parametrize("mode", ["all", "containing"])
def test_analyze_outputs_match_pinned_digests(mode, tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for number, text in enumerate(_texts(), start=1):
        (corpus / f"d{number:02d}.txt").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # relative paths keep report.json's inputs fixed
    assert main(["analyze", "corpus", "--averaging", mode, "--plots", "--out", "out"]) == 0
    capsys.readouterr()
    assert _digests(tmp_path / "out") == EXPECTED[mode]
