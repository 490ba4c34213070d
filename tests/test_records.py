"""The result records: immutable named tuples whose _replace checks like their constructor."""

import copy
import math
import pickle
from array import array
from fractions import Fraction

import pytest

from stoplex import (
    DomainError,
    RunConfig,
    apply_weights,
    build_lexicon,
    density,
    load_corpus,
    probabilities,
    run_pipeline,
)

from conftest import TOY_DIR, TOY_SOURCES


@pytest.fixture
def records(tmp_path):
    """One instance of each of the ten records, by class name, from the toy corpus."""
    corpus = load_corpus(TOY_SOURCES)
    lexicon = build_lexicon(corpus)
    dist = density(lexicon, probabilities(lexicon, apply_weights(lexicon)))
    report = run_pipeline(RunConfig((str(TOY_DIR),), fraction="0.4", output_dir=tmp_path))
    found = (corpus, lexicon, dist, report, report.config, report.moments, report.stopwords,
             report.coverage, report.z_test, report.verdict)
    return {type(record).__name__: record for record in found}


@pytest.mark.parametrize(
    "name, field",
    [
        ("Corpus", "doc_count"),
        ("Lexicon", "members"),
        ("IndexDistribution", "values"),
        ("AnalysisReport", "z_test"),
        ("RunConfig", "fraction"),
        ("MomentSummary", "asymmetry"),
        ("StopwordSet", "words"),
        ("CoverageReport", "left_count"),
        ("ZTestResult", "z"),
        ("LocationVerdict", "location"),
    ],
)
def test_assigning_a_field_raises_attribute_error(records, name, field):
    record = records[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_records_copy_and_pickle_to_equal_records(records):
    # Lexicon's members is no argument of its constructor, which copy and pickle call
    for record in records.values():
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record


def test_run_config_replace_checks_and_normalizes(tmp_path):
    config = RunConfig((str(TOY_DIR),), output_dir=tmp_path)
    with pytest.raises(ValueError, match="fraction must lie in"):
        config._replace(fraction="2")
    assert config._replace(output_dir=b"/x").output_dir == "/x"
    assert config._replace(fraction="0.4").fraction == Fraction(2, 5)


def test_lexicon_replace_checks_and_rebuilds_the_members(toy_lexicon):
    with pytest.raises(DomainError):
        toy_lexicon._replace(profile_ids=array("I", [0, 2, 0]))  # profile 2 has no row
    assert toy_lexicon._replace(doc_count=4).members == toy_lexicon.members


def test_index_distribution_rejects_nan_on_construction_and_replace(toy_lexicon):
    dist = density(toy_lexicon, (0.375, 0.25))  # olma and uzum 0.375 each, nok 0.25
    with pytest.raises(DomainError, match="nan"):
        density(toy_lexicon, (math.nan, 0.25))
    with pytest.raises(DomainError, match="nan"):
        dist._replace(values=(math.nan, 0.25))


def test_records_are_tuples(records):
    stopwords = records["StopwordSet"]
    assert stopwords.count == len(stopwords.words) == 2  # the property, not tuple.count
    assert tuple(stopwords) == stopwords
    assert records["CoverageReport"] == (records["CoverageReport"].left_count, *records["CoverageReport"][1:])
    assert records["RunConfig"][0] == (str(TOY_DIR),)
