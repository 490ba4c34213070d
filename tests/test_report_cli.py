import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import stoplex.cli
import stoplex.corpus
import stoplex.report
from stoplex import (
    AllZeroWeights,
    DomainError,
    EmptyCorpus,
    NonFinite,
    RunConfig,
    StoplexError,
    run_pipeline,
    sample_mean_for,
    tokenize,
)
from stoplex.cli import main

from conftest import TOY_DIR, letter_code

EXPECTED_TOP_KEYS = {
    "corpus", "moments", "stopwords", "coverage", "z_test", "verdict", "config", "version",
}


def toy_config(out_dir, **overrides):
    settings = dict(
        inputs=(str(TOY_DIR),),
        fraction="0.4",
        output_dir=out_dir,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def test_pipeline_toy_report(tmp_path):
    report = run_pipeline(toy_config(tmp_path))
    assert report.doc_count == 3
    assert report.unique_words == 3
    assert report.token_total == 8
    assert report.moments.expectation == pytest.approx(2.0, abs=1e-12)
    assert report.moments.asymmetry == pytest.approx(0.0, abs=1e-12)
    assert report.verdict.location.value == "BothEnds"
    assert report.stopwords.count == 2


def test_pipeline_writes_outputs(tmp_path):
    run_pipeline(toy_config(tmp_path))
    assert (tmp_path / "stopwords.txt").read_text(encoding="utf-8") == "nok\nolma\n"
    csv_lines = (tmp_path / "words.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 4
    assert csv_lines[0] == "word,first_index,doc_frequency,idf,weight,probability"
    assert csv_lines[1].startswith("olma,1,2,")
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert set(report) == EXPECTED_TOP_KEYS


def test_pipeline_builds_no_word_rows(tmp_path, monkeypatch):
    # the stages after selection read the candidates' first indices, never a per-word row
    def word_entry(*fields):
        raise AssertionError("a WordEntry was built")

    monkeypatch.setattr(stoplex.corpus, "WordEntry", word_entry)
    report = run_pipeline(toy_config(tmp_path, plots=True))
    assert report.stopwords.words == ("nok", "olma")
    assert report.stopwords.first_indices == (2, 1)
    assert (tmp_path / "sorted.svg").is_file()


def test_report_schema_exact(tmp_path):
    report = run_pipeline(toy_config(tmp_path)).to_dict()
    assert set(report) == EXPECTED_TOP_KEYS
    assert set(report["corpus"]) == {"documents", "unique_words", "tokens"}
    assert set(report["moments"]) == {
        "expectation", "dispersion", "std_dev", "raw_moment_1", "raw_moment_2",
        "raw_moment_3", "third_central_moment", "asymmetry",
    }
    assert set(report["stopwords"]) == {
        "fraction", "count", "threshold", "zero_weight_words", "below_threshold", "tied_at_threshold",
    }
    assert set(report["coverage"]) == {"left", "inside", "right", "outside_fraction"}
    assert set(report["z_test"]) == {"n", "x_bar", "z", "critical", "x_bar_side", "decision"}
    assert set(report["verdict"]) == {"asymmetry", "location"}
    assert report["z_test"]["x_bar_side"] in ("Left", "Inside", "Right")
    assert report["z_test"]["decision"] in ("RetainH0", "RejectH0")
    assert report["verdict"]["location"] in ("Beginning", "End", "BothEnds")


def test_report_round_trips_losslessly(tmp_path):
    report = run_pipeline(toy_config(tmp_path))
    data = report.to_dict()
    assert json.loads(report.to_json()) == data


def test_pipeline_is_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_pipeline(toy_config(out1, plots=True))
    run_pipeline(toy_config(out2, plots=True))
    for name in ("stopwords.txt", "report.json", "words.csv", "density.svg", "sorted.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_pipeline_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptyCorpus) as excinfo:
        run_pipeline(toy_config(tmp_path / "out", inputs=(str(empty),)))
    assert excinfo.value.stage == "load_corpus"


# files that hold no word: digits and punctuation are no tokens
TOKENLESS_FILES = [{"a.txt": "123 !!!", "b.txt": ""}, {"a.txt": ""}]


@pytest.mark.parametrize("files", TOKENLESS_FILES)
def test_pipeline_tokenless_corpus(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(EmptyCorpus) as excinfo:
        run_pipeline(toy_config(tmp_path / "out", inputs=(str(tmp_path),)))
    assert excinfo.value.stage == "load_corpus"
    assert not (tmp_path / "out").exists()


def test_pipeline_all_zero_weights(tmp_path):
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("olma nok olma", encoding="utf-8")
    with pytest.raises(AllZeroWeights) as excinfo:
        run_pipeline(toy_config(tmp_path / "out", inputs=(str(tmp_path),), fraction="0.5"))
    assert excinfo.value.stage == "probabilities"
    assert gc.isenabled()  # a failed run leaves the cyclic collector as it found it


def _token_stream() -> list[str]:
    """One stream of 200 000 tokens over 20 000 words, the same on every call."""
    rng = random.Random(1)
    words = [letter_code(j) for j in range(20_000)]
    return [words[rng.randrange(len(words))] for _ in range(200_000)]


def _write_documents(docs: Path, stream: list[str], n_docs: int, sep: str = " ") -> int:
    """Write ``stream`` as ``n_docs`` equal ``sep``-joined documents in ``docs``; return the tokens in each."""
    docs.mkdir()
    tokens = len(stream) // n_docs
    for d in range(n_docs):
        (docs / f"d{d:04d}.txt").write_text(sep.join(stream[d * tokens:(d + 1) * tokens]), encoding="utf-8")
    return tokens


def _traced_pipeline(docs: Path, out_dir: Path):
    """run_pipeline's report on the documents in ``docs`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        report = run_pipeline(RunConfig(inputs=(str(docs),), output_dir=out_dir))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_pipeline_peak_memory_grows_with_the_largest_document_and_the_words(tmp_path):
    # one stream of 200 000 tokens over 20 000 words, cut into 4 to 4 000 documents
    stream = _token_stream()
    sizes = set()
    for n_docs in (4, 40, 400, 4000):
        tokens = _write_documents(tmp_path / f"docs{n_docs}", stream, n_docs)  # in each document
        report, peak = _traced_pipeline(tmp_path / f"docs{n_docs}", tmp_path / f"out{n_docs}")
        sizes.add((report.token_total, report.unique_words))
        # measured on Python 3.11: 3.48, 2.41, 2.55 and 3.86 MB, 50 to 193 bytes per
        # (tokens + N); one byte per (word, document) would add 8 MB at 400
        # documents, and holding every token of the corpus about 12 MB
        assert peak <= 200 * (tokens + report.unique_words) + 1000 * n_docs, n_docs
    assert sizes == {(len(stream), len(set(stream)))}


def test_pipeline_peak_memory_does_not_grow_with_the_largest_documents_tokens(tmp_path):
    # the same stream cut into 2 documents of 100 000 tokens (about 409 000
    # characters each): a document is counted block by block, so its bytes and
    # text are held at the peak, but never all of its tokens at once; the
    # blocks are cut at any whitespace and at ASCII punctuation and digits, so
    # one word per line, or words joined by commas or digits, count the same
    stream = _token_stream()
    for name, sep in (("spaces", " "), ("lines", "\n"), ("commas", ","), ("digits", "7")):
        _write_documents(tmp_path / name, stream, 2, sep)
        chars = max(len(path.read_text(encoding="utf-8")) for path in (tmp_path / name).iterdir())
        report, peak = _traced_pipeline(tmp_path / name, tmp_path / f"out-{name}")
        assert (report.token_total, report.unique_words) == (len(stream), len(set(stream)))
        # measured on Python 3.11: 3.41 MB with each separator against a bound
        # of 5.23 MB; holding a document's whole token list, as the corpus once
        # did, peaked at 13.25 MB, cutting blocks only at U+0020 at 8.9 MB on
        # the one-word-per-line documents, and cutting only at whitespace at
        # 7.01 MB on the comma- and digit-joined ones
        assert peak <= 200 * report.unique_words + 3 * chars, name


def test_every_module_compiles_from_source_without_a_warning():
    # as an import without cached bytecode does: under -W error a warning
    # at compile time, such as an invalid escape sequence, fails the import
    sources = sorted(Path(stoplex.corpus.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        toy_config(tmp_path, fraction="1.5")
    with pytest.raises(ValueError):
        toy_config(tmp_path, fraction="1e-400")  # exact value > 0, float value 0.0
    with pytest.raises(ValueError):
        toy_config(tmp_path, z_critical=0.0)
    with pytest.raises(ValueError):
        toy_config(tmp_path, z_critical=float("inf"))
    with pytest.raises(ValueError):
        toy_config(tmp_path, xbar_mode="median")
    with pytest.raises(ValueError):
        toy_config(tmp_path, order="random")
    with pytest.raises(ValueError):
        toy_config(tmp_path, fraction=None)
    for inputs in (str(TOY_DIR), str(TOY_DIR).encode(), TOY_DIR):  # one path, not a sequence of them
        with pytest.raises(ValueError):
            toy_config(tmp_path, inputs=inputs)
    for inputs in (5, None):  # no sequence at all
        with pytest.raises(ValueError):
            toy_config(tmp_path, inputs=inputs)
    # an item that is no path, or an empty one, which would read the current directory
    for inputs in ([5], [str(TOY_DIR), None], [""], [str(TOY_DIR), b""]):
        with pytest.raises(ValueError):
            toy_config(tmp_path, inputs=inputs)
    for output_dir in (5, None, "", b""):  # "" would write into the current directory
        with pytest.raises(ValueError):
            toy_config(tmp_path, output_dir=output_dir)
    # str, bytes and os.PathLike paths are kept as text
    for inputs in ([str(TOY_DIR)], [TOY_DIR], [os.fsencode(TOY_DIR)]):
        assert toy_config(tmp_path, inputs=inputs).inputs == (str(TOY_DIR),)
    assert toy_config(os.fsencode(tmp_path)).output_dir == str(tmp_path)
    # the last two are > 0 and finite, but as floats they overflow or round to 0.0
    for z_critical in ("1.96", True, None, complex(1.96), 10**400, Fraction(1, 10**400)):
        with pytest.raises(ValueError):
            toy_config(tmp_path, z_critical=z_critical)
    for plots in ("yes", 1, None):
        with pytest.raises(ValueError):
            toy_config(tmp_path, plots=plots)


def test_config_parses_the_fraction_once(tmp_path):
    configs = [toy_config(tmp_path, fraction=f) for f in ("0.05", 0.05, Fraction(1, 20))]
    assert configs[0] == configs[1] == configs[2]
    assert configs[0].fraction == Fraction(1, 20)


def test_config_keeps_z_critical_as_a_float(tmp_path):
    configs = [toy_config(tmp_path, z_critical=z) for z in (2, 2.0, Fraction(2))]
    assert configs[0] == configs[1] == configs[2]
    assert all(type(config.z_critical) is float for config in configs)
    reports = []
    for number, config in enumerate(configs):
        run_pipeline(config._replace(output_dir=tmp_path / str(number)))
        reports.append((tmp_path / str(number) / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    # json cannot write a Fraction, so a run that kept it would fail at its last step
    run_pipeline(toy_config(tmp_path / "half", z_critical=Fraction(3, 2)))
    report = json.loads((tmp_path / "half" / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["z_critical"] == report["z_test"]["critical"] == 1.5


def test_report_rejects_a_non_finite_value_by_its_dotted_key(tmp_path):
    report = run_pipeline(toy_config(tmp_path))
    broken = report._replace(z_test=report.z_test._replace(z=float("nan")))
    with pytest.raises(NonFinite, match=r"report\.z_test\.z is nan"):
        broken.to_dict()


def test_xbar_modes(tmp_path):
    midpoint = run_pipeline(toy_config(tmp_path / "m"))
    assert midpoint.z_test.sample_mean == 2.0  # (3 + 1) / 2
    candidate_mean = run_pipeline(toy_config(tmp_path / "c", xbar_mode="candidates"))
    assert candidate_mean.z_test.sample_mean == 1.5  # indices 2 (nok) and 1 (olma)


def test_candidates_xbar_of_no_candidates_is_a_domain_error():
    with pytest.raises(DomainError, match="at least one candidate"):
        sample_mean_for("candidates", 5, [])
    assert sample_mean_for("midpoint", 5, []) == 3.0
    assert sample_mean_for("candidates", 5, [2, 1]) == 1.5


@pytest.mark.parametrize("mode", ["Midpoint", "bogus", ""])
def test_sample_mean_rejects_an_unknown_mode(mode):
    with pytest.raises(DomainError, match="xbar_mode"):
        sample_mean_for(mode, 10, [1, 2])


def test_averaging_mode_changes_weights(tmp_path):
    all_docs = run_pipeline(toy_config(tmp_path / "a"))
    containing = run_pipeline(toy_config(tmp_path / "b", averaging="containing"))
    # toy corpus: every word has m=2, so probabilities agree but weight sums differ
    assert containing.stopwords.threshold == pytest.approx(all_docs.stopwords.threshold)


# --- CLI --------------------------------------------------------------------

def test_cli_analyze_success(tmp_path, capsys):
    code = main([
        "analyze", str(TOY_DIR), "--fraction", "0.4", "--out", str(tmp_path), "--plots",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "documents: 3" in out
    assert "location verdict: BothEnds" in out
    assert "%" in out
    for name in ("stopwords.txt", "report.json", "words.csv", "density.svg", "sorted.svg"):
        assert (tmp_path / name).exists()


def test_cli_defaults_are_run_config_defaults(tmp_path):
    assert main(["analyze", str(TOY_DIR), "--out", str(tmp_path / "cli")]) == 0
    run_pipeline(RunConfig(inputs=(str(TOY_DIR),), output_dir=tmp_path / "lib"))
    assert (tmp_path / "cli" / "report.json").read_bytes() == (tmp_path / "lib" / "report.json").read_bytes()


def test_cli_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["analyze", str(empty), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "load_corpus" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("files", TOKENLESS_FILES)
def test_cli_tokenless_corpus_exit_2(tmp_path, capsys, files):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in files.items():
        (corpus / name).write_text(text, encoding="utf-8")
    code = main(["analyze", str(corpus), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("stoplex: [load_corpus] ")
    assert not (tmp_path / "out").exists()


def test_cli_missing_input_exit_2(tmp_path, monkeypatch, capsys):
    def tokenize(text):
        raise AssertionError("a file was tokenized")

    monkeypatch.setattr(stoplex.corpus, "tokenize", tokenize)
    (tmp_path / "good.txt").write_text("olma nok", encoding="utf-8")
    missing = tmp_path / "nope.txt"
    code = main(["analyze", str(tmp_path / "good.txt"), str(missing), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"stoplex: [load_corpus] [Errno 2] No such file or directory: '{missing}'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [("--zcrit", "inf"), ("--fraction", "1e-400")])
def test_cli_bad_option_value_exit_2_before_any_output(tmp_path, option):
    out_dir = tmp_path / "o1"
    code = main(["analyze", str(TOY_DIR), *option, "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_cli_unreadable_fraction_exit_2_with_its_message(tmp_path, capsys, value):
    code = main(["analyze", str(TOY_DIR), "--fraction", value, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"stoplex: Invalid literal for Fraction: {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_cli_out_under_a_file_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    def load_corpus_from_paths(paths):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(stoplex.report, "load_corpus_from_paths", load_corpus_from_paths)
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    for out in (tmp_path / "file" / "sub", tmp_path / "dangling"):
        code = main(["analyze", str(TOY_DIR), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("stoplex: [output_dir] ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "file"]
        assert (tmp_path / "file").is_file()
        assert (tmp_path / "dangling").is_symlink() and not (tmp_path / "dangling").exists()


def test_cli_empty_path_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    def load_corpus_from_paths(paths):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(stoplex.report, "load_corpus_from_paths", load_corpus_from_paths)
    monkeypatch.chdir(tmp_path)  # where an empty input or --out would read or write
    (tmp_path / "a.txt").write_text("olma nok", encoding="utf-8")
    for args in (["", "--out", "out"], [str(TOY_DIR), "--out", ""]):
        assert main(["analyze", *args]) == 2
        assert capsys.readouterr().err == "stoplex: a path must be a nonempty str, bytes or os.PathLike, got ''\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_cli_directory_at_an_output_name_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    assert main(["analyze", str(TOY_DIR), "--fraction", "0.4", "--plots", "--out", str(out_dir)]) == 0
    # the last output written: every rename before it would have replaced its file
    (out_dir / "sorted.svg").unlink()
    (out_dir / "sorted.svg").mkdir()
    earlier = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    assert len(earlier) == 4
    capsys.readouterr()

    def load_corpus_from_paths(paths):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(stoplex.report, "load_corpus_from_paths", load_corpus_from_paths)
    args = [
        "analyze", str(TOY_DIR), "--fraction", "0.4", "--averaging", "containing", "--plots",
        "--out", str(out_dir),
    ]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("stoplex: [output_dir] ")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*earlier, "sorted.svg"])
    assert (out_dir / "sorted.svg").is_dir()
    assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()} == earlier
    # os.replace over a symlink to a directory replaces the link, so that run goes ahead
    monkeypatch.undo()
    (out_dir / "sorted.svg").rmdir()
    (tmp_path / "elsewhere").mkdir()
    (out_dir / "sorted.svg").symlink_to(tmp_path / "elsewhere")
    assert main(args) == 0
    assert (out_dir / "sorted.svg").is_file() and not (out_dir / "sorted.svg").is_symlink()
    assert (tmp_path / "elsewhere").is_dir()


def test_cli_rerun_into_an_input_directory_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "a.txt").write_text("olma nok olma", encoding="utf-8")
    (corpus / "b.txt").write_text("nok uzum", encoding="utf-8")
    (tmp_path / "link").symlink_to(corpus)
    assert main(["analyze", str(corpus), "--out", str(corpus)]) == 0
    assert capsys.readouterr().out.startswith("documents: 2  unique words: 3  tokens: 5\n")
    outputs = {p.name: p.read_bytes() for p in corpus.iterdir()}
    assert sorted(outputs) == ["a.txt", "b.txt", "report.json", "stopwords.txt", "words.csv"]

    def load_corpus_from_paths(paths):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(stoplex.report, "load_corpus_from_paths", load_corpus_from_paths)
    # the rerun would read its outputs as documents: by name, by one given explicitly, through a link
    for args in ([str(corpus), "--out", str(corpus)], [str(corpus / "report.json"), "--out", str(corpus)],
                 [str(corpus), "--out", str(tmp_path / "link")]):
        assert main(["analyze", *args]) == 2
        err = capsys.readouterr().err
        assert err == f"stoplex: [load_corpus] input {corpus / 'report.json'} is one of this run's outputs\n"
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == outputs
    # outputs that this run does not write are read like any other file
    monkeypatch.undo()
    assert main(["analyze", str(corpus), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.startswith("documents: 5  ")


def _fail_last_output(monkeypatch):
    def emit_sorted_plot(*args):
        raise StoplexError("cannot render")

    monkeypatch.setattr(stoplex.report, "emit_sorted_plot", emit_sorted_plot)


def _fail_words_csv_after_its_first_batch(monkeypatch, out_dir, open_temps: list) -> None:
    """Make the words.csv chunk source raise once its header and first row are written.

    The words.csv temporary files present when it raises go to ``open_temps``.
    """
    chunks = stoplex.report._words_csv_chunks

    def failing_chunks(*args):
        yield from islice(chunks(*args), 2)
        open_temps.extend(out_dir.glob(".words.csv.*.tmp"))
        raise StoplexError("cannot render")

    monkeypatch.setattr(stoplex.report, "_WORDS_CSV_BATCH", 1)
    monkeypatch.setattr(stoplex.report, "_words_csv_chunks", failing_chunks)


def _rerun_failing(out_dir, capsys, fail) -> None:
    """Run once, make ``fail()`` break the writing, then rerun with other weights: no output may change."""
    code = main(["analyze", str(TOY_DIR), "--fraction", "0.4", "--plots", "--out", str(out_dir)])
    assert code == 0
    earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(earlier) == 5
    capsys.readouterr()
    fail()
    # other weights, so every rewritten output would differ from the earlier run's
    code = main([
        "analyze", str(TOY_DIR), "--fraction", "0.4", "--averaging", "containing", "--plots",
        "--out", str(out_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("stoplex: [write_outputs] ")
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier


def _run_failing_into_fresh_tree(tmp_path, capsys) -> None:
    out_dir = tmp_path / "fresh" / "out"
    code = main(["analyze", str(TOY_DIR), "--fraction", "0.4", "--plots", "--out", str(out_dir)])
    assert code == 1
    assert "[write_outputs]" in capsys.readouterr().err
    assert not out_dir.exists()
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_write_keeps_earlier_outputs(tmp_path, monkeypatch, capsys):
    _rerun_failing(tmp_path / "out", capsys, lambda: _fail_last_output(monkeypatch))


def test_cli_failed_write_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    _fail_last_output(monkeypatch)
    _run_failing_into_fresh_tree(tmp_path, capsys)


def test_cli_words_csv_failing_midstream_keeps_earlier_outputs(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    open_temps = []
    _rerun_failing(
        out_dir, capsys, lambda: _fail_words_csv_after_its_first_batch(monkeypatch, out_dir, open_temps)
    )
    assert len(open_temps) == 1  # the failure came while words.csv was being written
    assert not list(out_dir.glob(".words.csv.*.tmp"))


def test_cli_words_csv_failing_midstream_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    open_temps = []
    _fail_words_csv_after_its_first_batch(monkeypatch, tmp_path / "fresh" / "out", open_temps)
    _run_failing_into_fresh_tree(tmp_path, capsys)
    assert len(open_temps) == 1


def test_cli_degenerate_exit_3(tmp_path, capsys):
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("bir xil matn", encoding="utf-8")
    code = main(["analyze", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "probabilities" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bad_utf8_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ol\xffma")
    code = main(["analyze", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bad" in capsys.readouterr().err


def test_cli_tokenize(tmp_path, capsys):
    source = tmp_path / "s.txt"
    source.write_text("O’zbek tili!", encoding="utf-8")
    assert main(["tokenize", str(source)]) == 0
    assert capsys.readouterr().out == "oʻzbek\ntili\n"


def test_cli_tokenize_prints_the_tokens_block_by_block(tmp_path, capsys, monkeypatch):
    # blocks of at least 8 characters, cut before a newline, a U+00A0 or a
    # space, with apostrophes, a combining mark and an ASCII-only block
    text = "O’zbek tili\nva\u00a0adabiyoti it's\u00a0e\u0301lon\ngʻoya, CAFÉ rock'n'roll\n\n"
    source = tmp_path / "s.txt"
    source.write_text(text, encoding="utf-8")
    blocks = []
    monkeypatch.setattr(stoplex.cli, "tokenize", lambda block: blocks.append(block) or tokenize(block))
    monkeypatch.setattr(stoplex.corpus, "_BLOCK_CHARS", 8)
    assert main(["tokenize", str(source)]) == 0
    assert capsys.readouterr().out == "".join(token + "\n" for token in tokenize(text))
    assert len(blocks) > 3
    assert "".join(blocks) == text


def test_cli_tokenize_bad_utf8_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.txt"
    bad.write_bytes(b"ol\xffma")
    assert main(["tokenize", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stoplex: broken: not valid UTF-8")


def test_cli_version(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stoplex ")


def test_cli_module_entrypoint(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "stoplex", "version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("stoplex ")


# runs the CLI's main on its arguments, then writes the modules imported after
# start-up to the file named first; those site imported (from .pth files) are
# already there before
_NEW_MODULES_AFTER_MAIN = """
import sys
before = set(sys.modules)
from stoplex.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as out:
    out.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def test_cli_analyze_imports_only_the_standard_library(tmp_path):
    listing = tmp_path / "modules.txt"
    result = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES_AFTER_MAIN, str(listing),
         "analyze", str(TOY_DIR), "--plots", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert result.returncode == 0, result.stderr
    imported = listing.read_text(encoding="utf-8").split()
    assert "stoplex.plots" in imported
    foreign = [name for name in imported if name.partition(".")[0] not in {"stoplex", *sys.stdlib_module_names}]
    assert foreign == []
    # dataclasses and the inspect it pulls in would be half of the package's import time
    assert {"dataclasses", "inspect"}.isdisjoint(imported)


def test_cli_order_flag(tmp_path, capsys):
    (tmp_path / "z.txt").write_text("birinchi soz", encoding="utf-8")
    (tmp_path / "a.txt").write_text("ikkinchi soz", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main([
        "analyze", str(tmp_path / "z.txt"), str(tmp_path / "a.txt"),
        "--order", "lexicographic", "--fraction", "0.5", "--out", str(out_dir),
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["corpus"]["documents"] == 2
