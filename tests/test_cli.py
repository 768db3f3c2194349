"""CLI tests via click's CliRunner: output goldens, exit codes, report
structure, and rerun determinism."""

import json

import pytest
from click.testing import CliRunner

from prefix_global.cli import main
from prefix_global.demo import demo_corpus_path

CORPUS = str(demo_corpus_path())


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# ---------------------------------------------------------------- group


def test_help_lists_subcommands(runner):
    res = invoke(runner, "--help")
    assert res.exit_code == 0
    for cmd in ("mask", "flops", "attend", "build", "stats"):
        assert cmd in res.output


def test_version(runner):
    res = invoke(runner, "--version")
    assert res.exit_code == 0
    assert "0.1.0" in res.output


# ---------------------------------------------------------------- flops


def test_flops_table_reference_cells(runner):
    res = invoke(runner, "flops")
    assert res.exit_code == 0
    assert "Input Length" in res.output
    # the three headline columns at their default geometry
    for cell in ("325,632", "782,336", "2,088,960",
                 "916,480", "2,225,152", "4,842,496",
                 "1,048,576", "4,194,304", "16,777,216"):
        assert cell in res.output


def test_flops_json_cells(runner):
    res = invoke(runner, "flops", "--json", "--lengths", "2048",
                 "--kinds", "prefix-global,full")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    cells = {c["pattern"]["kind"]: c for c in blob["cells"]}
    assert cells["prefix-global"]["accounted_pairs"] == 2_225_152
    assert cells["full"]["accounted_pairs"] == 4_194_304
    assert cells["prefix-global"]["ratio_vs_full"] == pytest.approx(2_225_152 / 4_194_304)
    assert blob["config"] == {"lengths": [2048], "kinds": ["prefix-global", "full"],
                              "radius": 127, "prefix": 512, "block": 16}
    assert blob["version"]


def test_flops_rejects_bad_length(runner):
    res = invoke(runner, "flops", "--lengths", "10,abc")
    assert res.exit_code == 2


def test_flops_rejects_unknown_kind(runner):
    res = invoke(runner, "flops", "--kinds", "diagonal")
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ("--lengths", ""), ("--lengths", " , "), ("--kinds", ","), ("--kinds", ",", "--json"),
], ids=["no-lengths", "blank-lengths", "no-kinds", "no-kinds-json"])
def test_flops_rejects_empty_lists(runner, args):
    # an empty list once printed an empty table, or empty cells, and exited 0
    res = invoke(runner, "flops", *args)
    assert res.exit_code == 2
    assert "at least one value" in res.output


# ----------------------------------------------------------------- mask


def test_mask_summary_golden(runner):
    res = invoke(runner, "mask", "--kind", "prefix-global",
                 "-l", "16", "-k", "4", "-r", "2")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["nnz"] == 166
    assert blob["accounted_pairs"] == 160
    assert blob["pattern"] == {"kind": "prefix-global", "l": 16, "k": 4, "r": 2}
    assert blob["side_keys"] == 0


def test_mask_csv_stdout(runner):
    res = invoke(runner, "mask", "--kind", "full", "-l", "3", "--fmt", "csv")
    assert res.exit_code == 0
    assert res.output == "1,1,1\n1,1,1\n1,1,1\n"


def test_mask_pgm_to_file(runner, tmp_path):
    out = tmp_path / "m.pgm"
    res = invoke(runner, "mask", "--kind", "local", "-l", "4", "-r", "1",
                 "--fmt", "pgm", "--out", str(out))
    assert res.exit_code == 0
    text = out.read_text()
    assert text.startswith("P2\n4 4\n1\n")
    assert "wrote pgm mask" in res.output


def test_mask_rejects_prefix_longer_than_sequence(runner):
    res = invoke(runner, "mask", "--kind", "prefix-global", "-l", "8", "-k", "20")
    assert res.exit_code == 2


# ---------------------------------------------------------------- attend


def attend_json(runner, *args):
    res = invoke(runner, "attend", *args)
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def test_attend_deterministic_per_seed(runner):
    a = attend_json(runner, "--kind", "prefix-global", "-l", "128", "-d", "8",
                    "-r", "9", "-k", "16", "--seed", "3")
    b = attend_json(runner, "--kind", "prefix-global", "-l", "128", "-d", "8",
                    "-r", "9", "-k", "16", "--seed", "3")
    c = attend_json(runner, "--kind", "prefix-global", "-l", "128", "-d", "8",
                    "-r", "9", "-k", "16", "--seed", "4")
    assert a["output_sha256"] == b["output_sha256"]
    assert a["output_sha256"] != c["output_sha256"]
    assert a["config"]["seed"] == 3


@pytest.mark.parametrize("kind,extra", [
    ("full", ()),
    ("local", ("-r", "5")),
    ("prefix-global", ("-r", "5", "-k", "11")),
    ("tglobal", ("-r", "5", "--block", "16")),
])
def test_attend_oracle_agreement(runner, kind, extra):
    blob = attend_json(runner, "--kind", kind, "-l", "96", "-d", "8",
                       "--seed", "1", "--check-oracle", *extra)
    assert blob["max_abs_diff"] < 1e-9
    assert blob["peak_score_elements"] > 0
    assert blob["score_blocks"] >= 1


def test_attend_no_scale_changes_output(runner):
    a = attend_json(runner, "--kind", "full", "-l", "32", "--seed", "0")
    b = attend_json(runner, "--kind", "full", "-l", "32", "--seed", "0", "--no-scale")
    assert a["output_sha256"] != b["output_sha256"]
    assert b["config"]["scale_by_sqrt_d"] is False


@pytest.mark.parametrize("args", [("--dim", "0"), ("--dim", "-1"), ("--seed", "-1")],
                         ids=["dim_zero", "dim_negative", "seed_negative"])
def test_attend_rejects_bad_dim_and_seed(runner, args):
    res = invoke(runner, "attend", "--kind", "full", "-l", "16", *args)
    assert res.exit_code == 2


def test_attend_oracle_cap(runner):
    res = invoke(runner, "attend", "--kind", "full", "-l", "9000", "--check-oracle")
    assert res.exit_code == 2


# ----------------------------------------------------------------- build


def test_build_writes_splits_and_report(runner, tmp_path):
    out = tmp_path / "ds"
    res = invoke(runner, "build", CORPUS, "--task", "image_captioning",
                 "--out-dir", str(out))
    assert res.exit_code == 0
    counts = {}
    for s in ("train", "val", "test"):
        with open(out / f"{s}.jsonl", encoding="utf-8") as f:
            counts[s] = sum(1 for _ in f)
    assert counts == {"train": 21, "val": 1, "test": 1}
    report = json.loads((out / "report.json").read_text())
    assert report["accounting"]["examples_out"] == 23
    assert report["accounting"]["candidates"] == 27
    assert report["input"]["sha256"]
    assert report["config"]["task"] == "image_captioning"
    # stdout carries the same report
    assert json.loads(res.output) == report


def test_build_rerun_byte_identical(runner, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = invoke(runner, "build", CORPUS, "--task", "page_description",
                     "--out-dir", str(out))
        assert res.exit_code == 0
        outs.append(b"".join((out / f"{s}.jsonl").read_bytes()
                             for s in ("train", "val", "test")))
    assert outs[0] == outs[1]


def test_build_examples_are_valid_json(runner, tmp_path):
    out = tmp_path / "ds"
    invoke(runner, "build", CORPUS, "--task", "section_summarization",
           "--out-dir", str(out))
    with open(out / "train.jsonl", encoding="utf-8") as fh:
        for line in fh:
            ex = json.loads(line)
            assert ex["task"] == "section_summarization"
            assert ex["target"]
            assert len(ex["prefix"]) <= 512


def test_build_strict_fails_on_malformed(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    res = invoke(runner, "build", str(bad), "--task", "page_description",
                 "--out-dir", str(tmp_path / "out"))
    assert res.exit_code == 1


def test_build_strict_error_after_good_pages_writes_no_split(runner, tmp_path):
    # the corpus streams into the builder, so good pages come before the bad
    # line; the error must still land before any split file is written
    bad = tmp_path / "bad.jsonl"
    with open(CORPUS, encoding="utf-8") as fh:
        bad.write_text(fh.read() + "{broken\n", encoding="utf-8")
    out = tmp_path / "out"
    res = invoke(runner, "build", str(bad), "--task", "section_summarization",
                 "--out-dir", str(out))
    assert res.exit_code == 1
    assert "line 21" in res.output
    assert not list(out.glob("*.jsonl")) and not (out / "report.json").exists()


def test_build_lenient_accounts_malformed(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    with open(CORPUS, encoding="utf-8") as fh:
        body = fh.read()
    bad.write_text("{broken\n" + body, encoding="utf-8")
    out = tmp_path / "out"
    res = invoke(runner, "build", str(bad), "--task", "page_description",
                 "--out-dir", str(out), "--lenient")
    assert res.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["accounting"]["rejections"]["parse_error"] == 1
    assert report["accounting"]["candidates"] == 21


def test_build_lenient_survives_undecodable_lines(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    with open(CORPUS, "rb") as fh:
        body = fh.read()
    bad.write_bytes(b'{"page_url": "\xff"}\n' + b"[" * 100_000 + b"\n" + body)
    out = tmp_path / "out"
    res = invoke(runner, "build", str(bad), "--task", "page_description",
                 "--out-dir", str(out), "--lenient")
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["accounting"]["rejections"]["parse_error"] == 2
    assert report["accounting"]["candidates"] == 22


def test_build_missing_corpus_is_usage_error(runner, tmp_path):
    res = invoke(runner, "build", str(tmp_path / "nope.jsonl"),
                 "--task", "page_description", "--out-dir", str(tmp_path / "o"))
    assert res.exit_code == 2


def test_build_variant_changes_examples(runner, tmp_path):
    blobs = []
    for variant in ("titles-first-sentences", "titles-only"):
        out = tmp_path / variant
        res = invoke(runner, "build", CORPUS, "--task", "page_description",
                     "--out-dir", str(out), "--variant", variant)
        assert res.exit_code == 0
        blobs.append((out / "train.jsonl").read_text(encoding="utf-8"))
    assert blobs[0] != blobs[1]


# ----------------------------------------------------------------- stats


def test_stats_golden(runner):
    res = invoke(runner, "stats", CORPUS)
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["stats"]["pages"] == 20
    assert blob["stats"]["sections"]["total"] == 61
    assert blob["stats"]["images"] == {"total": 27, "unique": 27}
    assert blob["malformed_records"] == 0


def test_stats_lenient_counts_malformed(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    with open(CORPUS, encoding="utf-8") as fh:
        bad.write_text(fh.read() + "{broken\n", encoding="utf-8")
    res = invoke(runner, "stats", str(bad), "--lenient")
    assert res.exit_code == 0
    assert json.loads(res.output)["malformed_records"] == 1
    strict = invoke(runner, "stats", str(bad))
    assert strict.exit_code == 1
    assert "line 21" in strict.output
