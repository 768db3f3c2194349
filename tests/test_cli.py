"""CLI tests via click's CliRunner: output goldens, exit codes, report
structure, rerun determinism, and the end-to-end gates (the oracle at the
edge geometries, the mask grids against the closed-form nnz, prefix-global
at k = l and k = 0). Two tests start a process: one closes the CLI's stdout
early, and one runs build and stats under another hash seed."""

import errno
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import prefix_global
from prefix_global.cli import main
from prefix_global.demo import demo_corpus_path
from prefix_global.kernel import sparse_attention
from prefix_global.patterns import AttentionPattern
from prefix_global.sequence import Task

CORPUS = str(demo_corpus_path())
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(prefix_global.__file__).parents[1])  # the package's own tree, for a child process


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
    # flops spans several lengths, so its config echoes the options as given, null where unset
    assert blob["config"] == {"lengths": [2048], "kinds": ["prefix-global", "full"],
                              "radius": None, "prefix": None, "block": None}
    assert blob["version"]


def test_flops_keeps_each_repeated_value_once(runner):
    # --lengths 8,8 once printed one table row but two identical JSON cells
    args = ("--lengths", "8,16,8", "--kinds", "full,local,full", "-r", "2")
    table = invoke(runner, "flops", *args)
    assert table.exit_code == 0
    assert table.output == invoke(runner, "flops", "--lengths", "8,16", "--kinds", "full,local", "-r", "2").output
    assert len(table.output.strip().split("\n")) == 1 + 2  # the header, then one row per length
    blob = json.loads(invoke(runner, "flops", "--json", *args).output)
    assert [(c["pattern"]["l"], c["pattern"]["kind"]) for c in blob["cells"]] == [
        (8, "local"), (8, "full"), (16, "local"), (16, "full")]
    assert (blob["config"]["lengths"], blob["config"]["kinds"]) == ([8, 16], ["full", "local"])


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


# ------------------------------------------------ pattern options, shared


KINDS = ["full", "local", "tglobal", "prefix-global"]


def used_by(command, blob):
    """The r, k and block a report states: attend's config, else a pattern."""
    pattern = blob["config"] if command == "attend" else (blob["cells"][0]["pattern"] if command == "flops"
                                                           else blob["pattern"])
    keys = ("radius", "prefix", "block") if command == "attend" else ("r", "k", "block")
    return tuple(pattern.get(key) for key in keys)


def pattern_args(command, kind, l, *options):
    if command == "flops":
        return ("flops", "--json", "--lengths", str(l), "--kinds", kind, *options)
    return (command, "--kind", kind, "-l", str(l), *options)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("command", ["mask", "attend", "flops"])
def test_every_command_runs_below_512_without_k(runner, command, kind):
    # -k once defaulted to 512 for every length, so prefix-global exited 2 at
    # l = 300 without it; an unset k is min(512, l), and each report shows the
    # values its pattern used, null for a parameter the kind does not use
    res = invoke(runner, *pattern_args(command, kind, 300))
    assert res.exit_code == 0, res.output
    assert used_by(command, json.loads(res.output)) == {
        "full": (None, None, None), "local": (127, None, None),
        "tglobal": (127, None, 16), "prefix-global": (127, 300, None)}[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_attend_config_echoes_each_given_parameter(runner, kind):
    # a run that passes its parameters keeps the config it had when every
    # option had a fixed default, even for one its kind does not use
    blob = attend_json(runner, *pattern_args("attend", kind, 300, "-r", "9", "-k", "40", "--block", "7")[1:])
    assert used_by("attend", blob) == (9, 40, 7)
    blob = attend_json(runner, *pattern_args("attend", kind, 300, "-k", "40")[1:])
    assert used_by("attend", blob) == {"full": (None, 40, None), "local": (127, 40, None),
                                       "tglobal": (127, 40, 16), "prefix-global": (127, 40, None)}[kind]


@pytest.mark.parametrize("command", ["mask", "attend", "flops"])
def test_a_given_k_above_l_exits_2(runner, command):
    res = invoke(runner, *pattern_args(command, "prefix-global", 300, "-k", "301"))
    assert res.exit_code == 2
    assert "k must satisfy 0 <= k <= l=300, got 301" in res.output


@pytest.mark.parametrize("command", ["mask", "attend", "flops"])
def test_help_names_each_pattern_default(runner, command):
    res = invoke(runner, command, "--help")
    assert res.exit_code == 0
    for option, default in (("--radius", "127"), ("--prefix", "min(512, l)"), ("--block", "16")):
        line = next(line for line in res.output.splitlines() if f"{option} INTEGER" in line)
        assert line.endswith(f"[default: {default}]"), line


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


def test_mask_summary_builds_no_mask(runner, monkeypatch):
    def refuse(pattern):
        raise AssertionError("the summary must not build the mask")

    monkeypatch.setattr("prefix_global.cli.build_mask", refuse)
    res = invoke(runner, "mask", "--kind", "prefix-global",
                 "-l", "16", "-k", "4", "-r", "2")
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert (blob["nnz"], blob["accounted_pairs"], blob["side_keys"]) == (166, 160, 0)
    assert blob["pattern"] == {"kind": "prefix-global", "l": 16, "k": 4, "r": 2}


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


def test_mask_out_into_missing_directory_is_an_error(runner, tmp_path):
    out = tmp_path / "nodir" / "m.csv"
    res = invoke(runner, "mask", "-l", "8", "-k", "2", "--fmt", "csv", "-o", str(out))
    assert res.exit_code == 1
    assert "Error:" in res.output and "No such file or directory" in res.output
    assert isinstance(res.exception, SystemExit)
    assert not out.parent.exists()


def test_mask_rejects_prefix_longer_than_sequence(runner):
    res = invoke(runner, "mask", "--kind", "prefix-global", "-l", "8", "-k", "20")
    assert res.exit_code == 2


@pytest.mark.parametrize("geometry", ["-l 37 -r 3 -k 5 --block 4", "-l 300 -r 9 -k 40 --block 7",
                                      "-l 1 -r 9 -k 1 --block 7", "-l 300 -r 400 -k 40 --block 7"],
                         ids=lambda geometry: geometry.replace(" ", ""))
@pytest.mark.parametrize("kind", KINDS)
def test_mask_out_file_holds_the_stdout_bytes(runner, tmp_path, kind, geometry):
    # --out once wrote no file for the summary, which went to stdout; the csv
    # and pgm grids hold the nnz that the summary takes from the closed form
    args = ("mask", "--kind", kind, *geometry.split())
    stdout = {}
    for fmt in ("summary", "csv", "pgm"):
        res = invoke(runner, *args, "--fmt", fmt)
        assert res.exit_code == 0, res.output
        stdout[fmt] = res.stdout_bytes
        out = tmp_path / f"m.{fmt}"
        to_file = invoke(runner, *args, "--fmt", fmt, "-o", str(out))
        assert to_file.exit_code == 0, to_file.output
        assert to_file.output == f"wrote {fmt} mask to {out}\n"
        assert out.read_bytes() == res.stdout_bytes
    nnz = json.loads(stdout["summary"])["nnz"]
    assert stdout["csv"].count(b"1") == nnz
    assert b"".join(stdout["pgm"].splitlines(keepends=True)[3:]).count(b"1") == nnz  # after the 3-line header


@pytest.mark.parametrize("k,other", [("300", ("--kind", "full")), ("0", ("--kind", "local", "-r", "9"))],
                         ids=["k=l-is-full", "k=0-is-local"])
def test_prefix_global_mask_at_the_ends_of_k(runner, k, other):
    got = invoke(runner, "mask", "--kind", "prefix-global", "-l", "300", "-r", "9", "-k", k, "--fmt", "csv")
    want = invoke(runner, "mask", *other, "-l", "300", "--fmt", "csv")
    assert got.exit_code == want.exit_code == 0, got.output + want.output
    assert got.stdout_bytes == want.stdout_bytes


def test_mask_streams_its_output(runner, tmp_path):
    # the whole text held at once, let alone twice, is 8 MB at this size
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        res = invoke(runner, "mask", "--kind", "prefix-global", "-l", "2048", "--fmt", "csv", "-o", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak < out.stat().st_size / 4


def test_mask_stdout_closed_early_ends_quietly():
    # the grid is written a line at a time, so writes go on after the reader
    # leaves; click ends a broken stdout pipe with exit 1 and no message
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen([sys.executable, "-m", "prefix_global.cli", "mask", "--kind", "local",
                             "-l", "4096", "-r", "1", "--fmt", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1,1," + b"0," * 4093 + b"0\n"
    proc.stdout.close()
    try:
        stderr = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert stderr == b""
    assert proc.returncode == 1


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


# the edge geometries: l = 1, k = 0, k = l, r >= l, and an l that is not a
# multiple of the 128-row band; each with and without --no-scale
ORACLE_CASES = [
    ("full", "-l 96 --seed 1"),
    ("local", "-l 96 --seed 1 -r 5"),
    ("prefix-global", "-l 96 --seed 1 -r 5 -k 11"),
    ("tglobal", "-l 96 --seed 1 -r 5 --block 16"),
] + [(kind, f"{geometry} --block 7 {scale}") for kind in KINDS
     for geometry in ("-l 300 -r 9 -k 40", "-l 1 -r 9 -k 1", "-l 300 -r 9 -k 0", "-l 300 -r 9 -k 300",
                      "-l 300 -r 400 -k 40", "-l 257 -r 9 -k 40")
     for scale in ("--scale", "--no-scale")]


@pytest.mark.parametrize("kind,args", ORACLE_CASES, ids=[kind + args.replace(" ", "") for kind, args in ORACLE_CASES])
def test_attend_oracle_agreement(runner, kind, args):
    blob = attend_json(runner, "--kind", kind, "-d", "8", "--check-oracle", *args.split())
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


@pytest.mark.parametrize("kind", ["full", "local", "tglobal", "prefix-global"])
def test_attend_draws_q_k_v_and_averages_the_side_keys(runner, kind):
    # the operands: three seeded l x d draws in the order q, k, v; tglobal's
    # side keys and values are the block averages of the drawn k and v. A
    # block of two rows (the last one short) rounds its average once in any
    # summation order, so the loop below matches block_average bit for bit;
    # over more rows numpy's reduceat may round in another order.
    l, d, block, seed = 37, 4, 2, 9
    blob = attend_json(runner, "--kind", kind, "-l", str(l), "-d", str(d), "-r", "3", "-k", "6",
                       "--block", str(block), "--seed", str(seed))
    g = np.random.default_rng(seed)
    q, k, v = (g.standard_normal((l, d)) for _ in range(3))
    pattern = AttentionPattern(kind, l, r=3, k=6, block=block)
    if kind == "tglobal":
        k, v = (np.vstack([m, [m[s:s + block].mean(axis=0) for s in range(0, l, block)]]) for m in (k, v))
    out = sparse_attention(q, k, v, pattern)
    assert blob["output_sha256"] == hashlib.sha256(out.tobytes()).hexdigest()


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


def build_outputs(out) -> dict:
    return {name: (out / name).read_bytes() for name in ("train.jsonl", "val.jsonl", "test.jsonl", "report.json")}


def test_build_rebuild_over_its_outputs_writes_the_same_bytes(runner, tmp_path):
    out = tmp_path / "out"
    args = ("build", CORPUS, "--task", "section_summarization", "--out-dir", str(out))
    assert invoke(runner, *args).exit_code == 0
    first = build_outputs(out)
    res = invoke(runner, *args)
    assert res.exit_code == 0, res.output
    assert build_outputs(out) == first
    assert sorted(p.name for p in out.iterdir()) == sorted(first)


def test_build_failed_write_leaves_the_previous_outputs(runner, tmp_path, monkeypatch):
    # the split files were opened, and so truncated, before the first line
    # was written: a disk-full error left train.jsonl cut short and the
    # other splits empty, beside the previous run's report.json
    out = tmp_path / "out"
    args = ("build", CORPUS, "--task", "section_summarization", "--out-dir", str(out))
    assert invoke(runner, *args).exit_code == 0
    first = build_outputs(out)
    real, calls = prefix_global.TaskExample.to_json_line, []

    def to_json_line(self):
        calls.append(self)
        if len(calls) == 4:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self)

    monkeypatch.setattr(prefix_global.TaskExample, "to_json_line", to_json_line)
    res = invoke(runner, *args)
    assert res.exit_code == 1
    assert "No space left on device" in res.output
    assert len(calls) == 4
    assert build_outputs(out) == first
    assert sorted(p.name for p in out.iterdir()) == sorted(first)


def test_build_failed_report_write_leaves_the_previous_outputs(runner, tmp_path, monkeypatch):
    # the report is the last file written: no split file is renamed over the
    # previous run's until it has been written too. The rebuild is of another
    # task, so a split renamed too early would show as changed bytes
    out = tmp_path / "out"
    assert invoke(runner, "build", CORPUS, "--task", "section_summarization", "--out-dir", str(out)).exit_code == 0
    first = build_outputs(out)
    real = pathlib.Path.write_text

    def write_text(self, *args, **kwargs):
        if self.name == "report.json.tmp":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", write_text)
    res = invoke(runner, "build", CORPUS, "--task", "image_captioning", "--out-dir", str(out))
    assert res.exit_code == 1
    assert "No space left on device" in res.output
    assert build_outputs(out) == first
    assert sorted(p.name for p in out.iterdir()) == sorted(first)


@pytest.mark.parametrize("name", ["train.jsonl.tmp", "val.jsonl.tmp", "test.jsonl.tmp", "report.json.tmp"])
def test_build_refuses_a_corpus_that_is_a_temp_output(runner, tmp_path, name):
    out = tmp_path / "out"
    out.mkdir()
    corpus = out / name
    body = pathlib.Path(CORPUS).read_bytes()
    corpus.write_bytes(body)
    res = invoke(runner, "build", str(corpus), "--task", "page_description", "--out-dir", str(out))
    assert res.exit_code == 1
    assert "is also an output file" in res.output
    assert corpus.read_bytes() == body
    assert [p.name for p in out.iterdir()] == [name]


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


def surrogate_corpus(tmp_path):
    """The demo corpus with a lone surrogate in the first page's title: valid
    JSON, as json.dumps escapes it, but no UTF-8 file can hold it."""
    lines = demo_corpus_path().read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["page_title"] = "T \ud800 x"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", encoding="utf-8")
    return bad


def test_build_strict_refuses_a_string_utf8_cannot_encode(runner, tmp_path):
    out = tmp_path / "out"
    res = invoke(runner, "build", str(surrogate_corpus(tmp_path)), "--task", "page_description",
                 "--out-dir", str(out))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "line 1" in res.output and "page title" in res.output
    assert not out.exists()


def test_build_lenient_counts_a_string_utf8_cannot_encode(runner, tmp_path):
    out = tmp_path / "out"
    res = invoke(runner, "build", str(surrogate_corpus(tmp_path)), "--task", "page_description",
                 "--out-dir", str(out), "--lenient")
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert report["accounting"]["rejections"]["parse_error"] == 1
    assert report["accounting"]["candidates"] == 20


def test_build_missing_corpus_is_usage_error(runner, tmp_path):
    res = invoke(runner, "build", str(tmp_path / "nope.jsonl"),
                 "--task", "page_description", "--out-dir", str(tmp_path / "o"))
    assert res.exit_code == 2


@pytest.mark.parametrize("link", ["same-path", "dotted-path", "hard-link", "symlink"])
@pytest.mark.parametrize("name", ["train.jsonl", "val.jsonl", "test.jsonl", "report.json"])
def test_build_refuses_a_corpus_that_is_an_output(runner, tmp_path, name, link):
    # the run once overwrote its own corpus with a split and reported the
    # split's digest as the input's
    body = pathlib.Path(CORPUS).read_bytes()
    out = tmp_path / "out"
    out.mkdir()
    output = out / name
    if link in ("same-path", "dotted-path"):
        output.write_bytes(body)
        corpus = output if link == "same-path" else out / ".." / "out" / name
    else:
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(body)
        if link == "hard-link":
            os.link(corpus, output)
        else:
            output.symlink_to(corpus)
    res = invoke(runner, "build", str(corpus), "--task", "page_description",
                 "--out-dir", str(out))
    assert res.exit_code == 1
    assert "is also an output file" in res.output
    assert pathlib.Path(corpus).read_bytes() == body
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("threshold", ["-1", "1.5", "x"])
def test_build_rejects_bad_threshold(runner, tmp_path, threshold):
    out = tmp_path / "out"
    res = invoke(runner, "build", CORPUS, "--task", "page_description",
                 "--out-dir", str(out), "--threshold", threshold)
    assert res.exit_code == 2
    assert not out.exists()


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


# ------------------------------------------------------------- hash seeds


HASH_SEED_CHILD = """
import json, pathlib, sys
from click.testing import CliRunner
from prefix_global.cli import main
for name, argv in json.loads(sys.argv[1]):
    res = CliRunner().invoke(main, argv)
    if res.exit_code:
        sys.exit(f"{name}: exit {res.exit_code}\\n{res.output}")
    pathlib.Path(name).write_bytes(res.stdout_bytes)
"""


def test_build_and_stats_write_the_same_bytes_under_two_hash_seeds(tmp_path):
    # a process's str hashes are fixed when it starts, so each PYTHONHASHSEED
    # gets its own interpreter, which runs every command in-process. Each build
    # runs twice into one out-dir, so a rebuild over its outputs is covered; the
    # lenient corpus is the benchmark's seed-3 corpus, with its malformed lines
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    lenient = str(tmp_path / "perfbench-seed3.jsonl")
    corpus.generate(lenient, 3, 1, corpus.vocabulary(demo_corpus_path()))
    runs = [(f"{prefix}{task.value}.{step}.stdout",
             ["build", *source, "--task", task.value, "--out-dir", prefix + task.value])
            for task in Task for step in ("first", "rebuild")
            for prefix, source in (("", [CORPUS]), ("lenient-", [lenient, "--lenient"]))]
    runs += [("stats.stdout", ["stats", CORPUS]), ("lenient-stats.stdout", ["stats", lenient, "--lenient"])]
    trees = []
    for seed in (1, 2):
        out = tmp_path / f"hashseed-{seed}"
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_CHILD, json.dumps(runs)], cwd=out,
                              env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": SRC},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        assert sorted(out.rglob("*.tmp")) == []
        trees.append({path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()})
    assert len(trees[0]) == 14 + 6 * 4  # every stdout, and four files in each out-dir
    differ = sorted(str(name) for name in trees[0].keys() | trees[1].keys() if trees[0].get(name) != trees[1].get(name))
    assert differ == []


# ----------------------------------------------------------- JSON reports


def test_every_json_report_is_written_with_sorted_keys(runner, tmp_path):
    # a report's bytes are pinned by its digest, so its key order is part of
    # the output: every JSON report is json.dumps with sort_keys and indent 2
    out = tmp_path / "out"
    texts = {
        "flops": invoke(runner, "flops", "--json").output,
        "attend": invoke(runner, "attend", "--kind", "prefix-global", "-l", "64", "-d", "8", "-r", "3", "-k", "8").output,
        "build": invoke(runner, "build", CORPUS, "--task", "page_description", "--out-dir", str(out)).output,
        "stats": invoke(runner, "stats", CORPUS).output,
    }
    texts["report.json"] = (out / "report.json").read_text(encoding="utf-8")
    for name, text in texts.items():
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
