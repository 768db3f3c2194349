"""The benchmark's own tests: corpus determinism, and that its checks catch
corrupted outputs and count them as failed ops."""

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import metrics  # noqa: E402
from prefix_global import build_mask, cli, prefix_global, sparse_attention, tglobal, tglobal_attention  # noqa: E402

DEMO = HERE.parent / "src" / "prefix_global" / "data" / "demo_corpus.jsonl"


@pytest.fixture(scope="module")
def vocab():
    return corpus.vocabulary(DEMO)


def test_corpus_bytes_follow_the_seed(tmp_path, vocab):
    paths = [tmp_path / f"{n}.jsonl" for n in "abc"]
    tallies = [corpus.generate(p, seed, 1, vocab) for p, seed in zip(paths, (5, 5, 6))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert tallies[0] == tallies[1]
    assert paths[0].read_bytes() != paths[2].read_bytes()
    # the shape is fixed by the archetypes, whatever the seed
    assert tallies[0]["page_description"] == tallies[2]["page_description"]


def build(corpus_path, task, out_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["build", str(corpus_path), "--task", task, "--out-dir", str(out_dir), "--lenient"],
                 standalone_mode=False)
    return json.loads(buf.getvalue())


def test_build_check_catches_a_flipped_byte(tmp_path, vocab):
    tally = corpus.generate(tmp_path / "c.jsonl", 3, 1, vocab)
    out = tmp_path / "out"
    report = build(tmp_path / "c.jsonl", "page_description", out)
    task = tally["page_description"]
    assert checks.check_build(out, report, task, "page_description", tally["prefix_capped"])[0] == []
    before = checks.file_digests(out)

    train = out / "train.jsonl"
    data = bytearray(train.read_bytes())
    at = data.index(b'"token":"') + len(b'"token":"')
    data[at] ^= 0x01  # still valid JSON, so only the digest can tell
    train.write_bytes(bytes(data))
    after = "/".join(checks.file_digests(out).values())
    assert checks.count_failed(["/".join(before.values()), after], "/".join(before.values()), True) == 1

    data[0:1] = b"x"  # no longer JSON
    train.write_bytes(bytes(data))
    assert checks.check_build(out, report, task, "page_description", tally["prefix_capped"])[0]


def test_build_check_compares_with_the_tally(tmp_path, vocab):
    tally = corpus.generate(tmp_path / "c.jsonl", 4, 1, vocab)
    report = build(tmp_path / "c.jsonl", "image_captioning", tmp_path / "out")
    wrong = json.loads(json.dumps(tally["image_captioning"]))
    wrong["rejections"]["parse_error"] += 1
    assert checks.check_build(tmp_path / "out", report, tally["image_captioning"], "image_captioning", None)[0] == []
    assert checks.check_build(tmp_path / "out", report, wrong, "image_captioning", None)[0]


def test_row_oracle_catches_a_perturbed_row():
    rng = np.random.default_rng(0)
    l, k = 300, 40
    q, kk, v = (rng.standard_normal((l, 16)) for _ in range(3))
    pattern = prefix_global(l, k=k, r=16)
    out = sparse_attention(q, kk, v, pattern)
    mask = build_mask(pattern)
    rows = checks.sample_rows(rng, l, k, 16)
    cols = {i: mask.rows[i] for i in rows}
    good = {i: out[i] for i in rows}
    assert checks.check_rows("pg", good, q, kk, v, cols) == []
    bad = dict(good)
    bad[rows[3]] = good[rows[3]] + 1e-6
    assert checks.check_rows("pg", bad, q, kk, v, cols)
    assert checks.count_failed(["d", "d"], "d", False) == 2


def test_row_oracle_averages_tglobal_side_keys_itself():
    rng = np.random.default_rng(1)
    l, d = 200, 8
    emb, q = rng.standard_normal((l, d)), rng.standard_normal((l, d))
    kp, vp = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    pattern = tglobal(l, r=9, block=16)
    out = tglobal_attention(q, emb @ kp, emb @ vp, pattern, emb, kp, vp)
    side = checks.block_means(emb, 16)
    keys, values = np.vstack([emb @ kp, side @ kp]), np.vstack([emb @ vp, side @ vp])
    mask = build_mask(pattern)
    rows = checks.sample_rows(rng, l, 0, 20)
    assert checks.check_rows("tg", {i: out[i] for i in rows}, q, keys, values, {i: mask.rows[i] for i in rows}) == []


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metrics.layer_names()
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == (metrics.layer_unit(m["name"]), metrics.layer_better(m["name"]))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "attend-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
