"""Command line entry points.

Exit codes follow click conventions: 0 on success, 2 for bad arguments
(including pattern parameter violations), 1 for runtime failures such as
unreadable or malformed corpus files. Reports are JSON on stdout and embed
the package version plus the full effective configuration so a run can be
reproduced from its own output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib

import click
import numpy as np

from . import __version__
from .cost import accounted_pairs, compare, mask_nnz, render_table
from .kernel import KernelStats, block_average, sparse_attention
from .numcore import dense_attention
from .page import SPLITS, CorpusError, MalformedRecord, iter_corpus
from .patterns import (
    DEFAULT_BLOCK,
    DEFAULT_PREFIX,
    DEFAULT_RADIUS,
    AttentionPattern,
    PatternError,
    PatternKind,
    build_mask,
    render_csv,
    render_pgm,
)
from .pipeline import DEFAULT_CONTENT_SECTION_THRESHOLD, build_dataset, corpus_stats
from .sequence import PageDescPrefix, Task

KIND_CHOICES = [k.value for k in PatternKind]
ORACLE_LENGTH_CAP = 8192  # dense reference above this would allocate l*l floats


def _pattern(kind: str, l: int, r: int, k: int, block: int) -> AttentionPattern:
    try:
        return AttentionPattern(kind=PatternKind(kind), l=l, r=r, k=k, block=block)
    except PatternError as exc:
        raise click.UsageError(str(exc)) from exc


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


@click.group()
@click.version_option(__version__, prog_name="prefix-global")
def main():
    """Sparse attention patterns, their cost model, and the page-to-sequence
    dataset pipeline."""


@main.command()
@click.option("--kind", type=click.Choice(KIND_CHOICES), default=PatternKind.PREFIX_GLOBAL.value, show_default=True)
@click.option("--length", "-l", type=int, required=True, help="Number of query tokens.")
@click.option("--radius", "-r", type=int, default=DEFAULT_RADIUS, show_default=True)
@click.option("--prefix", "-k", "prefix_k", type=int, default=DEFAULT_PREFIX, show_default=True)
@click.option("--block", type=int, default=DEFAULT_BLOCK, show_default=True)
@click.option("--fmt", "--format", type=click.Choice(["summary", "csv", "pgm"]), default="summary", show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write rendered mask here instead of stdout.")
def mask(kind, length, radius, prefix_k, block, fmt, out):
    """Summarize one attention mask in closed form, or build and render it."""
    pattern = _pattern(kind, length, radius, prefix_k, block)
    if fmt == "summary":
        _emit({
            "version": __version__,
            "pattern": pattern.describe(),
            "nnz": mask_nnz(pattern),
            "accounted_pairs": accounted_pairs(pattern),
            "side_keys": pattern.side_keys,
        })
        return
    built = build_mask(pattern)
    rendered = render_csv(built) if fmt == "csv" else render_pgm(built)
    if out is None:
        click.echo(rendered, nl=False)
    else:
        try:
            pathlib.Path(out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise click.ClickException(str(exc)) from exc
        click.echo(f"wrote {fmt} mask to {out}")


@main.command()
@click.option("--lengths", default="1024,2048,4096", show_default=True,
              help="Comma-separated sequence lengths.")
@click.option("--kinds", default="tglobal,prefix-global,full", show_default=True,
              help="Comma-separated pattern kinds.")
@click.option("--radius", "-r", type=int, default=DEFAULT_RADIUS, show_default=True)
@click.option("--prefix", "-k", "prefix_k", type=int, default=DEFAULT_PREFIX, show_default=True)
@click.option("--block", type=int, default=DEFAULT_BLOCK, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit the cells as JSON instead of a table.")
def flops(lengths, kinds, radius, prefix_k, block, as_json):
    """Attention cost (accounted query-key pairs) per pattern and length."""
    try:
        ls = [int(tok) for tok in lengths.split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --lengths: {exc}") from exc
    kind_list = [tok.strip() for tok in kinds.split(",") if tok.strip()]
    if not ls or not kind_list:
        raise click.UsageError("--lengths and --kinds each need at least one value")
    for tok in kind_list:
        if tok not in KIND_CHOICES:
            raise click.UsageError(f"unknown kind {tok!r}; choose from {KIND_CHOICES}")
    patterns = [_pattern(kind, l, radius, prefix_k, block) for l in ls for kind in kind_list]
    reports = compare(patterns)
    if as_json:
        _emit({
            "version": __version__,
            "config": {"lengths": ls, "kinds": kind_list, "radius": radius,
                       "prefix": prefix_k, "block": block},
            "cells": [c.to_dict() for c in reports],
        })
    else:
        click.echo(render_table(reports))


@main.command()
@click.option("--kind", type=click.Choice(KIND_CHOICES), default=PatternKind.PREFIX_GLOBAL.value, show_default=True)
@click.option("--length", "-l", type=int, default=1024, show_default=True)
@click.option("--dim", "-d", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--radius", "-r", type=int, default=DEFAULT_RADIUS, show_default=True)
@click.option("--prefix", "-k", "prefix_k", type=int, default=DEFAULT_PREFIX, show_default=True)
@click.option("--block", type=int, default=DEFAULT_BLOCK, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--scale/--no-scale", "scale", default=True, show_default=True,
              help="Divide scores by sqrt(dim).")
@click.option("--check-oracle", is_flag=True,
              help="Also run the dense masked reference and report max |diff|.")
def attend(kind, length, dim, radius, prefix_k, block, seed, scale, check_oracle):
    """Run the sparse forward pass on seeded random inputs and fingerprint
    the output.

    output_sha256, and its sameness across kernel worker counts, hold only
    at one BLAS thread count; to compare fingerprints, set
    OPENBLAS_NUM_THREADS=1, as perfbench does."""
    pattern = _pattern(kind, length, radius, prefix_k, block)
    if check_oracle and length > ORACLE_LENGTH_CAP:
        raise click.UsageError(
            f"--check-oracle builds an l x l dense mask; keep --length <= {ORACLE_LENGTH_CAP}"
        )
    rng = np.random.default_rng(seed)
    stats = KernelStats()
    if pattern.kind is PatternKind.TGLOBAL:
        emb = rng.standard_normal((length, dim))
        key_proj = rng.standard_normal((dim, dim))
        value_proj = rng.standard_normal((dim, dim))
        q = rng.standard_normal((length, dim))
        averaged = block_average(emb, pattern.block)
        k_mat = np.vstack([emb @ key_proj, averaged @ key_proj])
        v_mat = np.vstack([emb @ value_proj, averaged @ value_proj])
    else:
        q = rng.standard_normal((length, dim))
        k_mat = rng.standard_normal((length, dim))
        v_mat = rng.standard_normal((length, dim))
    out = sparse_attention(q, k_mat, v_mat, pattern, scale_by_sqrt_d=scale, stats=stats)
    payload = {
        "version": __version__,
        "config": {"kind": kind, "length": length, "dim": dim, "radius": radius,
                   "prefix": prefix_k, "block": block, "seed": seed,
                   "scale_by_sqrt_d": scale},
        "output_sha256": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest(),
        "peak_score_elements": stats.peak_score_elements,
        "score_blocks": stats.score_blocks,
    }
    if check_oracle:
        dense = dense_attention(q, k_mat, v_mat, build_mask(pattern).to_additive(), scale_by_sqrt_d=scale)
        payload["max_abs_diff"] = float(np.max(np.abs(out - dense)))
    _emit(payload)


@main.command()
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--task", type=click.Choice([t.value for t in Task]), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("--threshold", type=click.IntRange(min=0), default=DEFAULT_CONTENT_SECTION_THRESHOLD, show_default=True,
              help="Minimum content sections for page description eligibility.")
@click.option("--variant", type=click.Choice([v.value for v in PageDescPrefix]),
              default=PageDescPrefix.TITLES_AND_FIRST_SENTENCES.value, show_default=True,
              help="Page-description prefix layout.")
@click.option("--lenient", is_flag=True,
              help="Count malformed records as parse_error rejections instead of failing.")
def build(corpus, task, out_dir, threshold, variant, lenient):
    """Build one task dataset from a JSONL corpus: train/val/test example
    files plus an accounting report."""
    out = pathlib.Path(out_dir)
    split_paths = {split: out / f"{split}.jsonl" for split in SPLITS}
    try:
        if any(path.exists() and os.path.samefile(corpus, path)
               for path in [*split_paths.values(), out / "report.json"]):
            raise click.ClickException(f"corpus {corpus} is also an output file in {out_dir}; not overwriting it")
        digest = _file_digest(corpus)
        # a strict-mode CorpusError surfaces here, before any split file is opened
        routed, report = build_dataset(iter_corpus(corpus, strict=not lenient), Task(task),
                                       threshold=threshold, variant=PageDescPrefix(variant))
        out.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:
            handles = {split: stack.enter_context(open(path, "w", encoding="utf-8"))
                       for split, path in split_paths.items()}
            for r in routed:
                handles[r.split].write(r.example.to_json_line() + "\n")
        payload = {
            "version": __version__,
            "config": {"task": task, "threshold": threshold, "variant": variant,
                       "lenient": lenient},
            "input": {"path": os.fspath(corpus), "sha256": digest},
            "accounting": report.to_dict(),
        }
        (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    except (CorpusError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    _emit(payload)


@main.command()
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--lenient", is_flag=True, help="Skip malformed records instead of failing.")
def stats(corpus, lenient):
    """Corpus statistics: section taxonomy counts and size distributions."""
    malformed = 0

    def pages():
        nonlocal malformed
        for item in iter_corpus(corpus, strict=not lenient):
            if isinstance(item, MalformedRecord):
                malformed += 1
            else:
                yield item

    try:
        summary = corpus_stats(pages())
    except (CorpusError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    _emit({
        "version": __version__,
        "input": {"path": os.fspath(corpus), "sha256": _file_digest(corpus)},
        "malformed_records": malformed,
        "stats": summary,
    })


if __name__ == "__main__":
    main()
