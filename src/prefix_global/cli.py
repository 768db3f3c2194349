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
import sys

import click
import numpy as np

from . import __version__
from .cost import accounted_pairs, compare, mask_nnz, render_table
from .kernel import KernelStats, block_average, sparse_attention
from .numcore import dense_attention
from .page import SPLITS, CorpusError, iter_corpus
from .patterns import (
    DEFAULT_BLOCK,
    DEFAULT_PREFIX,
    DEFAULT_RADIUS,
    AttentionPattern,
    PatternError,
    PatternKind,
    build_mask,
    grid_lines,
)
from .pipeline import DEFAULT_CONTENT_SECTION_THRESHOLD, build_dataset, corpus_stats
from .sequence import PageDescPrefix, Task

KIND_CHOICES = [k.value for k in PatternKind]
ORACLE_LENGTH_CAP = 8192  # dense reference above this would allocate l*l floats


def _pattern_options(command):
    """--radius/-r, --prefix/-k and --block, one option set for mask, flops and
    attend. Each is None unless given, and AttentionPattern fills the default
    that --help names."""
    for *decls, default in (("--block", DEFAULT_BLOCK), ("--prefix", "-k", "prefix_k", f"min({DEFAULT_PREFIX}, l)"),
                            ("--radius", "-r", DEFAULT_RADIUS)):  # click lists options in the reverse of this order
        command = click.option(*decls, type=int, help=f"[default: {default}]")(command)
    return command


def _pattern(kind: str, l: int, r: int | None, k: int | None, block: int | None) -> AttentionPattern:
    try:
        return AttentionPattern(kind=kind, l=l, r=r, k=k, block=block)
    except PatternError as exc:
        raise click.UsageError(str(exc)) from exc


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _json(payload: dict) -> str:
    """A JSON report: the payload with the package version added."""
    return json.dumps({"version": __version__, **payload}, indent=2, sort_keys=True) + "\n"


def _emit(payload: dict) -> None:
    click.echo(_json(payload), nl=False)


@click.group()
@click.version_option(__version__, prog_name="prefix-global")
def main():
    """Sparse attention patterns, their cost model, and the page-to-sequence
    dataset pipeline."""


@main.command()
@click.option("--kind", type=click.Choice(KIND_CHOICES), default=PatternKind.PREFIX_GLOBAL.value, show_default=True)
@click.option("--length", "-l", type=int, required=True, help="Number of query tokens.")
@_pattern_options
@click.option("--fmt", "--format", type=click.Choice(["summary", "csv", "pgm"]), default="summary", show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the output here instead of stdout.")
def mask(kind, length, radius, prefix_k, block, fmt, out):
    """Summarize one attention mask in closed form, or build it and render it
    as CSV or PGM. Every format is written a line at a time, to stdout or to
    --out."""
    pattern = _pattern(kind, length, radius, prefix_k, block)
    if fmt == "summary":  # closed form: the summary builds no mask
        lines = [_json({
            "pattern": pattern.describe(),
            "nnz": mask_nnz(pattern),
            "accounted_pairs": accounted_pairs(pattern),
            "side_keys": pattern.side_keys,
        })]
    else:
        lines = grid_lines(build_mask(pattern), fmt)
    try:
        with open(out, "w", encoding="utf-8") if out is not None else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(lines)
            fh.flush()  # so a closed stdout fails here, inside click, not at interpreter exit
    except OSError as exc:
        if out is None:  # stdout closed early, as by `| head`: click exits 1 without a message
            raise
        raise click.ClickException(str(exc)) from exc
    if out is not None:
        click.echo(f"wrote {fmt} mask to {out}")


@main.command()
@click.option("--lengths", default="1024,2048,4096", show_default=True,
              help="Comma-separated sequence lengths.")
@click.option("--kinds", default="tglobal,prefix-global,full", show_default=True,
              help="Comma-separated pattern kinds.")
@_pattern_options
@click.option("--json", "as_json", is_flag=True, help="Emit the cells as JSON instead of a table.")
def flops(lengths, kinds, radius, prefix_k, block, as_json):
    """Attention cost (accounted query-key pairs) per pattern and length. The
    config echoes --radius, --prefix and --block as given, null where unset;
    each cell's pattern holds the values it used at its length."""
    try:
        # each value once, in first-seen order, so the table, the cells and the config agree
        ls = list(dict.fromkeys(int(tok) for tok in lengths.split(",") if tok.strip()))
    except ValueError as exc:
        raise click.UsageError(f"bad --lengths: {exc}") from exc
    kind_list = list(dict.fromkeys(tok.strip() for tok in kinds.split(",") if tok.strip()))
    if not ls or not kind_list:
        raise click.UsageError("--lengths and --kinds each need at least one value")
    patterns = [_pattern(kind, l, radius, prefix_k, block) for l in ls for kind in kind_list]
    reports = compare(patterns)
    if as_json:
        _emit({
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
@_pattern_options
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--scale/--no-scale", "scale", default=True, show_default=True,
              help="Divide scores by sqrt(dim).")
@click.option("--check-oracle", is_flag=True,
              help="Also run the dense masked reference and report max |diff|.")
def attend(kind, length, dim, radius, prefix_k, block, seed, scale, check_oracle):
    """Run the sparse forward pass on seeded random inputs and fingerprint
    the output.

    q, k and v are three seeded standard-normal length x dim draws, in that
    order. The config's radius, prefix and block are the values given, and
    for one left out, the value the pattern used, null where its kind does
    not use it. For tglobal, the block averages of k and v are appended as
    the side keys and values: LongT5 averages token embeddings and then
    projects them, and averaging commutes with a linear projection.

    output_sha256, and its sameness across kernel worker counts, hold only
    at one BLAS thread count; to compare fingerprints, set
    OPENBLAS_NUM_THREADS=1, as perfbench does."""
    pattern = _pattern(kind, length, radius, prefix_k, block)
    if check_oracle and length > ORACLE_LENGTH_CAP:
        raise click.UsageError(
            f"--check-oracle builds an l x l dense mask; keep --length <= {ORACLE_LENGTH_CAP}"
        )
    rng = np.random.default_rng(seed)
    q, k_mat, v_mat = (rng.standard_normal((length, dim)) for _ in range(3))
    if pattern.side_keys:
        k_mat = np.vstack([k_mat, block_average(k_mat, pattern.block)])
        v_mat = np.vstack([v_mat, block_average(v_mat, pattern.block)])
    stats = KernelStats()
    out = sparse_attention(q, k_mat, v_mat, pattern, scale_by_sqrt_d=scale, stats=stats)
    payload = {
        "config": {"kind": kind, "length": length, "dim": dim, "radius": pattern.r if radius is None else radius,
                   "prefix": pattern.k if prefix_k is None else prefix_k,
                   "block": pattern.block if block is None else block, "seed": seed, "scale_by_sqrt_d": scale},
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
    files plus an accounting report. An example is one line of its split's
    file: TaskExample.to_json_line, then a newline written on its own so
    the line is not copied to append it. Each file is written to <name>.tmp
    and the four are renamed over their targets only once every write has
    succeeded, so a failed run leaves the previous outputs as they were."""
    out = pathlib.Path(out_dir)
    names = [f"{split}.jsonl" for split in SPLITS] + ["report.json"]
    tmp = {name: out / f"{name}.tmp" for name in names}
    try:
        if any(path.exists() and os.path.samefile(corpus, path)
               for name in names for path in (out / name, tmp[name])):
            raise click.ClickException(f"corpus {corpus} is also an output file in {out_dir}; not overwriting it")
        digest = _file_digest(corpus)
        # a strict-mode CorpusError surfaces here, before any output file is opened
        routed, report = build_dataset(iter_corpus(corpus, strict=not lenient), task,
                                       threshold=threshold, variant=variant)
        payload = {
            "config": {"task": task, "threshold": threshold, "variant": variant,
                       "lenient": lenient},
            "input": {"path": os.fspath(corpus), "sha256": digest},
            "accounting": report.to_dict(),
        }
        out.mkdir(parents=True, exist_ok=True)
        try:
            with contextlib.ExitStack() as stack:
                handles = {split: stack.enter_context(open(tmp[f"{split}.jsonl"], "w", encoding="utf-8"))
                           for split in SPLITS}
                for r in routed:
                    fh = handles[r.split]
                    fh.write(r.example.to_json_line())
                    fh.write("\n")
            tmp["report.json"].write_text(_json(payload), encoding="utf-8")
            for name in names:
                os.replace(tmp[name], out / name)
        finally:  # after the renames there is nothing left to remove
            for path in tmp.values():
                path.unlink(missing_ok=True)
    except (CorpusError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    _emit(payload)


@main.command()
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--lenient", is_flag=True, help="Skip malformed records instead of failing.")
def stats(corpus, lenient):
    """Corpus statistics: section taxonomy counts and size distributions."""
    try:
        summary = corpus_stats(iter_corpus(corpus, strict=not lenient))
    except (CorpusError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    _emit({
        "input": {"path": os.fspath(corpus), "sha256": _file_digest(corpus)},
        "malformed_records": summary.pop("malformed_records"),
        "stats": summary,
    })


if __name__ == "__main__":
    main()
