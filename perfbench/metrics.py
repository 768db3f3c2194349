"""The benchmark's shapes and its catalogue of per-layer metrics.

BENCHMARK.json lists the same per-layer names, units and directions; a test
keeps the two in step.
"""

TASKS = ("page_description", "section_summarization", "image_captioning")
LENGTHS = (2048, 4096, 16384)
MASK_LENGTHS = (4096, 16384)
SPARSE_KINDS = ("local", "tglobal", "prefix-global")
KERNEL_SHAPES = (("full", 2048),) + tuple((k, l) for k in SPARSE_KINDS for l in LENGTHS)
KERNEL_COUNTERS = ("attend_s", "computed_pairs", "utilization", "peak_score_elements", "score_blocks", "flops")


def layer_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order. Kernel
    metrics carry a .<kind>.<l> suffix on attend-sweep and none on
    page-attend, where they are summed over calls (the peak is a maximum)."""
    names = ["page.parse_s", "page.pages", "page.malformed"]
    for stem in ("pipeline.build_dataset_s", "pipeline.candidates", "pipeline.examples", "pipeline.yield",
                 "sequence.build_input_s", "sequence.slots", "sequence.prefix_capped",
                 "sequence.to_json_line_s", "sequence.json_bytes", "cli.build_self_s"):
        names += [f"{stem}.{t}" for t in TASKS]
    names += [f"sequence.check_s.{t}" for t in TASKS[1:]]  # page description has no check_* function
    for stem in KERNEL_COUNTERS:
        names += [f"kernel.{stem}.{k}.{l}" for k, l in KERNEL_SHAPES] + [f"kernel.{stem}"]
    for stem in ("patterns.build_mask_s", "patterns.mask_nnz"):
        names += [f"{stem}.{k}.{l}" for k in SPARSE_KINDS for l in MASK_LENGTHS]
    return names + ["trace.overhead"]


def layer_unit(name: str) -> str:
    stem = name.split(".")[1]
    if stem.endswith("_s"):
        return "s"
    return {"yield": "ratio", "utilization": "ratio", "overhead": "ratio", "json_bytes": "B",
            "flops": "flop"}.get(stem, "count")


def layer_better(name: str) -> str:
    """Time and work done are better lower; useful shares and outputs higher."""
    stem = name.split(".")[1]
    costly = ("computed_pairs", "peak_score_elements", "score_blocks", "flops", "json_bytes", "overhead")
    return "lower" if stem.endswith("_s") or stem in costly else "higher"
