"""Structured attention toolkit: masks, block-sparse kernels, cost accounting,
and webpage-to-sequence dataset construction.
"""

__version__ = "0.1.0"

from .cost import CostReport, accounted_pairs, compare, mask_nnz, render_table, report
from .demo import demo_corpus_path
from .kernel import KernelStats, block_average, sparse_attention, tglobal_attention
from .numcore import (
    MASKED,
    DegenerateRowError,
    ShapeError,
    dense_attention,
)
from .page import (
    CorpusError,
    ImageRef,
    MalformedRecord,
    Page,
    Section,
    SectionClass,
    assign_split,
    iter_corpus,
    parse_page,
)
from .patterns import (
    DEFAULT_BLOCK,
    DEFAULT_PREFIX,
    DEFAULT_RADIUS,
    AttentionMask,
    AttentionPattern,
    PatternError,
    PatternKind,
    build_mask,
    full,
    grid_lines,
    local,
    prefix_global,
    tglobal,
)
from .pipeline import (
    FilterReport,
    RoutedExample,
    build_dataset,
    corpus_stats,
)
from .sequence import (
    Origin,
    PageDescPrefix,
    Task,
    TaskExample,
    build_image_caption_input,
    build_page_description_input,
    build_section_summarization_input,
    leaks_target,
)

__all__ = [
    "__version__",
    # patterns
    "AttentionMask", "AttentionPattern", "PatternError", "PatternKind",
    "DEFAULT_BLOCK", "DEFAULT_PREFIX", "DEFAULT_RADIUS",
    "build_mask", "full", "local", "prefix_global", "tglobal", "grid_lines",
    # cost
    "CostReport", "accounted_pairs", "mask_nnz", "report", "compare", "render_table",
    # numerics
    "MASKED", "ShapeError", "DegenerateRowError", "dense_attention",
    # kernels
    "KernelStats", "sparse_attention", "tglobal_attention", "block_average",
    # page model
    "CorpusError", "MalformedRecord", "Page", "Section", "ImageRef", "SectionClass",
    "parse_page", "iter_corpus", "assign_split",
    # sequences
    "Task", "Origin", "PageDescPrefix", "TaskExample", "build_page_description_input",
    "build_section_summarization_input", "build_image_caption_input", "leaks_target",
    # pipeline
    "FilterReport", "RoutedExample", "build_dataset", "corpus_stats",
    # bundled corpus
    "demo_corpus_path",
]
