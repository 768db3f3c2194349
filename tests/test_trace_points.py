"""The benchmark's per-layer trace still finds every function it wraps.

perfbench/worker.py wraps package functions where their callers look them
up, such as the pipeline's check_* and build_*_input globals. A wrap point
that a refactor removes or renames is only noted in `tracer.missing`, and
the metrics it fed then read 0; this test fails instead.
"""

import importlib.util
import pathlib
import sys

import pytest

from prefix_global import pipeline
from prefix_global.demo import demo_corpus_path
from prefix_global.page import iter_corpus
from prefix_global.sequence import Task

WORKER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(worker)
    finally:
        sys.path[:] = saved  # the worker puts its own directory first
    return worker


def test_every_wrap_point_exists():
    worker = load_worker()
    tracer = worker.Tracer()
    try:
        worker.install(tracer, False)
        assert tracer.missing == {}
        _, report = pipeline.build_dataset(iter_corpus(demo_corpus_path()), Task.SECTION_SUMMARIZATION)
        checked = [span for span in tracer.spans if span[0] == "sequence.check_s"]
        assert len(checked) == report.candidates
        assert tracer.counters["pipeline.examples.section_summarization"] == report.examples_out > 0
    finally:
        tracer.unwrap_all()
    assert pipeline.build_dataset.__module__ == pipeline.__name__  # unwrapped for the other tests


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_every_check_and_build_is_traced(task):
    # build_dataset calls each check_* and build_*_input as a pipeline global,
    # so the benchmark's wrappers see one span per call; a step that bound
    # them locally would leave these spans, and their metrics, at 0
    worker = load_worker()
    tracer = worker.Tracer()
    try:
        worker.install(tracer, False)
        _, report = pipeline.build_dataset(iter_corpus(demo_corpus_path()), task)
        spans = [span[0] for span in tracer.spans]
        assert spans.count("sequence.build_input_s") == report.examples_out > 0
        if task is not Task.PAGE_DESCRIPTION:  # the page-description check has no wrap point
            assert spans.count("sequence.check_s") == report.candidates > report.examples_out
    finally:
        tracer.unwrap_all()
    assert pipeline.build_dataset.__module__ == pipeline.__name__
