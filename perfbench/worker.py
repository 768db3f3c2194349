"""One benchmark run: imports prefix_global, runs one workload, checks it.

run.py starts this file once per run, with BLAS pinned to one thread and
PREFIX_GLOBAL_THREADS removed from its environment. This process is the one
that makes the package's calls, so its peak RSS belongs to the workload and
not to the corpus generator. It prints one JSON object as the last line of
its standard output.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import zlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import prefix_global  # noqa: E402
from prefix_global import cli, cost, kernel, numcore, page, patterns, pipeline, sequence  # noqa: E402

from checks import ATOL, block_means, check_build, check_rows, count_failed, file_digests, sample_rows  # noqa: E402
from clock import Clock  # noqa: E402
from metrics import LENGTHS, MASK_LENGTHS, SPARSE_KINDS, TASKS, layer_names  # noqa: E402
from probe import warm_up  # noqa: E402
from tracing import Tracer  # noqa: E402

D = D_V = 64
PAGE_ATTEND_TASKS = ("page_description", "section_summarization")
EMBED_ROWS = 4096  # hashed-token embedding table size
SAMPLED_ROWS = 48  # oracle rows checked per long output, plus the band edges
SAMPLE_EVERY = 8  # page-attend: every 8th example goes through the row oracle
PATTERNS = {"full": patterns.full, "local": patterns.local, "tglobal": patterns.tglobal,
            "prefix-global": patterns.prefix_global}


def median(values):
    return statistics.median(values) if values else 0.0


def digest_array(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class CountingStats(kernel.KernelStats):
    """KernelStats that also sums the elements of every score block, so
    computed pairs never depend on the class's private fields."""

    def __init__(self):
        super().__init__()
        self.elements = 0

    def record(self, n_elements: int) -> None:
        super().record(n_elements)
        self.elements += n_elements


class Run:
    """State shared by the workloads: the timing clock, the tracer of the
    current pass (None when untraced), per-op output digests and errors.

    Package functions are always looked up on their module at call time, so
    the tracer's wrappers see the calls of traced passes."""

    def __init__(self, work: pathlib.Path, seed: int, tally: dict, numpy_share: float):
        self.work, self.seed, self.tally = work, seed, tally
        self.clock = Clock(numpy_share)
        self.tracer = None
        self.digests = {}  # op key -> one digest per repetition (None if it raised)
        self.errors = []

    def op(self, key, digest) -> None:
        """Record one finished op's output digest and close its timing chunk."""
        self.digests.setdefault(key, []).append(digest)
        self.clock.tick()

    def reference_pass(self, workload) -> dict:
        """Run one more pass, untimed and after the peak RSS was read, with
        the workload keeping what its checks need. Nothing is kept during
        measured passes, so kept data cannot shift the peak. Returns that
        pass's digests, the references for the measured ones."""
        measured, self.digests = self.digests, {}
        workload.kept = {}
        try:
            workload.one_pass()
        finally:
            reference, self.digests = self.digests, measured
        return reference

    def fail(self, key, exc) -> None:
        self.op(key, None)
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")

    def attend(self, q, k, v, pattern, suffix: str, **extra):
        """One kernel call; returns (output, seconds). In traced passes the
        kernel counters go to the tracer under `suffix`."""
        stats = CountingStats() if self.tracer else None
        fn = kernel.tglobal_attention if pattern.kind.value == "tglobal" else kernel.sparse_attention
        out, dt = self.clock.call(fn, q, k, v, pattern, stats=stats, **extra)
        if self.tracer:
            tr = self.tracer
            tr.count(f"kernel.computed_pairs{suffix}", stats.elements)
            tr.count(f"kernel.score_blocks{suffix}", stats.score_blocks)
            tr.maximum(f"kernel.peak_score_elements{suffix}", stats.peak_score_elements)
            tr.count(f"kernel.useful_pairs{suffix}", cost.mask_nnz(pattern))
        return out, dt


class CorpusBuild:
    """`build` for each task, in-process through the click entry point."""

    unit = "input pages through one build call"
    numpy_share = 0.0

    def __init__(self, run: Run):
        self.run = run
        self.corpus = run.work / "corpus.jsonl"
        self.reports = {}

    def out_dir(self, task):
        return self.run.work / "out" / task

    def split_digest(self, task) -> str:
        return "/".join(file_digests(self.out_dir(task)).values())

    def one_pass(self):
        r = self.run
        parts = {}
        for task in TASKS:
            argv = ["build", str(self.corpus), "--task", task, "--out-dir", str(self.out_dir(task)), "--lenient"]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), (
                        r.tracer.span("cli.build_self_s", on=task) if r.tracer else contextlib.nullcontext()):
                    _, dt = r.clock.call(cli.main, argv, standalone_mode=False)
                self.reports[task] = json.loads(buf.getvalue())
            except Exception as exc:  # a failed op is counted, never fatal
                r.fail(task, exc)
                continue
            r.op(task, self.split_digest(task))
            parts[task] = (r.tally["pages"], dt)
        return parts

    def named(self, passes) -> dict:
        return {f"build_pages_per_s.{t}": ("pages/s", median([p[t][0] / p[t][1] for p in passes if t in p]))
                for t in TASKS}

    def check(self):
        r, failures, ok, shape = self.run, [], {}, {}
        for task in TASKS:
            if task not in self.reports:
                ok[task] = (None, False)
                continue
            capped = r.tally["prefix_capped"] if task == "page_description" else None
            found, slots = check_build(self.out_dir(task), self.reports[task], r.tally[task], task, capped)
            failures += found
            ok[task] = (self.split_digest(task), not found)
            shape[task] = slot_shape(slots)
        shape["split_sha256"] = {t: self.split_digest(t) for t in TASKS if t in self.reports}
        return failures, ok, shape


class AttendSweep:
    """Forward passes over seeded q/k/v at the default geometry, plus build_mask."""

    unit = "query rows through a forward pass or build_mask"
    numpy_share = 0.85

    def __init__(self, run: Run):
        self.run = run
        rng = np.random.default_rng(run.seed)
        self.inputs = {}
        for l in LENGTHS:
            q, k, v, emb = (rng.standard_normal((l, D)) for _ in range(4))
            kp, vp = rng.standard_normal((D, D)) / 8, rng.standard_normal((D, D_V)) / 8
            self.inputs[l] = dict(q=q, k=k, v=v, emb=emb, kp=kp, vp=vp, kt=emb @ kp, vt=emb @ vp)
        self.forward = [("full", 2048)] + [(kind, l) for l in LENGTHS for kind in SPARSE_KINDS]
        self.masks = [(kind, l) for l in MASK_LENGTHS for kind in SPARSE_KINDS]
        self.sampled = {l: sample_rows(rng, l, 512, SAMPLED_ROWS) for l in MASK_LENGTHS}
        self.kept = None  # in the reference pass: op key -> output at l=2048, else {row: output row or key columns}

    def one_pass(self):
        r = self.run
        parts = {}
        for kind, l in self.forward:
            x = self.inputs[l]
            key = ("attend", kind, l)
            try:
                if kind == "tglobal":
                    out, dt = r.attend(x["q"], x["kt"], x["vt"], PATTERNS[kind](l), f".{kind}.{l}",
                                       token_embeddings=x["emb"], key_proj=x["kp"], value_proj=x["vp"])
                else:
                    out, dt = r.attend(x["q"], x["k"], x["v"], PATTERNS[kind](l), f".{kind}.{l}")
            except Exception as exc:
                r.fail(key, exc)
                continue
            r.op(key, digest_array(out))
            if self.kept is not None:
                self.kept[key] = out if l == 2048 else {i: out[i].copy() for i in self.sampled[l]}
            rows, secs = parts.get(kind, (0, 0.0))
            parts[kind] = (rows + l, secs + dt)
        for kind, l in self.masks:
            key = ("mask", kind, l)
            try:
                mask, dt = r.clock.call(patterns.build_mask, PATTERNS[kind](l))
            except Exception as exc:
                r.fail(key, exc)
                continue
            r.op(key, f"nnz={mask.nnz()}")
            if self.kept is not None:
                self.kept[key] = {i: mask.rows[i] for i in self.sampled[l]}
            del mask
            rows, secs = parts.get("mask", (0, 0.0))
            parts["mask"] = (rows + l, secs + dt)
        return parts

    def named(self, passes) -> dict:
        out = {f"attend_tokens_per_s.{k}": ("rows/s", median([p[k][0] / p[k][1] for p in passes if k in p]))
               for k in ("full",) + SPARSE_KINDS}
        out["mask_rows_per_s"] = ("rows/s", median([p["mask"][0] / p["mask"][1] for p in passes if "mask" in p]))
        return out

    def keys_values(self, kind, l):
        x = self.inputs[l]
        if kind != "tglobal":
            return x["k"], x["v"]
        side = block_means(x["emb"], 16)
        return np.vstack([x["kt"], side @ x["kp"]]), np.vstack([x["vt"], side @ x["vp"]])

    def check(self):
        r, failures, ok = self.run, [], {}
        reference = r.reference_pass(self)
        for kind, l in self.forward:
            key = ("attend", kind, l)
            if key not in self.kept:
                ok[key] = (None, False)
                continue
            x = self.inputs[l]
            keys, values = self.keys_values(kind, l)
            kept = self.kept[key]
            if l == 2048:
                additive = patterns.build_mask(PATTERNS[kind](l)).to_additive()
                err = float(np.max(np.abs(kept - numcore.dense_attention(x["q"], keys, values, additive))))
                found = [] if err <= ATOL else [f"{kind} l={l}: differs from dense_attention by {err:.3g}"]
            else:
                found = check_rows(f"{kind} l={l}", kept, x["q"], keys, values, self.kept[("mask", kind, l)])
            failures += found
            ok[key] = (reference[key][0], not found)
        for kind, l in self.masks:
            want = f"nnz={cost.mask_nnz(PATTERNS[kind](l))}"
            if reference.get(("mask", kind, l)) != [want]:
                failures.append(f"build_mask {kind} l={l}: nnz differs from cost.mask_nnz")
            ok[("mask", kind, l)] = (want, True)
        return failures, ok, {}


class PageAttend:
    """Corpus line -> examples -> one prefix-global forward pass per example."""

    unit = "examples carried from corpus line to attention output"
    numpy_share = 0.85

    def __init__(self, run: Run):
        self.run = run
        rng = np.random.default_rng(run.seed)
        self.table = rng.standard_normal((EMBED_ROWS, D))
        self.proj = [rng.standard_normal((D, D)) / 8 for _ in range(3)]
        self.corpus = run.work / "corpus.jsonl"
        self.expected = sum(run.tally[t]["examples"] for t in PAGE_ATTEND_TASKS)
        self.kept = None  # in the reference pass: example number -> (tokens, prefix_len, {row: output row})

    @staticmethod
    def tokens(example) -> list:
        d = example.to_dict()
        return [s["token"] if s["kind"] == "text" else s["image"] for s in d["prefix"] + d["context"]]

    def embed(self, tokens):
        """Seeded hashed-token embeddings, projected to q, k and v."""
        x = self.table[np.fromiter((zlib.crc32(t.encode("utf-8")) % EMBED_ROWS for t in tokens), dtype=np.int64)]
        return [x @ w for w in self.proj]

    def one_pass(self):
        r = self.run
        tasks = [sequence.Task(t) for t in PAGE_ATTEND_TASKS]
        n, secs = 0, 0.0
        try:
            it = page.iter_corpus(self.corpus, strict=False)
            while True:
                item, dt = r.clock.call(next, it, None)
                secs += dt
                if item is None:
                    break
                if isinstance(item, page.MalformedRecord):
                    continue
                for task in tasks:
                    (routed, _), dt = r.clock.call(pipeline.build_dataset, [item], task)
                    secs += dt
                    for routed_example in routed:
                        ex = routed_example.example
                        tokens = self.tokens(ex)
                        q, k, v = self.embed(tokens)
                        pattern, dt = r.clock.call(patterns.prefix_global, len(ex.slots), k=ex.prefix_len)
                        out, dt2 = r.attend(q, k, v, pattern, "")
                        secs += dt + dt2
                        r.op(n, digest_array(out))
                        if self.kept is not None:
                            rows = sample_rows(np.random.default_rng(n), len(tokens), ex.prefix_len, 8)
                            self.kept[n] = (tokens, ex.prefix_len, {i: out[i].copy() for i in rows})
                        n += 1
        except Exception as exc:
            r.fail("page-attend", exc)
        return {"examples": (n, secs)}

    def named(self, passes) -> dict:
        return {"page_attend_examples_per_s": ("examples/s", median([p["examples"][0] / p["examples"][1]
                                                                    for p in passes]))}

    def check(self):
        r, failures, ok = self.run, [], {}
        reference = r.reference_pass(self)
        for n in range(max(self.expected, len(self.kept))):
            if n not in self.kept or n not in reference:
                ok[n] = (None, False)  # a tallied example that never came out, or an extra one
                continue
            found = []
            if n % SAMPLE_EVERY == 0:
                tokens, k, out_rows = self.kept[n]
                q, kk, v = self.embed(tokens)
                mask = patterns.build_mask(patterns.prefix_global(len(tokens), k=k))
                found = check_rows(f"example {n} l={len(tokens)} k={k}", out_rows, q, kk, v,
                                   {i: mask.rows[i] for i in out_rows})
            failures += found
            ok[n] = (reference[n][0], not found)
        if len(self.kept) != self.expected:
            failures.append(f"{len(self.kept)} examples per pass, tallied {self.expected}")
        return failures, ok, {"examples": slot_shape([len(t) for t, _, _ in self.kept.values()])}


WORKLOADS = {"corpus-build": CorpusBuild, "attend-sweep": AttendSweep, "page-attend": PageAttend}


def slot_shape(slots) -> dict:
    s = sorted(slots)
    if not s:
        return {}
    return {"examples": len(s), "slots_p50": s[len(s) // 2], "slots_p90": s[int(len(s) * 0.9)], "slots_max": s[-1]}


def install(tracer: Tracer, per_shape: bool) -> None:
    """Wrap the package's functions where their callers look them up."""

    def on_item(item, _):
        tracer.count("page.malformed" if isinstance(item, page.MalformedRecord) else "page.pages")

    for owner in (cli, page):
        tracer.wrap(owner, "iter_corpus", "page.parse_s", after=on_item, generator=True,
                    counts=("page.pages", "page.malformed"))

    def on_dataset(result, _):
        report = result[1]
        tracer.count(f"pipeline.candidates.{report.task.value}", report.candidates)
        tracer.count(f"pipeline.examples.{report.task.value}", report.examples_out)

    for owner in (cli, pipeline):
        tracer.wrap(owner, "build_dataset", "pipeline.build_dataset_s",
                    attrs=lambda a, kw: {"on": sequence.Task(a[1] if len(a) > 1 else kw["task"]).value},
                    after=on_dataset, counts=("pipeline.candidates", "pipeline.examples", "pipeline.yield"))

    def on_example(ex, _):
        task = ex.task.value
        tracer.count(f"sequence.slots.{task}", len(ex.slots))
        tracer.count(f"sequence.prefix_capped.{task}", ex.prefix_len == 512)

    for task, fn in zip(TASKS, ("build_page_description_input", "build_section_summarization_input",
                                "build_image_caption_input")):
        tracer.wrap(pipeline, fn, "sequence.build_input_s", attrs=lambda a, kw, t=task: {"on": t},
                    after=on_example, counts=("sequence.slots", "sequence.prefix_capped"))
    for task, fn in zip(TASKS[1:], ("check_section_summarization", "check_image_caption")):
        tracer.wrap(pipeline, fn, "sequence.check_s", attrs=lambda a, kw, t=task: {"on": t})

    tracer.wrap(sequence.TaskExample, "to_json_line", "sequence.to_json_line_s",
                attrs=lambda a, kw: {"on": a[0].task.value},
                after=lambda s, rec: tracer.count(f"sequence.json_bytes.{rec[4]['on']}", len(s.encode("utf-8"))),
                counts=("sequence.json_bytes",))

    def shape_of(a, kw):
        return {"on": f"{a[3].kind.value}.{a[3].l}"} if per_shape else {}

    for fn in ("sparse_attention", "tglobal_attention"):
        tracer.wrap(kernel, fn, "kernel.attend_s", attrs=shape_of, counts=("kernel.",))
    tracer.wrap(patterns, "build_mask", "patterns.build_mask_s",
                attrs=lambda a, kw: {"on": f"{a[0].kind.value}.{a[0].l}"},
                after=lambda m, rec: tracer.count(f"patterns.mask_nnz.{rec[4]['on']}", m.nnz()),
                counts=("patterns.mask_nnz",))


def pass_layers(tracer: Tracer, start: int) -> dict:
    """Per-layer metrics of one traced pass: spans from `start` on, plus counters."""
    out = dict.fromkeys(layer_names(), 0.0)
    for (name, *attrs), secs in tracer.self_times(start).items():
        on = dict(attrs).get("on")
        key = f"{name}.{on}" if on else name
        out[key] = out.get(key, 0.0) + secs
    out.update(tracer.counters)
    for sfx in [k[len("kernel.useful_pairs"):] for k in tracer.counters if k.startswith("kernel.useful_pairs")]:
        computed = out.get(f"kernel.computed_pairs{sfx}", 0)
        out[f"kernel.utilization{sfx}"] = out.pop(f"kernel.useful_pairs{sfx}") / computed if computed else 0.0
        out[f"kernel.flops{sfx}"] = 2 * (D + D_V) * computed
    for t in TASKS:
        cands = out[f"pipeline.candidates.{t}"]
        out[f"pipeline.yield.{t}"] = out[f"pipeline.examples.{t}"] / cands if cands else 0.0
    return out


def timed_pass(workload, run: Run) -> dict:
    """One pass: items done, raw seconds per part, and the host-rescaled seconds."""
    parts = workload.one_pass()
    return {"parts": parts, "items": sum(n for n, _ in parts.values()), "scaled_s": run.clock.take()}


def measure(workload, run: Run, seconds: float, tracer):
    """Repeat passes for `seconds`; with a tracer, alternate untraced and
    traced passes. Returns the two pass lists, per-layer metrics of each
    traced pass, and the peak RSS in MB, read before any check runs."""
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        plain.append(timed_pass(workload, run))
        if tracer:
            start = len(tracer.spans)
            tracer.counters.clear()
            install(tracer, per_shape=isinstance(workload, AttendSweep))
            run.tracer = tracer
            try:
                traced.append(timed_pass(workload, run))
            finally:
                run.tracer = None
                tracer.unwrap_all()
            layers.append(pass_layers(tracer, start))
        if time.perf_counter() >= t_end:
            break
    return plain, traced, layers, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def throughput(passes) -> float:
    """Median over passes of items per host-rescaled second."""
    return median([p["items"] / p["scaled_s"] for p in passes if p["items"]])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", type=pathlib.Path, required=True, help="directory holding corpus.jsonl and tally.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not pathlib.Path(prefix_global.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"prefix_global was imported from {prefix_global.__file__}, not from {SRC}")
    warm_up(prefix_global, np)

    cls = WORKLOADS[args.workload]
    run = Run(args.work, args.seed, json.loads((args.work / "tally.json").read_text()), cls.numpy_share)
    workload = cls(run)
    tracer = Tracer() if args.trace else None
    plain, traced, layers, peak_rss_mb = measure(workload, run, args.seconds, tracer)
    failures, checked, shape = workload.check()

    attempted = failed = 0
    reps = len(plain) + len(traced)
    for key, (digest, ok) in checked.items():
        got = run.digests.get(key, [])
        attempted += max(len(got), reps)
        failed += count_failed(got + [None] * (reps - len(got)), digest, ok)
    failures += run.errors

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "passes": len(plain),
        "unit": workload.unit,
        "throughput": throughput(plain),
        "pass_rates": [p["items"] / p["scaled_s"] for p in plain if p["items"]],
        "raw_throughput": median([p["items"] / sum(s for _, s in p["parts"].values()) for p in plain if p["items"]]),
        "peak_rss_mb": peak_rss_mb,
        "named": workload.named([p["parts"] for p in plain]),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "shape": shape,
        "env": {
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "PREFIX_GLOBAL_THREADS": os.environ.get("PREFIX_GLOBAL_THREADS", "unset"),
        },
    }
    if tracer:
        trace_path = args.work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        # a metric whose wrap point is gone is left out, never reported as 0
        gone = tuple(stem for stems in tracer.missing.values() for stem in stems)
        names = [n for n in layer_names() if n != "trace.overhead" and not n.startswith(gone)]
        result["layers"] = {n: median([pl.get(n, 0.0) for pl in layers]) for n in names}
        result["layers"]["trace.overhead"] = throughput(plain) / throughput(traced) - 1
        result["missing_wrap_points"] = tracer.missing
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
