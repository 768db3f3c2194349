"""The workflow's command-line gates, run the same way in CI and on any machine.

    python tests/ci_checks.py                  # every gate, in order
    python tests/ci_checks.py --only oracle    # one gate, by name

Run from anywhere; it uses the standard library only. Each gate starts the
command line as a process, as a user would: the installed `prefix-global`
script where there is one, else `python -m prefix_global.cli`. Either way
this checkout's src/ leads PYTHONPATH, so the code checked is the code here.
The tests run the CLI in-process, through click's runner; these gates run it
as CI's users do, through the console script where it is installed.

The gates, each one step of .github/workflows/tier1.yml:

- oracle: `attend --check-oracle` for every kind, with and without
  --no-scale, at the edge geometries (l = 1, k = 0, k = l, r >= l, and an l
  that is not a multiple of the 128-row band); max_abs_diff < 1e-9.
- workers: `attend` on one core and on every core gives the same
  output_sha256, for every kind at l = 300 and l = 2049 (-k 40). One core is
  os.sched_setaffinity in the child process before it starts the CLI; where
  the os module has no sched_setaffinity (macOS), the gate fails and says so.
- mask-nnz: the CSV and PGM grids of `mask` hold exactly the nnz that
  --fmt summary prints, from the closed form; and --out writes the bytes
  that stdout gets, in every format.
- prefix-identities: a prefix-global mask with k = l is the full mask, and
  with k = 0 the local one, byte for byte as CSV.
- hash-seeds: `build` (strict, on the demo corpus, and --lenient, on
  perfbench's seed-3 corpus with its malformed records) and `stats` write
  the same bytes under PYTHONHASHSEED 1 and 2. Each build runs twice into
  one out-dir, so a rebuild over existing outputs is covered too, and it
  must leave no *.tmp file.

A gate stops at its first failure. Exit status: 0 when every gate run
passes, 1 when one fails, 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("full", "local", "tglobal", "prefix-global")
TASKS = ("page_description", "section_summarization", "image_captioning")


class GateFailed(Exception):
    """A gate's check did not hold, or a command it ran failed."""


def command() -> list:
    """The command line: the installed script, or the module."""
    script = shutil.which("prefix-global")
    return [script] if script else [sys.executable, "-m", "prefix_global.cli"]


def one_core():
    """The preexec_fn that pins the child to one core of this process's set."""
    if not hasattr(os, "sched_setaffinity"):
        raise GateFailed("this host cannot pin a process to one core: os has no sched_setaffinity")
    core = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {core})


def run(argv: list, *, pin: bool = False, hash_seed: int | None = None) -> bytes:
    """stdout of one process; a nonzero exit fails the gate."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(argv, cwd=ROOT, env=env, preexec_fn=one_core() if pin else None,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode:
        raise GateFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc.stdout


def cli(*args, **kwargs) -> bytes:
    return run(command() + list(args), **kwargs)


def report(*args, **kwargs) -> dict:
    return json.loads(cli(*args, **kwargs))


def check(holds: bool, message: str) -> None:
    if not holds:
        raise GateFailed(message)


def oracle(tmp: Path) -> None:
    for kind in KINDS:
        for geometry in ("-l 300 -r 9 -k 40", "-l 1 -r 9 -k 1", "-l 300 -r 9 -k 0", "-l 300 -r 9 -k 300",
                         "-l 300 -r 400 -k 40", "-l 257 -r 9 -k 40"):
            for scale in ("--scale", "--no-scale"):
                diff = report("attend", "--kind", kind, *geometry.split(), "-d", "8", "--block", "7", scale,
                              "--check-oracle")["max_abs_diff"]
                print(kind, geometry, scale, diff, flush=True)
                check(diff < 1e-9, f"{kind} {geometry} {scale}: max_abs_diff {diff} is not below 1e-9")


def workers(tmp: Path) -> None:
    for kind in KINDS:
        for length in (300, 2049):
            args = ("attend", "--kind", kind, "-l", str(length), "-k", "40")
            one = report(*args, pin=True)["output_sha256"]
            every = report(*args)["output_sha256"]
            print(f"{kind} -l {length}: one core {one}, all cores {every}", flush=True)
            check(bool(one) and one == every, f"{kind} -l {length}: the digests differ")


def mask_nnz(tmp: Path) -> None:
    for kind in KINDS:
        for geometry in ("-l 300 -r 9 -k 40", "-l 1 -r 9 -k 1", "-l 300 -r 400 -k 40"):
            args = ("mask", "--kind", kind, *geometry.split(), "--block", "7")
            stdout = {fmt: cli(*args, "--fmt", fmt) for fmt in ("summary", "csv", "pgm")}
            want = json.loads(stdout["summary"])["nnz"]
            csv = stdout["csv"].count(b"1")
            pgm = b"".join(stdout["pgm"].splitlines(keepends=True)[3:]).count(b"1")  # after the 3-line header
            print(f"{kind} {geometry}: nnz {want}, csv {csv}, pgm {pgm}", flush=True)
            check(csv == want and pgm == want, f"{kind} {geometry}: a grid does not hold the closed-form nnz")
            for fmt, text in stdout.items():
                out = tmp / f"out.{fmt}"
                cli(*args, "--fmt", fmt, "-o", str(out))
                check(out.read_bytes() == text, f"{kind} {geometry}: --out {fmt} differs from stdout")


def prefix_identities(tmp: Path) -> None:
    for k, other in (("300", ("--kind", "full", "-l", "300")), ("0", ("--kind", "local", "-l", "300", "-r", "9"))):
        got = cli("mask", "--kind", "prefix-global", "-l", "300", "-r", "9", "-k", k, "--fmt", "csv")
        check(got == cli("mask", *other, "--fmt", "csv"), f"prefix-global at k = {k} is not the {other[1]} mask")
        print(f"prefix-global -k {k} equals {other[1]}", flush=True)


def hash_seeds(tmp: Path) -> None:
    corpus = run([sys.executable, "-c", "from prefix_global.demo import demo_corpus_path; print(demo_corpus_path())"]
                 ).decode().strip()
    lenient = tmp / "perfbench-seed3.jsonl"
    run([sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); import corpus\n"
         "from prefix_global.demo import demo_corpus_path\n"
         "corpus.generate(sys.argv[1], 3, 1, corpus.vocabulary(demo_corpus_path()))", str(lenient)])
    for seed in (1, 2):
        out = tmp / f"hashseed-{seed}"
        out.mkdir()
        for task in TASKS:
            for step in ("first", "rebuild"):
                (out / f"{task}.{step}.stdout").write_bytes(
                    cli("build", corpus, "--task", task, "--out-dir", str(out / task), hash_seed=seed))
                (out / f"lenient-{task}.{step}.stdout").write_bytes(
                    cli("build", str(lenient), "--lenient", "--task", task, "--out-dir", str(out / f"lenient-{task}"),
                        hash_seed=seed))
        (out / "stats.stdout").write_bytes(cli("stats", corpus, hash_seed=seed))
        (out / "lenient-stats.stdout").write_bytes(cli("stats", str(lenient), "--lenient", hash_seed=seed))
    left = sorted(str(path) for path in tmp.glob("hashseed-*/**/*.tmp"))
    check(not left, f"temp files left: {left}")
    trees = [{path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}
             for root in (tmp / "hashseed-1", tmp / "hashseed-2")]
    differ = sorted(str(name) for name in trees[0].keys() | trees[1].keys() if trees[0].get(name) != trees[1].get(name))
    print(f"{len(trees[0])} files under each hash seed; differing: {differ}", flush=True)
    check(not differ, f"output differs between hash seeds 1 and 2: {differ}")


GATES = {"oracle": oracle, "workers": workers, "mask-nnz": mask_nnz,
         "prefix-identities": prefix_identities, "hash-seeds": hash_seeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the workflow's command-line gates.")
    parser.add_argument("--only", choices=GATES, metavar="NAME",
                        help=f"run this gate alone, one of: {', '.join(GATES)}")
    only = parser.parse_args(argv).only
    names = [only] if only else list(GATES)
    failed = []
    for name in names:
        print(f"== {name}", flush=True)
        try:
            with tempfile.TemporaryDirectory(dir=os.environ.get("RUNNER_TEMP")) as tmp:
                GATES[name](Path(tmp))
        except GateFailed as exc:
            print(f"FAILED {name}: {exc}", flush=True)
            failed.append(name)
    print(f"gates: {len(names) - len(failed)} passed, {len(failed)} failed"
          + (f" ({', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
