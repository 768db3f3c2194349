"""How strong the oracles are: each mutant below must make its named tests fail.

    python tests/mutation_check.py

Run from anywhere; it uses the standard library only, and pytest in a
subprocess. The file is not named test_*, so the test suite does not collect
it. Each row of MUTANTS is one small, deliberate defect: a source file under
src/, text that must occur in it exactly once, the text that replaces it, and
the test ids that must fail once it is in. A row whose old text is not found
exactly once is refused, so a refactor that moves the code must update the row
and cannot skip it by accident.

First the named tests run on an unmutated copy of src/ and must all pass.
Then, for each row, src/ is copied to a fresh temporary directory, the row is
applied there, and the row's tests run in a subprocess with PYTHONPATH and
pytest's pythonpath on the copy. The mutant is killed when every named test
id has a failing test; otherwise it survived, and the oracle it names misses
that defect. A surviving mutant is a finding to record, never a row to delete.

It prints one line per mutant and then the count of mutants killed and
survived. Exit status: 0 when every mutant is killed, 1 when one survived, 2
when a row or a run is refused (old text not found once, a clean run that
fails, or a pytest run that ends in anything but pass or fail).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

ROW_ORACLE = "tests/test_kernel.py::TestRowOracleAtPaperGeometry"
LAYOUT_ORACLE = "tests/test_layout_oracle.py::test_examples_and_report_match_the_reference"
DENSE_TESTS = "tests/test_numcore.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/prefix_global
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # the kernel against every row of a softmax over the mask's columns at the paper's geometry
    Mutant("kernel-row-sum-not-rescaled", "kernel.py",
           "            row_sum *= rescale\n", "",
           (ROW_ORACLE,)),
    Mutant("kernel-last-prefix-tile-one-key-short", "kernel.py",
           "tiles = tuple((lo, hi, None) for lo, hi in",
           "tiles = tuple((lo, hi - (hi == l), None) for lo, hi in",
           (ROW_ORACLE,)),
    Mutant("kernel-bank-one-key-short-past-4096", "kernel.py",
           "bands.append(_Band(b0, b1, ((lo, hi, masks[geometry]),), bank))",
           "bands.append(_Band(b0, b1, ((lo, hi, masks[geometry]),),"
           " bank if b0 < 4096 else (bank[0], max(bank[0], bank[1] - 1))))",
           (ROW_ORACLE,)),
    # every task's layout against the reference that restates it from raw JSONL
    Mutant("prefix-budget-511", "sequence.py",
           "PREFIX_BUDGET = 512", "PREFIX_BUDGET = 511",
           (LAYOUT_ORACLE,)),
    Mutant("captioning-prefix-keeps-target-caption", "sequence.py",
           "prefix += (run for pos, run in enumerate(own.captions) if pos != image_pos)",
           "prefix += own.captions",
           (LAYOUT_ORACLE,)),
    Mutant("count-sentences-one-more", "page.py",
           "return n + bool(text[end:].strip())", "return n + bool(text[end:].strip()) + 1",
           (LAYOUT_ORACLE,)),
    Mutant("count-sentences-one-fewer", "page.py",
           "return n + bool(text[end:].strip())", "return n + bool(text[end:].strip()) - 1",
           (LAYOUT_ORACLE,)),
    Mutant("section-layout-title-before-marker", "sequence.py",
           "self.layout = (self.marker, self.title, self.body)",
           "self.layout = (self.title, self.marker, self.body)",
           (LAYOUT_ORACLE,)),
    Mutant("captioning-prefix-title-before-marker", "sequence.py",
           "own.marker, own.title, own.body]", "own.title, own.marker, own.body]",
           (LAYOUT_ORACLE,)),
    Mutant("summarization-prefix-title-before-marker", "sequence.py",
           "own.marker, own.title, own.rest,", "own.title, own.marker, own.rest,",
           (LAYOUT_ORACLE,)),
    Mutant("local-context-keeps-skipped-section", "sequence.py",
           "            if index != skip:\n                out.extend(sec.layout)",
           "            out.extend(sec.layout)",
           (LAYOUT_ORACLE, "tests/test_sequence.py::TestSectionSummarization")),
    # the dense reference against the scalar loops
    Mutant("dense-no-degenerate-row-check", "numcore.py",
           "        if dead.any():\n", "        if False:\n",
           (DENSE_TESTS,)),
    Mutant("dense-bias-dropped", "numcore.py",
           "np.where(allowed, scores + mask, -np.inf)", "np.where(allowed, scores, -np.inf)",
           (DENSE_TESTS,)),
    Mutant("dense-always-scaled", "numcore.py",
           "scale = math.sqrt(q.shape[1]) if scale_by_sqrt_d else 1.0", "scale = math.sqrt(q.shape[1])",
           (DENSE_TESTS,)),
    Mutant("dense-v-perturbed", "numcore.py",
           "out = weights @ v\n", "out = weights @ (v + 1e-10)\n",
           (DENSE_TESTS,)),
    Mutant("dense-no-output-check", "numcore.py",
           "        if not np.isfinite(out).all():\n", "        if False:\n",
           (DENSE_TESTS,)),
)


class Refused(Exception):
    """A row or a run that cannot count as killed or survived."""


def mutated_copy(dest: Path, mutant: Mutant | None) -> Path:
    """src/ copied under dest, with the mutant applied; returns the copy."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "prefix_global" / mutant.path
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            raise Refused(f"{mutant.name}: old text found {found} times in {mutant.path}, not once")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def run_tests(src: Path, tests) -> tuple[int, set]:
    """pytest on `tests` with the package imported from `src`: its exit code
    and the ids of the tests that failed."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode not in (0, 1):
        raise Refused(f"pytest exited with {proc.returncode}:\n{proc.stdout[-3000:]}")
    return proc.returncode, set(re.findall(r"^FAILED (\S+)", proc.stdout, flags=re.MULTILINE))


def main() -> int:
    survived = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tests = sorted({t for m in MUTANTS for t in m.tests})
            code, failed = run_tests(mutated_copy(Path(tmp), None), tests)
            if code:
                raise Refused(f"the named tests fail on the unmutated copy: {sorted(failed)}")
        for mutant in MUTANTS:
            with tempfile.TemporaryDirectory() as tmp:
                _, failed = run_tests(mutated_copy(Path(tmp), mutant), mutant.tests)
            missed = [t for t in mutant.tests if not any(f == t or f.startswith(t + "::") for f in failed)]
            print(f"{'SURVIVED' if missed else 'killed'}: {mutant.name} ({mutant.path})"
                  + (f"; passing: {', '.join(missed)}" if missed else ""), flush=True)
            if missed:
                survived.append(mutant.name)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"mutants: {len(MUTANTS) - len(survived)} killed, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
