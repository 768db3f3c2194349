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

It prints one line per mutant, then killed/total per module, and then the
count of mutants killed and survived. Exit status: 0 when every mutant is
killed, 1 when one survived, 2 when a row or a run is refused (old text not
found once, a clean run that fails, or a pytest run that ends in anything but
pass or fail).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

ROW_ORACLE = "tests/test_kernel.py::TestRowOracleAtPaperGeometry"
LAYOUT_ORACLE = "tests/test_layout_oracle.py::test_examples_and_report_match_the_reference"
DENSE_TESTS = "tests/test_numcore.py"
OVERFLOWED_MASKED_KEY = "tests/test_kernel.py::TestLocality::test_out_of_window_key_whose_exp_overflows_is_invisible_bitwise"
HUGE_VALUE_LOCALITY = "tests/test_kernel.py::TestLocality::test_a_huge_value_moves_no_bit_of_a_band_that_does_not_hold_it"
K_IDENTITIES = "tests/test_kernel.py::test_prefix_global_at_k_l_is_full_and_at_k_0_is_local"
TOKENIZER_TESTS = "tests/test_page.py::TestTokenize"
SUMMARIZATION_TARGET = "tests/test_sequence.py::TestSectionSummarization::test_first_sentence_removed_and_targeted"
READER_LOCATION = "tests/test_page.py::TestOneFieldRule::test_the_reader_gives_the_model_message_where_it_was_refused"
CLI_ORACLE = "tests/test_cli.py::test_attend_oracle_agreement"
CLI_MASK = "tests/test_cli.py::test_mask_out_file_holds_the_stdout_bytes"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/prefix_global
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # the kernel against every row of a softmax over the mask's columns at the paper's geometry
    Mutant("kernel-row-sum-not-rescaled", "kernel.py",
           "        row_sum *= rescale\n", "",
           (ROW_ORACLE, CLI_ORACLE)),
    Mutant("kernel-output-not-rescaled", "kernel.py",
           "        acc *= rescale[:, None]\n", "",
           (ROW_ORACLE, CLI_ORACLE)),
    Mutant("kernel-last-prefix-tile-one-key-short", "kernel.py",
           "tiles = tuple((lo, hi, None, None, (0, 0)) for lo, hi in",
           "tiles = tuple((lo, hi - (hi == l), None, None, (0, 0)) for lo, hi in",
           (ROW_ORACLE, CLI_ORACLE)),
    Mutant("kernel-bank-one-key-short-past-4096", "kernel.py",
           "bands.append(_Band(b0, b1, ((lo, hi, outside[: b1 - b0, cols], inside[: b1 - b0, cols], bank),)))",
           "bands.append(_Band(b0, b1, ((lo, hi, outside[: b1 - b0, cols], inside[: b1 - b0, cols],"
           " bank if b0 < 4096 else (bank[0], max(bank[0], bank[1] - 1))),)))",
           (ROW_ORACLE,)),
    # a masked entry's weight is zeroed after exp, and the row max reads only allowed entries
    Mutant("kernel-masked-weights-not-zeroed", "kernel.py",
           "        if outside is not None:  # a masked entry's weight is exactly 0.0, whatever its score was\n"
           "            np.copyto(scores[:, :width], 0.0, where=outside)\n", "",
           (ROW_ORACLE, OVERFLOWED_MASKED_KEY)),
    Mutant("kernel-window-max-over-the-whole-tile", "kernel.py",
           "max(axis=1, where=inside, initial=-np.inf)", "max(axis=1)",
           ("tests/test_acceptance.py::test_c5_locality_and_sensitivity",
            "tests/test_kernel.py::test_overflow_refused_exactly_on_allowed_pairs",
            "tests/test_kernel.py::TestOnlineSoftmax::test_distant_maximum_matches_dense",
            OVERFLOWED_MASKED_KEY)),
    # the per-call overflow bound decides whether tiles scan for non-finite scores
    Mutant("kernel-bound-read-as-holding", "kernel.py",
           "checked = q.shape[1] * q_peak * k_peak >= 2.0**1000", "checked = False",
           ("tests/test_kernel.py::TestValidation::test_overflowing_scores_refused_like_dense",
            "tests/test_kernel.py::TestOnlineSoftmax::test_overflow_only_in_last_tile_refused_without_warning",
            "tests/test_kernel.py::test_overflow_refused_exactly_on_allowed_pairs",
            "tests/test_kernel.py::test_refusal_is_exact_on_both_sides_of_the_bound")),
    # a refused call raises its lowest failing band's error, as a serial run would
    Mutant("kernel-refusal-from-the-highest-failing-band", "kernel.py",
           "raise errors[min(errors)]", "raise errors[max(errors)]",
           ("tests/test_kernel.py::TestWorkers::test_any_error_of_the_lowest_failing_band_is_raised",)),
    # v is scaled only where its weighted sum could pass DBL_MAX; one power of two
    # more scales values that need none, and rounds subnormal ones
    Mutant("kernel-v-shift-one-too-many", "kernel.py",
           "n_keys.bit_length() - 1023)", "n_keys.bit_length() - 1022)",
           (HUGE_VALUE_LOCALITY,)),
    # once the call's v guard fires, each band's shift comes from its own keys
    Mutant("band-shift-taken-from-the-calls-peak", "kernel.py",
           "_v_shift(max(max_abs(v[lo:hi]) for lo, hi in ranges),", "_v_shift(max_abs(v),",
           (HUGE_VALUE_LOCALITY,)),
    # global rows, full's among them, run in ROW_BLOCK-row bands that every worker pulls
    Mutant("global-bands-taller-than-row-block", "kernel.py",
           "_blocks(0, g)]", "_blocks(0, g, 2 * ROW_BLOCK)]",
           ("tests/test_kernel.py::TestWorkers::test_threads_per_call",
            "tests/test_kernel.py::TestWorkers::test_every_band_runs_once_under_thread_switching",
            "tests/test_kernel.py::TestWorkers::test_refusal_names_the_lowest_failing_band")),
    # full is prefix-global at k = l in the plan as in the mask, not one l x l block
    Mutant("full-planned-as-one-block", "kernel.py",
           "    l, g, r = pattern.l, pattern.global_rows, pattern.r or 0\n",
           "    l, g, r = pattern.l, pattern.global_rows, pattern.r or 0\n"
           "    if pattern.kind is PatternKind.FULL:\n        return [_Band(0, l, ((0, l, None, None, (0, 0)),))]\n",
           (K_IDENTITIES, "tests/test_acceptance.py::test_c6_score_buffer_ceiling")),
    # tglobal's side keys: the ragged last block is the mean of its own rows
    Mutant("block-average-tail-divided-by-block", "kernel.py",
           "emb[whole:].sum(axis=0) / (l - whole)", "emb[whole:].sum(axis=0) / block",
           ("tests/test_kernel.py::TestBlockAverage",)),
    # the whole-window rows of a mask, taken from the sliding view
    Mutant("mask-whole-windows-shifted-one-row", "patterns.py",
           "2 * r + 1)[a - r : b - r]", "2 * r + 1)[a - r + 1 : b - r + 1]",
           ("tests/test_patterns.py::test_rows_match_set_oracle",
            "tests/test_patterns.py::test_row_parts_match_the_key_set_rule")),
    # every task's layout against the reference that restates it from raw JSONL
    Mutant("prefix-budget-511", "patterns.py",
           "DEFAULT_PREFIX = 512", "DEFAULT_PREFIX = 511",
           (LAYOUT_ORACLE,)),
    Mutant("captioning-prefix-keeps-target-caption", "sequence.py",
           "prefix += (run for pos, run in enumerate(own.captions) if pos != image_pos)",
           "prefix += own.captions",
           (LAYOUT_ORACLE,)),
    # the whitespace-first tokenizer against the regex it restates, and every layout
    Mutant("tokenize-takes-non-alphanumeric-chunk-whole", "page.py",
           "if chunk.isalnum():", "if chunk.isascii():",
           (TOKENIZER_TESTS, LAYOUT_ORACLE)),
    Mutant("tokenize-drops-findall-fallback", "page.py",
           "        else:\n            out += _TOKEN_RE.findall(chunk)\n", "",
           (TOKENIZER_TESTS, LAYOUT_ORACLE)),
    Mutant("json-line-loses-separator-between-runs", "sequence.py",
           '                    sep = ","\n', "",
           (LAYOUT_ORACLE, "tests/test_sequence.py::TestTokenRuns")),
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
    Mutant("section-runs-first-and-rest-swapped", "sequence.py",
           "first, rest = split_first_sentence(section.body_text)",
           "rest, first = split_first_sentence(section.body_text)",
           (LAYOUT_ORACLE, SUMMARIZATION_TARGET)),
    Mutant("summarization-target-is-the-rest", "sequence.py",
           "split_first_sentence(target.body_text)[0])", "split_first_sentence(target.body_text)[1])",
           (LAYOUT_ORACLE, SUMMARIZATION_TARGET)),
    Mutant("local-context-keeps-skipped-section", "sequence.py",
           "            if index != skip:\n                out.extend(sec.layout)",
           "            out.extend(sec.layout)",
           (LAYOUT_ORACLE, "tests/test_sequence.py::TestSectionSummarization")),
    # the page model's one field rule, which the reader and every class call
    Mutant("page-accepts-any-section-flag", "page.py",
           '("has_table_or_list", bool), ', "",
           ("tests/test_page.py::TestPageInvariants::test_non_bool_section_flag_refused",)),
    Mutant("field-rule-accepts-a-lone-surrogate", "page.py",
           "    if kind is str:\n", "    if False:\n",
           ("tests/test_page.py::TestCorpusIO::test_undecodable_line_is_one_malformed_record[lone-surrogate]",
            "tests/test_page.py::TestCorpusIO::test_undecodable_line_strict_raises_corpus_error[lone-surrogate]",
            "tests/test_cli.py::test_build_strict_refuses_a_string_utf8_cannot_encode",
            "tests/test_cli.py::test_build_lenient_counts_a_string_utf8_cannot_encode",
            "tests/test_page.py::TestPageInvariants::test_lone_surrogate_in_a_model_built_directly_refused")),
    Mutant("field-rule-accepts-a-subclass", "page.py",
           "if type(value) is not kind:", "if not isinstance(value, kind):",
           ("tests/test_page.py::TestPageInvariants::test_non_int_section_index_parent_or_depth_refused",
            "tests/test_page.py::TestPageInvariants::test_non_str_section_text_refused",
            "tests/test_page.py::TestPageInvariants::test_non_str_page_text_refused",
            "tests/test_page.py::TestMime::test_non_str_image_text_refused")),
    Mutant("section-accepts-any-image", "page.py",
           '        for image in self.images:\n            _exact(image, ImageRef, "section", "image")\n', "",
           ("tests/test_page.py::TestPageInvariants::test_non_image_entry_refused",)),
    # the corpus reader is a key map: the model checks each value, and the
    # reader puts its location in front of the model's refusal
    Mutant("reader-drops-the-location", "page.py",
           '    except CorpusError as exc:\n        raise CorpusError(f"{where}: {exc}") from None\n\n\ndef parse_image',
           "    except CorpusError:\n        raise\n\n\ndef parse_image",
           (READER_LOCATION, "tests/test_page.py::TestParsePage::test_a_model_rule_names_where_it_broke")),
    Mutant("reader-ignores-section-text", "page.py",
           '"section_text": "body_text", ', "",
           (LAYOUT_ORACLE, READER_LOCATION)),
    # the closed-form counts behind the cost tables
    Mutant("mask-nnz-without-side-keys", "cost.py",
           "_window_total(l - g, r) + l * pattern.side_keys", "_window_total(l - g, r)",
           ("tests/test_acceptance.py::test_c4_closed_form_matches_enumeration", CLI_MASK)),
    Mutant("accounted-pairs-without-local-branch", "cost.py",
           "    if pattern.kind is PatternKind.LOCAL:\n        return mask_nnz(pattern)  # the convention is the exact count\n",
           "",
           ("tests/test_cost.py::test_accounted_pairs_matches_convention_property",)),
    # AttentionPattern fills every unset parameter; an unset k is at most l
    Mutant("unset-k-is-512-whatever-l-is", "patterns.py",
           'min(default, self.l) if name == "k" and default is not None else default', "default",
           ("tests/test_patterns.py::TestValidation::test_unset_parameters_have_one_default",
            "tests/test_cli.py::test_every_command_runs_below_512_without_k")),
    Mutant("tglobal-side-keys-rounded-down", "patterns.py",
           "return -(-self.l // self.block) if", "return self.l // self.block if",
           ("tests/test_acceptance.py::test_c3_kernel_matches_dense_reference", CLI_ORACLE)),
    # every candidate counted once, and only an example routed to a split
    Mutant("rejected-candidate-counted-in-splits", "pipeline.py",
           "                report.reject(outcome)\n",
           "                report.reject(outcome)\n                if not isinstance(item, MalformedRecord):\n"
           "                    report.splits[item.split] += 1\n",
           ("tests/test_pipeline.py::test_bundled_counts",)),
    Mutant("nearest-rank-rounds-down", "pipeline.py",
           "rank = -(-(pct * len(data)) // 100)", "rank = max(1, (pct * len(data)) // 100)",
           ("tests/test_pipeline.py::test_nearest_rank",)),
    Mutant("image-candidates-in-image-then-section-order", "pipeline.py",
           "            for sec in item.sections for pos, img in enumerate(sec.images)]",
           "            for pos in range(max((len(s.images) for s in item.sections), default=0))\n"
           "            for sec in item.sections if pos < len(sec.images) for img in (sec.images[pos],)]",
           (LAYOUT_ORACLE,)),
    # build's reports and its write-then-rename
    Mutant("json-report-keys-unsorted", "cli.py",
           "indent=2, sort_keys=True)", "indent=2)",
           ("tests/test_cli.py::test_every_json_report_is_written_with_sorted_keys",)),
    Mutant("build-renames-splits-before-the-report-is-written", "cli.py",
           '            tmp["report.json"].write_text(_json(payload), encoding="utf-8")\n'
           "            for name in names:\n                os.replace(tmp[name], out / name)\n",
           "            for name in names[:-1]:\n                os.replace(tmp[name], out / name)\n"
           '            tmp["report.json"].write_text(_json(payload), encoding="utf-8")\n'
           '            os.replace(tmp["report.json"], out / "report.json")\n',
           ("tests/test_cli.py::test_build_failed_report_write_leaves_the_previous_outputs",)),
    # one max and one min check each operand: -inf shows only in the min
    Mutant("operand-peak-reads-only-the-max", "numcore.py",
           "float(max(m.max(initial=0.0), -m.min(initial=0.0)))", "float(m.max(initial=0.0))",
           ("tests/test_kernel.py::TestValidation::test_non_finite_operand_refused[sparse-q--inf]",
            "tests/test_kernel.py::TestValidation::test_non_finite_operand_refused[tglobal-v--inf]")),
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
            # a named id is hit by a failure of itself, of a test in it, or of one of its parametrized cases
            missed = [t for t in mutant.tests if not any(f == t or f.startswith((t + "::", t + "[")) for f in failed)]
            print(f"{'SURVIVED' if missed else 'killed'}: {mutant.name} ({mutant.path})"
                  + (f"; passing: {', '.join(missed)}" if missed else ""), flush=True)
            if missed:
                survived.append(mutant.name)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    total, killed = Counter(m.path for m in MUTANTS), Counter(m.path for m in MUTANTS if m.name not in survived)
    print("by module: " + ", ".join(f"{path} {killed[path]}/{n}" for path, n in sorted(total.items())))
    print(f"mutants: {len(MUTANTS) - len(survived)} killed, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
