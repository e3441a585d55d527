#!/usr/bin/env python3
"""Self-test for scripts/anole_analyze/ — every rule must fire on its
fixture and stay quiet on the adjacent negative cases.

Pytest-style test classes on unittest, so it runs with either runner:

    python3 scripts/test_anole_analyze.py           # unittest (CTest uses this)
    pytest scripts/test_anole_analyze.py            # if pytest is around

Fixtures live in tests/lint_fixtures/, a miniature repo root with
deliberately-violating sources; the real lint run excludes that tree.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from anole_analyze import contracts  # noqa: E402
from anole_analyze.driver import run_analysis  # noqa: E402
from anole_analyze.lexer import code_tokens, lex  # noqa: E402

FIXTURE_ROOT = REPO_ROOT / "tests" / "lint_fixtures"


def findings_for(rule: str):
    """Runs one rule over the fixture tree; returns {file: sorted lines}."""
    found, _, _ = run_analysis(FIXTURE_ROOT, enabled={rule})
    result: dict[str, list[int]] = {}
    for f in found:
        assert f.rule == rule, f"unexpected rule {f.rule} from {rule} run"
        result.setdefault(f.file, []).append(f.line)
    return {k: sorted(set(v)) for k, v in result.items()}


class TestLexer(unittest.TestCase):
    """Unit tests for the gaps the old line scanner documented."""

    def test_raw_string_is_one_opaque_token(self):
        res = lex('auto s = R"(std::cout << new int; " throw)"; int x;')
        idents = [t.text for t in code_tokens(res) if t.kind == "ident"]
        self.assertNotIn("new", idents)
        self.assertNotIn("throw", idents)
        self.assertIn("x", idents)
        strings = [t for t in res.tokens if t.kind == "string"]
        self.assertEqual(len(strings), 1)
        self.assertTrue(strings[0].text.startswith('R"('))

    def test_delimited_raw_string_ignores_embedded_quote_paren(self):
        res = lex('auto s = R"xy(a )" b)xy"; delete p;')
        idents = [t.text for t in code_tokens(res)]
        self.assertIn("delete", idents)
        strings = [t for t in res.tokens if t.kind == "string"]
        self.assertEqual(len(strings), 1)
        self.assertIn(')" b', strings[0].text)

    def test_multiline_raw_string_advances_line_numbers(self):
        res = lex('auto s = R"(one\ntwo\nthree)";\nint marker;')
        marker = [t for t in res.tokens if t.text == "marker"][0]
        self.assertEqual(marker.line, 4)

    def test_line_continuation_in_comment_swallows_next_line(self):
        res = lex("// hidden \\\nint* p = new int(1);\nint visible;")
        idents = [t.text for t in code_tokens(res)]
        self.assertNotIn("new", idents)
        self.assertIn("visible", idents)

    def test_line_continuation_splices_identifiers(self):
        res = lex("int dele\\\nte_now = 1;")
        idents = [t.text for t in code_tokens(res) if t.kind == "ident"]
        self.assertIn("delete_now", idents)
        self.assertNotIn("delete", idents)

    def test_preprocessor_is_opaque_and_includes_are_extracted(self):
        res = lex('#include "core/engine.hpp"\n#include <thread>\nint x;')
        self.assertEqual([i.path for i in res.includes],
                        ["core/engine.hpp", "thread"])
        idents = [t.text for t in code_tokens(res)]
        self.assertNotIn("thread", idents)  # <thread> is not a code token

    def test_block_comment_and_string_contents_are_opaque(self):
        res = lex('/* new */ const char* s = "throw"; int y;')
        idents = [t.text for t in code_tokens(res)]
        self.assertNotIn("new", idents)
        self.assertNotIn("throw", idents)
        self.assertIn("y", idents)


class TestPortedRules(unittest.TestCase):
    """The original nine regex rules, now token-accurate."""

    def test_no_c_prng(self):
        got = findings_for("no-c-prng")
        self.assertEqual(got, {"src/core/ported_rules.cpp": [10, 11]})

    def test_no_cout(self):
        got = findings_for("no-cout")
        self.assertEqual(got, {"src/core/ported_rules.cpp": [21]})

    def test_no_raw_thread(self):
        got = findings_for("no-raw-thread")
        self.assertEqual(got, {"src/core/ported_rules.cpp": [25, 27]})

    def test_no_pool_in_kernels(self):
        got = findings_for("no-pool-in-kernels")
        self.assertEqual(got, {"src/cluster/bad_pool.cpp": [3]})
        # core fans out over tasks; the same include there never fires.
        self.assertNotIn("src/core/ok_pool.cpp", got)

    def test_no_reinterpret_cast(self):
        got = findings_for("no-reinterpret-cast")
        self.assertEqual(got, {"src/core/ported_rules.cpp": [33]})

    def test_no_naked_new_fires_and_respects_exemptions(self):
        got = findings_for("no-naked-new")
        self.assertEqual(got, {
            "src/core/ported_rules.cpp": [37, 38],
            "src/core/raw_strings.cpp": [24],
            "src/core/continuations.cpp": [28],
        })
        # tensor internals and `= delete` declarations never appear.
        self.assertNotIn("src/tensor/internal_new.cpp", got)

    def test_no_using_namespace_headers_only(self):
        got = findings_for("no-using-namespace")
        self.assertEqual(got, {"src/core/bad_header.hpp": [6]})

    def test_own_header_first(self):
        got = findings_for("own-header-first")
        self.assertEqual(got, {"src/core/wrong_first.cpp": [2]})

    def test_no_throw_omi_hot_path(self):
        got = findings_for("no-throw-omi-hot-path")
        self.assertEqual(got, {"src/core/engine.cpp": [6]})

    def test_no_wallclock_extended_spellings(self):
        got = findings_for("no-wallclock")
        self.assertEqual(got, {"src/core/bad_wallclock.cpp": [13, 18, 23, 27]})


class TestDeepRules(unittest.TestCase):
    """The rules regex could not express."""

    def test_no_unordered_iteration(self):
        got = findings_for("no-unordered-iteration")
        self.assertEqual(got, {
            "src/core/bad_unordered.cpp": [10, 18],
            "src/util/fault.cpp": [9],
        })
        # world/ is not trace-affecting; point lookups never fire.
        self.assertNotIn("src/world/ok_unordered.cpp", got)

    def test_no_unstable_tiebreak(self):
        got = findings_for("no-unstable-tiebreak")
        self.assertEqual(got, {"src/core/bad_tiebreak.cpp": [13, 21]})

    def test_layering_dag_upward_include(self):
        got = findings_for("layering-dag")
        self.assertIn("src/nn/bad_upward.cpp", got)
        self.assertEqual(got["src/nn/bad_upward.cpp"], [3])
        # Lateral layer-3 edge (detect -> world) is legal.
        self.assertNotIn("src/detect/ok_lateral.cpp", got)

    def test_layering_dag_file_cycle(self):
        got = findings_for("layering-dag")
        cycle_files = [f for f in got
                       if "cycle_a" in f or "cycle_b" in f]
        self.assertTrue(cycle_files,
                        f"expected a file-cycle finding, got {got}")

    def test_env_var_registry(self):
        got = findings_for("env-var-registry")
        # bad_env.cpp: undocumented knob.
        self.assertEqual(got, {"src/core/bad_env.cpp": [11]})

    def test_no_naked_intrinsics(self):
        got = findings_for("no-naked-intrinsics")
        self.assertEqual(got, {"src/core/bad_intrinsics.cpp": [4, 9, 10, 11, 13]})
        # The dispatch module itself (src/tensor/simd*) is the sanctioned
        # home: identical constructs there never fire.
        self.assertNotIn("src/tensor/simd_kernels.cpp", got)


class TestContractCoverage(unittest.TestCase):
    def _sample_functions(self):
        path = FIXTURE_ROOT / "src" / "core" / "contracts_sample.cpp"
        toks = code_tokens(lex(path.read_text(encoding="utf-8")))
        return contracts.scan_functions(toks)

    def test_function_population(self):
        names = {f.name for f in self._sample_functions()}
        self.assertEqual(names, {
            "Widget::Widget",
            "Widget::covered_method",
            "Widget::uncovered_method",
            "covered_free_function",
            "uncovered_free_function",
            "late_check_is_not_prologue",
        })

    def test_coverage_verdicts(self):
        verdicts = {f.name: f.covered for f in self._sample_functions()}
        self.assertTrue(verdicts["Widget::Widget"])
        self.assertTrue(verdicts["Widget::covered_method"])
        self.assertTrue(verdicts["covered_free_function"])
        self.assertFalse(verdicts["Widget::uncovered_method"])
        self.assertFalse(verdicts["uncovered_free_function"])
        self.assertFalse(verdicts["late_check_is_not_prologue"])

    def test_ratchet_regression_fires(self):
        # The fixture baseline demands 99% coverage; the fixture tree is
        # far below it, so the ratchet must fail the run.
        found, _, coverage = run_analysis(
            FIXTURE_ROOT, enabled={"contract-coverage"})
        self.assertIsNotNone(coverage)
        self.assertLess(coverage[2], 0.99)
        ratchet = [f for f in found if f.rule == "contract-coverage"]
        self.assertEqual(len(ratchet), 1)
        self.assertIn("ratchet regression", ratchet[0].message)

    def test_missing_baseline_is_a_finding(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            src = root / "src" / "core"
            src.mkdir(parents=True)
            (src / "tiny.cpp").write_text(
                "namespace anole::core {\nint f(int x) { return x; }\n}\n")
            found, _, _ = run_analysis(root, enabled={"contract-coverage"})
            self.assertTrue(any("missing ratchet baseline" in f.message
                                for f in found))

    def test_update_baseline_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "scripts").mkdir()
            src = root / "src" / "core"
            src.mkdir(parents=True)
            (src / "tiny.cpp").write_text(
                "namespace anole::core {\n"
                "int checked(int x) { ANOLE_CHECK(x > 0, \"\"); return x; }\n"
                "int unchecked(int x) { return x; }\n"
                "}\n")
            found, _, coverage = run_analysis(
                root, enabled={"contract-coverage"}, update_baseline=True)
            self.assertEqual(found, [])
            self.assertEqual(coverage[:2], (1, 2))
            written = json.loads(
                (root / "scripts" / "lint_baseline.json").read_text())
            self.assertEqual(written["contract_coverage"]["covered"], 1)
            self.assertEqual(written["contract_coverage"]["total"], 2)
            # A second run against the fresh baseline is clean.
            found2, _, _ = run_analysis(root, enabled={"contract-coverage"})
            self.assertEqual(found2, [])


class TestRealRepoIsClean(unittest.TestCase):
    def test_all_rules_pass_on_the_repo(self):
        found, _, coverage = run_analysis(REPO_ROOT)
        self.assertEqual(
            [f"{f.file}:{f.line}: {f.rule}" for f in found], [])
        self.assertIsNotNone(coverage)

    def test_fixtures_are_excluded_from_real_scans(self):
        found, _, _ = run_analysis(REPO_ROOT)
        self.assertFalse(
            any(f.file.startswith("tests/lint_fixtures/") for f in found))


if __name__ == "__main__":
    unittest.main(verbosity=2)
