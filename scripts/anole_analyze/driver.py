"""File collection, rule orchestration, ratchet baseline, and the CLI.

Usage (via the stable entry point):

    anole_lint.py [root] [--rules=id,id,...] [--list-rules]
                  [--update-baseline] [--coverage-report]

Exit codes: 0 clean, 1 findings (or ratchet regression), 2 usage/setup
error. Every finding prints `file:line: rule-id: message`, same format
the old regex linter used, so editors and CI greps keep working.

The contract-coverage ratchet lives in scripts/lint_baseline.json: the
committed floor for the fraction of public functions that validate their
inputs with ANOLE_CHECK* in the prologue. A run below the floor fails;
a run above it suggests (but does not force) `--update-baseline`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from anole_analyze import contracts, rules
from anole_analyze.include_graph import IncludeGraph
from anole_analyze.lexer import code_tokens, lex
from anole_analyze.rules import FileContext, Finding

SCAN_DIRS = ("src", "tests", "bench", "examples")
CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# Deliberately-violating fixtures for the self-test live here; the real
# repo scan must never pick them up.
EXCLUDED_PREFIXES = ("tests/lint_fixtures/",)

BASELINE_FILE = "scripts/lint_baseline.json"

# ANOLE_* rows in the README environment table: | `ANOLE_FOO` | ... |
_RE_README_ENV_ROW = re.compile(r"^\|\s*`(ANOLE_[A-Z0-9_]+)`")

_RE_GETENV_VAR = re.compile(r'^"(ANOLE_[A-Z0-9_]+)"$')


class AnalyzedFile:
    def __init__(self, root: Path, path: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        result = lex(path.read_text(encoding="utf-8", errors="replace"))
        self.lex_result = result
        self.tokens = code_tokens(result)
        self.includes = result.includes
        self.getenv_sites = _getenv_sites(result)


def _getenv_sites(lex_result):
    """(line, var) for every getenv("ANOLE_*") — needs the literal
    tokens, which the code-token stream intentionally drops."""
    toks = lex_result.tokens
    sites = []
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text != "getenv":
            continue
        if i + 2 < len(toks) and toks[i + 1].kind == "punct" and (
                toks[i + 1].text == "(") and toks[i + 2].kind == "string":
            m = _RE_GETENV_VAR.match(toks[i + 2].text)
            if m:
                sites.append((t.line, m.group(1)))
    return sites


def collect_files(root: Path) -> list[AnalyzedFile]:
    files = []
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if not (p.is_file() and p.suffix in CPP_SUFFIXES):
                continue
            rel = p.relative_to(root).as_posix()
            if rel.startswith(EXCLUDED_PREFIXES):
                continue
            files.append(AnalyzedFile(root, p))
    return files


def readme_env_vars(root: Path) -> set[str]:
    readme = root / "README.md"
    if not readme.is_file():
        return set()
    vars_found = set()
    for line in readme.read_text(encoding="utf-8").splitlines():
        m = _RE_README_ENV_ROW.match(line.strip())
        if m:
            vars_found.add(m.group(1))
    return vars_found


def run_analysis(root: Path, enabled: set[str] | None = None,
                 update_baseline: bool = False,
                 coverage_report: bool = False):
    """Runs every enabled rule; returns (findings, notes, coverage).

    `coverage` is (covered, total, ratio) or None when the rule is off.
    `notes` are informational lines (not failures)."""
    findings: list[Finding] = []
    notes: list[str] = []
    files = collect_files(root)
    if not files:
        raise FileNotFoundError(f"no C++ sources found under {root}")

    def on(rule_id):
        return enabled is None or rule_id in enabled

    known_src = {f.rel for f in files}

    # Per-file token rules.
    for f in files:
        ctx = FileContext(f.rel, f.tokens, f.includes,
                          f.path.with_suffix(".hpp").exists())
        ctx.getenv_sites = f.getenv_sites
        for rule_id, fn in rules.ALL_FILE_RULES:
            if on(rule_id):
                findings.extend(fn(ctx))

    # layering-dag: module DAG + file-level include cycles.
    if on("layering-dag"):
        graph = IncludeGraph()
        for f in files:
            for inc in f.includes:
                if not inc.angled:
                    graph.add(f.rel, inc.line, inc.path)
        for file, line, message in graph.layering_findings():
            findings.append(Finding(file, line, "layering-dag", message))
        for file, line, message in graph.file_cycle_findings(known_src):
            findings.append(Finding(file, line, "layering-dag", message))

    # env-var-registry.
    if on("env-var-registry"):
        documented = readme_env_vars(root)
        for f in files:
            ctx = FileContext(f.rel, f.tokens, f.includes, False)
            ctx.getenv_sites = f.getenv_sites
            findings.extend(rules.rule_env_var_registry(ctx, documented))

    # contract-coverage ratchet.
    coverage = None
    if on("contract-coverage"):
        covered = total = 0
        per_file = []
        for f in files:
            if not (f.rel.startswith("src/") and f.rel.endswith(".cpp")):
                continue
            functions = contracts.scan_functions(f.tokens)
            file_covered = sum(1 for fn in functions if fn.covered)
            covered += file_covered
            total += len(functions)
            per_file.append((f.rel, file_covered, len(functions), functions))
        ratio = (covered / total) if total else 1.0
        coverage = (covered, total, ratio)
        if coverage_report:
            for rel, c, t, functions in per_file:
                if not t:
                    continue
                notes.append(f"  {rel}: {c}/{t}")
                for fn in functions:
                    mark = "+" if fn.covered else "-"
                    notes.append(f"    {mark} {fn.name} (line {fn.line})")

        baseline_path = root / BASELINE_FILE
        if update_baseline:
            # Floor (never round) so the stored ratio can't land above the
            # measured one — a freshly-updated baseline must always pass.
            baseline_path.write_text(json.dumps({
                "contract_coverage": {
                    "covered": covered,
                    "total": total,
                    "min_ratio": int(ratio * 1e6) / 1e6,
                },
            }, indent=2) + "\n", encoding="utf-8")
            notes.append(
                f"contract-coverage: baseline updated to {covered}/{total} "
                f"({ratio:.1%})")
        elif baseline_path.is_file():
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
            floor = float(
                baseline.get("contract_coverage", {}).get("min_ratio", 0.0))
            if ratio + 1e-9 < floor:
                findings.append(Finding(
                    BASELINE_FILE, 1, "contract-coverage",
                    f"ratchet regression: {covered}/{total} public "
                    f"functions ({ratio:.1%}) reach an ANOLE_CHECK* in "
                    f"the prologue, below the committed floor "
                    f"({floor:.1%}); add contracts to the new code (or "
                    f"run --coverage-report to see which functions)"))
            elif ratio > floor + 1e-4:
                notes.append(
                    f"contract-coverage: {covered}/{total} ({ratio:.1%}) "
                    f"is above the committed floor ({floor:.1%}); consider "
                    f"`anole_lint.py --update-baseline` to ratchet up")
            else:
                notes.append(
                    f"contract-coverage: {covered}/{total} ({ratio:.1%}), "
                    f"floor {floor:.1%} — ok")
        else:
            findings.append(Finding(
                BASELINE_FILE, 1, "contract-coverage",
                "missing ratchet baseline; run `anole_lint.py "
                "--update-baseline` and commit the file"))

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, notes, coverage


def _parse_rules_arg(arg: str | None):
    if arg is None or arg == "all":
        return None
    valid = {rule_id for rule_id, _ in rules.ALL_FILE_RULES}
    valid.update(rules.GLOBAL_RULE_IDS)
    requested = {r.strip() for r in arg.split(",") if r.strip()}
    unknown = requested - valid
    if unknown:
        raise SystemExit(
            f"anole_lint: unknown rule(s): {', '.join(sorted(unknown))}; "
            f"--list-rules shows the catalog")
    return requested


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anole_lint.py",
        description="Structured static analysis for the Anole repo "
                    "(token-level rules, layering DAG, contract ratchet).")
    parser.add_argument("root", nargs="?", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="run only these rules (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite scripts/lint_baseline.json with the "
                             "current contract coverage")
    parser.add_argument("--coverage-report", action="store_true",
                        help="print per-function contract coverage")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(rules.RULE_DOCS):
            print(f"{rule_id:24s} {rules.RULE_DOCS[rule_id]}")
        return 0

    root = Path(args.root).resolve()
    try:
        enabled = _parse_rules_arg(args.rules)
        findings, notes, coverage = run_analysis(
            root, enabled, update_baseline=args.update_baseline,
            coverage_report=args.coverage_report)
    except FileNotFoundError as err:
        print(f"anole_lint: {err}", file=sys.stderr)
        return 2

    for finding in findings:
        print(f"{finding.file}:{finding.line}: {finding.rule}: "
              f"{finding.message}")
    for note in notes:
        print(note)

    if findings:
        print(f"anole_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    suffix = ""
    if coverage is not None:
        covered, total, ratio = coverage
        suffix = f"; contract coverage {covered}/{total} ({ratio:.1%})"
    print(f"anole_lint: OK{suffix}")
    return 0
