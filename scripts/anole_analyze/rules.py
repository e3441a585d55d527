"""The Anole rule catalog.

Every rule is a pure pass over one file's analysis context (token stream
+ includes + path) or over the whole-repo include graph; it yields
Finding records. Token-level matching means comments, string literals,
raw strings, and line-spliced text can never produce false positives —
the lexer already removed them from the code stream.

Rule IDs are stable; `anole_lint.py --list-rules` prints this catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from anole_analyze.lexer import Token

# The per-frame OMI hot path: a fault here must degrade, never abort.
NO_THROW_FILES = {"src/core/engine.cpp", "src/core/model_cache.cpp"}

# The only files allowed to reinterpret_cast raw weight/SIMD bytes.
REINTERPRET_CAST_FILES = {"src/nn/serialize.hpp", "src/tensor/simd.cpp"}

# The dispatch module: the only home for vendor intrinsics. Everything
# else calls the leveled kernels in tensor/simd.hpp so ANOLE_SIMD can
# force any path and replay stays pinned to one instruction set.
INTRINSICS_PREFIX = "src/tensor/simd"

# Kernel modules: they run on their calling thread and never touch the
# thread pool; only task fan-outs (core, world, ...) use util/parallel.hpp.
KERNEL_PREFIXES = ("src/tensor/", "src/nn/", "src/cluster/")

# Trace-affecting code where iteration order must be deterministic.
ORDERED_ITERATION_PREFIXES = ("src/core/", "src/device/", "src/util/fault.")

# Ranking/decision code where sort comparators must tie-break by index.
TIEBREAK_PREFIXES = ("src/core/", "src/detect/", "src/device/",
                     "src/sampling/", "src/baselines/", "src/eval/")

_WALLCLOCK_CLOCKS = {
    "steady_clock", "system_clock", "high_resolution_clock",
    "utc_clock", "tai_clock", "gps_clock", "file_clock",
}
_WALLCLOCK_FUNCS = {
    "time", "clock_gettime", "gettimeofday", "clock",
    "localtime", "gmtime", "ctime", "mktime", "timespec_get",
}

_UNORDERED_TYPES = {
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
}


# Keywords that can precede a global-qualified call (`return ::time(0)`):
# they are not namespace qualifiers, so `::name` after one is the C
# library symbol and must still fire.
_NON_QUALIFIER_KEYWORDS = {
    "return", "case", "else", "do", "co_return", "co_yield", "co_await",
    "throw", "new", "delete", "sizeof", "not", "and", "or",
}


@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    rule: str
    message: str


class FileContext:
    """Everything rule passes need about one file."""

    def __init__(self, rel: str, tokens: list[Token], includes,
                 has_own_header: bool):
        self.rel = rel  # repo-relative posix path
        self.tokens = tokens  # code tokens only (no literals / pp)
        self.includes = includes  # list[Include], in order
        self.has_own_header = has_own_header
        self.is_header = rel.endswith((".hpp", ".h"))
        self.in_src = rel.startswith("src/")


def _prev(tokens, i):
    return tokens[i - 1] if i > 0 else None


def _next(tokens, i):
    return tokens[i + 1] if i + 1 < len(tokens) else None


def _is(tok, kind, text=None):
    return (tok is not None and tok.kind == kind
            and (text is None or tok.text == text))


# ---------------------------------------------------------------------------
# Ported token rules (the original nine, now splice/raw-string safe)
# ---------------------------------------------------------------------------

def rule_no_c_prng(ctx: FileContext):
    """rand()/srand() banned everywhere; use anole::Rng (util/rng.hpp)."""
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in ("rand", "srand"):
            continue
        if not _is(_next(toks, i), "punct", "("):
            continue
        prev = _prev(toks, i)
        if _is(prev, "punct", ".") or _is(prev, "punct", "->"):
            continue  # member function on a user type
        if (prev is not None and prev.kind == "ident"
                and prev.text not in _NON_QUALIFIER_KEYWORDS):
            continue  # a declaration (`int rand()`), not a call
        if _is(prev, "punct", "::"):
            qualifier = _prev(toks, i - 1)
            if (_is(qualifier, "ident") and qualifier.text != "std"
                    and qualifier.text not in _NON_QUALIFIER_KEYWORDS):
                continue  # some_ns::rand is not the C PRNG
        yield Finding(ctx.rel, t.line, "no-c-prng",
                      "rand()/srand() banned; use anole::Rng")


def rule_no_naked_new(ctx: FileContext):
    """`new`/`delete` banned outside src/tensor/ internals."""
    if ctx.rel.startswith("src/tensor/"):
        return
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        if t.text == "new":
            yield Finding(ctx.rel, t.line, "no-naked-new",
                          "naked new banned; use std::make_unique")
        elif t.text == "delete":
            if _is(_prev(toks, i), "punct", "="):
                continue  # deleted function
            yield Finding(ctx.rel, t.line, "no-naked-new",
                          "naked delete banned; use RAII owners")


def rule_no_using_namespace(ctx: FileContext):
    """`using namespace` leaks into every includer; banned in headers."""
    if not ctx.is_header:
        return
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if (_is(t, "ident", "using")
                and _is(_next(toks, i), "ident", "namespace")):
            yield Finding(ctx.rel, t.line, "no-using-namespace",
                          "`using namespace` banned in headers")


def rule_own_header_first(ctx: FileContext):
    """A module's .cpp must include its own header first."""
    if not (ctx.rel.endswith(".cpp") and ctx.in_src and ctx.has_own_header):
        return
    expected = ctx.rel[len("src/"):-len(".cpp")] + ".hpp"
    if not ctx.includes:
        yield Finding(ctx.rel, 1, "own-header-first",
                      f'first include must be "{expected}"')
    elif ctx.includes[0].path != expected:
        yield Finding(ctx.rel, ctx.includes[0].line, "own-header-first",
                      f'first include must be "{expected}", got '
                      f'"{ctx.includes[0].path}"')


def rule_no_cout(ctx: FileContext):
    """std::cout banned outside examples/ and bench/."""
    if ctx.rel.startswith(("examples/", "bench/")):
        return
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if (_is(t, "ident", "cout") and _is(_prev(toks, i), "punct", "::")
                and _is(_prev(toks, i - 1), "ident", "std")):
            yield Finding(ctx.rel, t.line, "no-cout",
                          "std::cout banned here; use util/log.hpp")


def rule_no_raw_thread(ctx: FileContext):
    """std::thread/jthread/async banned outside the deterministic pool."""
    if ctx.rel.startswith("src/util/parallel."):
        return
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if (t.kind == "ident" and t.text in ("thread", "jthread", "async")
                and _is(_prev(toks, i), "punct", "::")
                and _is(_prev(toks, i - 1), "ident", "std")):
            yield Finding(ctx.rel, t.line, "no-raw-thread",
                          "raw std::thread/std::async banned; use the "
                          "deterministic pool in util/parallel.hpp")


def rule_no_pool_in_kernels(ctx: FileContext):
    """util/parallel.hpp is banned in the kernel modules (tensor, nn,
    cluster). At this codebase's per-frame shapes waking the pool costs
    more than the kernel, and the parallelism that pays is over whole
    tasks, so a kernel that fans out would only add latency and a second
    place where thread count could leak into results."""
    if not ctx.rel.startswith(KERNEL_PREFIXES):
        return
    for inc in ctx.includes:
        if inc.path == "util/parallel.hpp":
            yield Finding(
                ctx.rel, inc.line, "no-pool-in-kernels",
                "kernels run on their calling thread; fan out over tasks "
                "in the caller instead of including util/parallel.hpp")


def rule_no_throw_omi_hot_path(ctx: FileContext):
    """Literal `throw` banned in the per-frame OMI hot path."""
    if ctx.rel not in NO_THROW_FILES:
        return
    for t in ctx.tokens:
        if _is(t, "ident", "throw"):
            yield Finding(ctx.rel, t.line, "no-throw-omi-hot-path",
                          "literal throw banned in the OMI hot path; "
                          "degrade via the ladder or use ANOLE_CHECK")


def rule_no_reinterpret_cast(ctx: FileContext):
    """reinterpret_cast banned outside the two sanctioned homes."""
    if ctx.rel in REINTERPRET_CAST_FILES:
        return
    for t in ctx.tokens:
        if _is(t, "ident", "reinterpret_cast"):
            yield Finding(ctx.rel, t.line, "no-reinterpret-cast",
                          "reinterpret_cast banned here; route raw byte "
                          "access through nn/serialize.hpp pod helpers")


def rule_no_naked_intrinsics(ctx: FileContext):
    """Vendor SIMD intrinsics (<immintrin.h> and friends, _mm*/__m*
    identifiers) are banned outside src/tensor/simd.*. A naked intrinsic
    elsewhere bypasses the runtime dispatcher, so an ANOLE_SIMD override
    (or a replay on a different host) would silently execute a different
    instruction mix than the recorded level."""
    if ctx.rel.startswith(INTRINSICS_PREFIX):
        return
    for inc in ctx.includes:
        if inc.path.endswith("intrin.h"):
            yield Finding(
                ctx.rel, inc.line, "no-naked-intrinsics",
                f"<{inc.path}> banned outside {INTRINSICS_PREFIX}*; call "
                "the leveled kernels in tensor/simd.hpp instead")
    for t in ctx.tokens:
        if t.kind != "ident":
            continue
        if t.text.startswith("_mm") or t.text.startswith("__m"):
            yield Finding(
                ctx.rel, t.line, "no-naked-intrinsics",
                f"intrinsic '{t.text}' banned outside {INTRINSICS_PREFIX}*; "
                "raw intrinsics bypass the ANOLE_SIMD dispatch level — use "
                "the kernels in tensor/simd.hpp")


def rule_no_wallclock(ctx: FileContext):
    """All wall-clock access banned under src/: clock types (not just
    ::now()), time(), clock_gettime(), gettimeofday(), and friends.
    Runtime decisions run on logical frame counters so traces replay."""
    if not ctx.in_src:
        return
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        if t.text in _WALLCLOCK_CLOCKS:
            yield Finding(ctx.rel, t.line, "no-wallclock",
                          f"std::chrono::{t.text} banned under src/; use "
                          "logical frame counters so decisions replay")
            continue
        if t.text in _WALLCLOCK_FUNCS and _is(_next(toks, i), "punct", "("):
            prev = _prev(toks, i)
            if _is(prev, "punct", ".") or _is(prev, "punct", "->"):
                continue  # member function (e.g. profile.time(...))
            if (prev is not None and prev.kind == "ident"
                    and prev.text not in _NON_QUALIFIER_KEYWORDS):
                continue  # a declaration (`double time(int)`), not a call
            if _is(prev, "punct", "::"):
                qualifier = _prev(toks, i - 1)
                if (_is(qualifier, "ident") and qualifier.text != "std"
                        and qualifier.text not in _NON_QUALIFIER_KEYWORDS):
                    continue
            yield Finding(ctx.rel, t.line, "no-wallclock",
                          f"{t.text}() banned under src/; wall-clock reads "
                          "break bitwise replay — use logical counters")


# ---------------------------------------------------------------------------
# New deep rules
# ---------------------------------------------------------------------------

def rule_no_unordered_iteration(ctx: FileContext):
    """Iterating a std::unordered_{map,set} in trace-affecting code is
    banned: bucket order is implementation-defined, so a range-for or
    begin()/end() walk injects nondeterminism into replay. Point lookups
    (find/count/contains/operator[]) are fine. Use std::map/std::set or
    a sorted vector when order reaches a decision."""
    if not ctx.rel.startswith(ORDERED_ITERATION_PREFIXES):
        return
    toks = ctx.tokens
    n = len(toks)

    # Pass 1: names declared with an unordered type in this file
    # (locals, members, and parameters alike).
    unordered_names: set[str] = set()
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in _UNORDERED_TYPES:
            continue
        j = i + 1
        if not _is(toks[j] if j < n else None, "punct", "<"):
            continue
        depth = 0
        while j < n:
            if toks[j].kind == "punct":
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
            j += 1
        j += 1
        # Skip declarator decorations.
        while j < n and (_is(toks[j], "punct", "&")
                         or _is(toks[j], "punct", "*")
                         or _is(toks[j], "ident", "const")):
            j += 1
        if j < n and toks[j].kind == "ident":
            unordered_names.add(toks[j].text)

    # Pass 2a: range-for over an unordered name (or temporary).
    for i, t in enumerate(toks):
        if not _is(t, "ident", "for"):
            continue
        if not _is(_next(toks, i), "punct", "("):
            continue
        j = i + 1
        depth = 0
        colon = None
        while j < n:
            tk = toks[j]
            if tk.kind == "punct":
                if tk.text in "([{":
                    depth += 1
                elif tk.text in ")]}":
                    depth -= 1
                    if depth == 0:
                        break
                elif tk.text == ":" and depth == 1 and colon is None:
                    colon = j
            j += 1
        if colon is None:
            continue  # classic for loop
        range_expr = toks[colon + 1:j]
        if any(tk.kind == "ident" and (tk.text in unordered_names
                                       or tk.text in _UNORDERED_TYPES)
               for tk in range_expr):
            yield Finding(
                ctx.rel, t.line, "no-unordered-iteration",
                "range-for over an unordered container in trace-affecting "
                "code; bucket order is nondeterministic — use std::map/"
                "std::set or a sorted vector")

    # Pass 2b: explicit iterator walks. Only the begin family: a loop
    # always needs a begin, while `m.find(k) != m.end()` — the idiomatic
    # point lookup — touches end() without iterating.
    iter_members = {"begin", "cbegin", "rbegin", "crbegin"}
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in unordered_names:
            continue
        nxt = _next(toks, i)
        if not (_is(nxt, "punct", ".") or _is(nxt, "punct", "->")):
            continue
        member = _next(toks, i + 1)
        if (member is not None and member.kind == "ident"
                and member.text in iter_members):
            yield Finding(
                ctx.rel, t.line, "no-unordered-iteration",
                f"iterating '{t.text}' (unordered container) in trace-"
                "affecting code; bucket order is nondeterministic")


def rule_no_unstable_tiebreak(ctx: FileContext):
    """std::sort with a projected-key comparator (a.confidence > b...,
    key[a] < key[b]) in ranking/decision code must use the documented
    index tie-break idiom:

        if (key[a] != key[b]) return key[a] > key[b];
        return a < b;  // deterministic tie-break

    A single-return comparator on a projected key leaves the order of
    tied elements to introsort's pivot choices — stable today, silently
    different after any sort-call-site change. Comparators that compare
    the elements themselves (total order on the key) are fine, as are
    two-stage comparators and std::tie chains."""
    if not ctx.rel.startswith(TIEBREAK_PREFIXES):
        return
    toks = ctx.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if not _is(t, "ident", "sort"):
            continue
        prev = _prev(toks, i)
        if not (_is(prev, "punct", "::")
                and _is(_prev(toks, i - 1), "ident", "std")):
            continue
        if not _is(_next(toks, i), "punct", "("):
            continue
        # Span of the call's argument list.
        j = i + 1
        depth = 0
        while j < n:
            if toks[j].kind == "punct":
                if toks[j].text == "(":
                    depth += 1
                elif toks[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
            j += 1
        args = toks[i + 2:j]
        finding = _comparator_violation(args)
        if finding is not None:
            yield Finding(
                ctx.rel, t.line, "no-unstable-tiebreak",
                "std::sort comparator projects a key without a tie-break; "
                "use `if (ka != kb) return ka > kb; return a < b;` so "
                "tied elements order deterministically")


def _comparator_violation(args: list[Token]):
    """True-ish when args contain a lambda comparator whose body is a
    single return comparing *projected* keys with no tie-break."""
    # Find a lambda: '[' ... ']' '(' params ')' ... '{' body '}'
    for i, t in enumerate(args):
        if not _is(t, "punct", "["):
            continue
        # capture list
        j = i
        depth = 0
        while j < len(args):
            if args[j].kind == "punct":
                if args[j].text == "[":
                    depth += 1
                elif args[j].text == "]":
                    depth -= 1
                    if depth == 0:
                        break
            j += 1
        k = j + 1
        if k >= len(args) or not _is(args[k], "punct", "("):
            continue  # subscript, not a lambda
        # parameter names: idents immediately before ',' or ')'
        depth = 0
        params = []
        m = k
        while m < len(args):
            if args[m].kind == "punct":
                if args[m].text == "(":
                    depth += 1
                elif args[m].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                if args[m].text in (",", ")") and m > 0 and (
                        args[m - 1].kind == "ident"):
                    params.append(args[m - 1].text)
            m += 1
        if m < len(args) and _is(args[m], "punct", ")") and m > 0 and (
                args[m - 1].kind == "ident"):
            params.append(args[m - 1].text)
        # body
        b = m
        while b < len(args) and not _is(args[b], "punct", "{"):
            b += 1
        if b >= len(args):
            continue
        depth = 0
        e = b
        while e < len(args):
            if args[e].kind == "punct":
                if args[e].text == "{":
                    depth += 1
                elif args[e].text == "}":
                    depth -= 1
                    if depth == 0:
                        break
            e += 1
        body = args[b + 1:e]
        if _body_is_unstable(body, set(params)):
            return True
    return None


def _body_is_unstable(body: list[Token], params: set[str]) -> bool:
    texts = [t.text for t in body]
    # Tie-break idioms: a second stage, an inequality pre-test, std::tie.
    if "if" in texts or "?" in texts or "tie" in texts or "!=" in texts:
        return False
    if texts.count("return") != 1:
        return False
    if "<" not in texts and ">" not in texts:
        return False
    # Projected key: any member access, subscript, or call on the
    # comparison operands. Comparing the bare parameters is a total
    # order on the element itself — deterministic.
    projected = any(t.kind == "punct" and t.text in (".", "->", "[", "(")
                    for t in body)
    if not projected:
        return False
    # All idents restricted to the parameters => bare compare (handles
    # `return a < b;`).
    idents = {t.text for t in body if t.kind == "ident"} - {"return"}
    if idents and idents <= params:
        return bool(projected)
    return True


def rule_env_var_registry(ctx: FileContext, readme_vars: set[str]):
    """Every getenv("ANOLE_*") under src/ must be documented in the
    README environment-variable table. An undocumented knob is invisible
    to operators and to the replay checklist."""
    if not ctx.in_src:
        return
    # Needs the raw token stream including string literals; FileContext
    # carries code tokens, so the driver passes getenv sites separately.
    for line, var in ctx.getenv_sites:  # type: ignore[attr-defined]
        if var not in readme_vars:
            yield Finding(
                ctx.rel, line, "env-var-registry",
                f'getenv("{var}") is not documented in the README '
                "environment table; add a row describing the knob")


ALL_FILE_RULES = [
    ("no-c-prng", rule_no_c_prng),
    ("no-naked-new", rule_no_naked_new),
    ("no-using-namespace", rule_no_using_namespace),
    ("own-header-first", rule_own_header_first),
    ("no-cout", rule_no_cout),
    ("no-raw-thread", rule_no_raw_thread),
    ("no-pool-in-kernels", rule_no_pool_in_kernels),
    ("no-throw-omi-hot-path", rule_no_throw_omi_hot_path),
    ("no-reinterpret-cast", rule_no_reinterpret_cast),
    ("no-naked-intrinsics", rule_no_naked_intrinsics),
    ("no-wallclock", rule_no_wallclock),
    ("no-unordered-iteration", rule_no_unordered_iteration),
    ("no-unstable-tiebreak", rule_no_unstable_tiebreak),
]

# Graph/global rules are orchestrated by the driver:
#   layering-dag        include_graph.layering_findings + file cycles
#   env-var-registry    rule_env_var_registry (needs README contents)
#   contract-coverage   contracts.scan_functions + ratchet baseline
GLOBAL_RULE_IDS = ("layering-dag", "env-var-registry", "contract-coverage")

RULE_DOCS = {
    "no-c-prng": "rand()/srand() banned; all randomness via anole::Rng",
    "no-naked-new": "new/delete banned outside src/tensor internals",
    "no-using-namespace": "`using namespace` banned in headers",
    "own-header-first": "src .cpp files include their own header first",
    "no-cout": "std::cout banned outside examples/ and bench/",
    "no-raw-thread": "raw threads banned; use the deterministic pool",
    "no-pool-in-kernels":
        "tensor/nn/cluster kernels never include util/parallel.hpp",
    "no-throw-omi-hot-path": "no literal throw in the OMI hot path",
    "no-reinterpret-cast": "reinterpret_cast only in sanctioned homes",
    "no-naked-intrinsics":
        "vendor SIMD intrinsics only inside src/tensor/simd.*",
    "no-wallclock": "no wall-clock reads under src/ (clocks, time(), ...)",
    "no-unordered-iteration":
        "no iteration over unordered containers in trace-affecting code",
    "no-unstable-tiebreak":
        "ranking sort comparators must tie-break deterministically",
    "layering-dag":
        "module includes must respect the util→…→core→device DAG",
    "env-var-registry":
        "every ANOLE_* getenv must appear in the README env table",
    "contract-coverage":
        "public-function ANOLE_CHECK coverage may only go up (ratchet)",
}
