#!/usr/bin/env python3
"""Repo-specific lint for mcirbm's src/ tree.

Three checks, all fatal:

1. Module layering. Dependencies between src/ modules must follow the
   DAG declared in CMakeLists.txt (util -> obs/rng -> parallel -> linalg
   -> {data, clustering} -> metrics -> voting -> rbm -> core -> eval ->
   api -> serve -> net). An #include that points at a module outside the
   including module's transitive dependency set is a back-edge and fails
   the build before the linker ever gets to diagnose the cycle.

2. Raw lock primitives. std::mutex / std::lock_guard / std::unique_lock
   / std::scoped_lock / std::condition_variable (and the <mutex> /
   <condition_variable> headers) are banned everywhere in src/ except
   src/util/mutex.h, because the raw primitives are invisible to the
   clang thread-safety analysis. Use mcirbm::Mutex / MutexLock / CondVar.

3. Nondeterminism primitives. rand() / srand() / time(nullptr) /
   time(NULL) / std::random_device are banned in src/: every kernel is
   bit-reproducible from an explicit seed (rng::Rng), and wall-clock
   reads go through util::MonotonicMicros.

Comments and string literals are stripped before matching, so prose
mentioning std::mutex (e.g. the rationale in util/thread_annotations.h)
does not trip the checks.

Usage:
    tools/lint/check_source.py [--root REPO_ROOT]
    tools/lint/check_source.py --self-test

--self-test feeds seeded violations (one per check, plus a clean file)
through the same check functions and fails loudly if any seeded
violation goes undetected — proof the lint actually bites. It runs as
the ctest entry `lint.self_test`; CI also runs the real pass.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Layering DAG: module -> direct dependencies, mirroring the
# mcirbm_module() calls in CMakeLists.txt. Keep the two in sync — the
# self-test cross-checks this table against CMakeLists.txt when run from
# a repo checkout.
# --------------------------------------------------------------------------
DIRECT_DEPS = {
    "util": [],
    "obs": ["util"],
    "rng": ["util"],
    "parallel": ["rng"],
    "linalg": ["parallel"],
    "data": ["linalg"],
    "clustering": ["linalg"],
    "metrics": ["clustering"],
    "voting": ["clustering", "metrics"],
    "rbm": ["linalg"],
    "core": ["rbm", "clustering", "voting"],
    "eval": ["core", "data", "metrics"],
    "api": ["eval"],
    "serve": ["api", "obs"],
    "net": ["serve"],
}


def transitive_deps(module: str) -> set[str]:
    """Every module `module` may include (itself included)."""
    seen: set[str] = set()
    stack = [module]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(DIRECT_DEPS.get(current, []))
    return seen


# The wrapper header that is allowed to touch the raw primitives.
MUTEX_WRAPPER = "src/util/mutex.h"

RAW_LOCK_PATTERNS = [
    (re.compile(r"#\s*include\s*<mutex>"), "#include <mutex>"),
    (re.compile(r"#\s*include\s*<condition_variable>"),
     "#include <condition_variable>"),
    (re.compile(r"\bstd::mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::recursive_mutex\b"), "std::recursive_mutex"),
    (re.compile(r"\bstd::shared_mutex\b"), "std::shared_mutex"),
    (re.compile(r"\bstd::timed_mutex\b"), "std::timed_mutex"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd::shared_lock\b"), "std::shared_lock"),
    (re.compile(r"\bstd::condition_variable\b"), "std::condition_variable"),
]

NONDETERMINISM_PATTERNS = [
    # word-boundary + lookbehind so util::rand-free identifiers like
    # `strand(` or member calls like `rng.rand()` do not false-positive.
    (re.compile(r"(?<![\w:.>])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w:.>])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "time(nullptr)"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
]

PROJECT_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')


def strip_comments_and_strings(text: str) -> str:
    """Removes //, /* */ comments and ".."/'..' literals, keeping
    newlines so reported line numbers stay correct."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*"
                                 and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch == '"' or ch == "'":
            quote = ch
            # Keep include paths: re-emit the quoted text for "..." that
            # directly follows #include on the same line.
            line_start = text.rfind("\n", 0, i) + 1
            is_include = bool(
                re.match(r"\s*#\s*include\s*$", text[line_start:i]))
            literal = [quote]
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    literal.append(text[i:i + 2])
                    i += 2
                    continue
                if text[i] == "\n":
                    break  # unterminated; tolerate
                literal.append(text[i])
                i += 1
            literal.append(quote)
            i += 1
            out.append("".join(literal) if is_include else quote + quote)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def check_file(rel_path: str, text: str) -> list[str]:
    """Returns violation strings ('path:line: message') for one file.

    `rel_path` is repo-relative with forward slashes (e.g.
    'src/serve/router.cc').
    """
    violations: list[str] = []
    parts = pathlib.PurePosixPath(rel_path).parts
    if len(parts) < 3 or parts[0] != "src":
        return violations
    module = parts[1]
    stripped = strip_comments_and_strings(text)
    lines = stripped.split("\n")

    allowed = transitive_deps(module) if module in DIRECT_DEPS else None
    is_wrapper = rel_path == MUTEX_WRAPPER

    for lineno, line in enumerate(lines, start=1):
        include = PROJECT_INCLUDE.search(line)
        if include and allowed is not None:
            target = include.group(1).split("/")[0]
            if target in DIRECT_DEPS and target not in allowed:
                violations.append(
                    f"{rel_path}:{lineno}: layering violation: module "
                    f"'{module}' must not include '{include.group(1)}' "
                    f"(allowed: {', '.join(sorted(allowed))})")
        if not is_wrapper:
            for pattern, name in RAW_LOCK_PATTERNS:
                if pattern.search(line):
                    violations.append(
                        f"{rel_path}:{lineno}: raw lock primitive {name} "
                        f"(use mcirbm::Mutex/MutexLock/CondVar from "
                        f"util/mutex.h — raw std primitives are invisible "
                        f"to the thread-safety analysis)")
        for pattern, name in NONDETERMINISM_PATTERNS:
            if pattern.search(line):
                violations.append(
                    f"{rel_path}:{lineno}: nondeterminism primitive {name} "
                    f"(seed an rng::Rng explicitly; wall-clock reads go "
                    f"through util::MonotonicMicros)")
    return violations


def lint_tree(root: pathlib.Path) -> list[str]:
    violations: list[str] = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        violations.extend(
            check_file(rel, path.read_text(encoding="utf-8")))
    return violations


# --------------------------------------------------------------------------
# Self-test: seeded violations through the same code path.
# --------------------------------------------------------------------------
def self_test(root: pathlib.Path) -> int:
    failures: list[str] = []

    def expect(name: str, rel: str, text: str, needle: str | None) -> None:
        got = check_file(rel, text)
        if needle is None:
            if got:
                failures.append(f"{name}: expected clean, got {got}")
        elif not any(needle in v for v in got):
            failures.append(
                f"{name}: expected a violation containing {needle!r}, "
                f"got {got}")

    # Layering back-edge: util reaching up into serve.
    expect("layering-back-edge", "src/util/bad.h",
           '#include "serve/router.h"\n', "layering violation")
    # Layering skip-edge: linalg reaching sideways into data.
    expect("layering-side-edge", "src/linalg/bad.cc",
           '#include "data/source.h"\n', "layering violation")
    # Legal include: serve -> api is in the DAG.
    expect("layering-legal", "src/serve/ok.cc",
           '#include "api/model.h"\n#include "serve/router.h"\n', None)
    # Raw mutex outside the wrapper.
    expect("raw-mutex", "src/serve/bad.cc",
           "#include <mutex>\nstd::mutex mu;\n", "raw lock primitive")
    expect("raw-lock-guard", "src/core/bad.cc",
           "std::lock_guard<std::mutex> l(mu);\n", "raw lock primitive")
    # The wrapper header itself is exempt.
    expect("wrapper-exempt", "src/util/mutex.h",
           "#include <mutex>\nstd::mutex mu_;\n", None)
    # Nondeterminism.
    expect("rand", "src/clustering/bad.cc",
           "int x = rand();\n", "nondeterminism")
    expect("time-null", "src/rbm/bad.cc",
           "auto t = time(nullptr);\n", "nondeterminism")
    expect("random-device", "src/rng/bad.cc",
           "std::random_device rd;\n", "nondeterminism")
    # Comments and strings must not trip anything.
    expect("comment-immune", "src/serve/ok2.cc",
           "// std::mutex is banned; rand() too\n"
           '/* std::lock_guard */ const char* s = "std::mutex rand()";\n',
           None)
    # Qualified calls like rng.rand() are not the C rand().
    expect("member-rand-ok", "src/rbm/ok.cc",
           "double d = rng.rand();\nauto r = my_rand(3);\n", None)

    # Cross-check DIRECT_DEPS against CMakeLists.txt when available.
    cml = root / "CMakeLists.txt"
    if cml.exists():
        declared = dict(
            (m.group(1), [d[len("mcirbm_"):]
                          for d in m.group(2).split()
                          if d.startswith("mcirbm_")])
            for m in re.finditer(r"mcirbm_module\((\w+)([^)]*)\)",
                                 cml.read_text(encoding="utf-8")))
        if declared and declared != DIRECT_DEPS:
            only_lint = {k: v for k, v in DIRECT_DEPS.items()
                         if declared.get(k) != v}
            only_decl = {k: declared.get(k) for k in only_lint}
            failures.append(
                "DIRECT_DEPS out of sync with CMakeLists.txt "
                f"mcirbm_module() calls: lint has {only_lint}, "
                f"CMakeLists.txt declares {only_decl}")

    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_source.py self-test: all seeded violations detected")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2],
                        help="repo root (default: two levels up)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checks fire on seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    violations = lint_tree(args.root)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        print(f"\ncheck_source.py: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_source.py: src/ clean "
          "(layering, lock primitives, determinism)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
