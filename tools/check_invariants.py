#!/usr/bin/env python3
"""Repo-invariant linter: contracts no off-the-shelf tool knows (DESIGN.md §15).

Five rules, each a build failure in the static-analysis CI job:

  INV-A  arch confinement   Arch-specific intrinsics, arch test macros, and
                            per-file -march/-m<ext> flags stay inside
                            src/hdc/kernels/ (the PR 6 fat-binary rule: one
                            binary carries every variant, dispatch picks at
                            runtime). The CpuFeatures detector may TEST arch
                            macros but never use intrinsics.
  INV-B  event emission     obs::EventLog emission (emit with an EventType
                            literal) only from the approved decision-layer
                            call sites — the exactly-one-event-per-decision
                            contract.
  INV-C  accounting first   In src/serve/, any function fulfilling a request
                            promise (set_value/set_exception) must carry its
                            accounting (record_batch / record_shed /
                            record_load_failure / inflight release / shed
                            counters) — the accounting-before-fulfillment
                            rule. Ready-future helpers are allowlisted.
  INV-D  lock discipline    No bare std::mutex / std::condition_variable /
                            std:: lock RAII / std::thread in src/ outside the
                            allowlist: locks go through the annotated
                            util/mutex.hpp wrappers (so clang -Wthread-safety
                            sees them), threads through ThreadPool or the
                            serving plane. SMORE_NO_THREAD_SAFETY_ANALYSIS
                            is wrapper-internals-only.
  INV-E  include hygiene    Every header starts with #pragma once; no
                            parent-relative ("../") includes; no <bits/...>.

Allowlist changes ride in the PR that needs them, next to the justifying
comment in this file — see DESIGN.md §15 "changing an invariant".

Exit status: 0 when clean, 1 with one "INV-x path:line message" per finding.
"""

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------- allowlists

# INV-A: the only TUs that may contain SIMD intrinsics / include intrinsic
# headers. Per-file arch flags in CMakeLists.txt are confined to this tree.
KERNEL_TU_DIR = "src/hdc/kernels"
# The runtime detector tests arch macros (never intrinsics) to know what the
# *compiler* targeted; the resolver and detector carry a plain baseline pin
# so a migrated binary can fall back before any wide instruction runs.
ARCH_MACRO_FILES = {"src/util/cpu_features.cpp"}
BASELINE_PIN_FILES = {"src/util/cpu_features.cpp", "src/hdc/dispatch.cpp"}

# INV-B: the decision layers. Each file emits exactly the events for the
# decisions IT makes (publish, shed, evict, load, lifecycle); src/obs is the
# event plumbing itself.
EMIT_FILES = {
    "src/serve/router.cpp",
    "src/serve/registry.cpp",
    "src/serve/telemetry.cpp",
}
EMIT_DIRS = ("src/obs/",)

# INV-C: helpers that RETURN an already-fulfilled future to a caller that has
# already done the accounting (the shed/load-failure paths in do_submit).
FULFILL_HELPER_NAMES = ("ready_status", "ready_error")
ACCOUNTING_TOKENS = (
    "record_batch(",
    "record_shed(",
    "record_load_failure(",
    ".fetch_sub(",        # inflight quota release
    "adapt_dropped->add(",
)

# INV-D: the annotated wrappers themselves, and where raw std::thread is the
# point (worker pools own their join lifecycle; everything else uses them).
BARE_LOCK_FILES = {"src/util/mutex.hpp"}
BARE_THREAD_FILES = {
    "src/util/thread_pool.hpp",
    "src/util/thread_pool.cpp",
    "src/serve/router.hpp",
    "src/serve/router.cpp",
}
NO_ANALYSIS_FILES = {"src/util/annotations.hpp", "src/util/mutex.hpp"}

# ----------------------------------------------------------------- scanning

INTRINSIC_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|emmintrin|x86intrin|xmmintrin|arm_neon)\.h>"
    r"|\b_mm\d*_\w+|\bvld\dq?_|\bvst\dq?_"
)
ARCH_MACRO_RE = re.compile(
    r"__AVX512\w*__|__AVX2?__|__SSE\d?_?_|__ARM_NEON\b|__FMA__"
)
EMIT_RE = re.compile(r"\bemit\s*\(\s*(?:obs\s*::\s*)?EventType\s*::")
FULFILL_RE = re.compile(r"\.\s*set_(?:value|exception)\s*\(")
BARE_LOCK_RE = re.compile(
    r"std\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|scoped_lock|unique_lock|lock_guard|shared_lock)\b"
)
BARE_THREAD_RE = re.compile(r"std\s*::\s*thread\b(?!\s*::)")
NO_ANALYSIS_RE = re.compile(r"\bSMORE_NO_THREAD_SAFETY_ANALYSIS\b")
PARENT_INCLUDE_RE = re.compile(r"#\s*include\s*\"\.\./")
BITS_INCLUDE_RE = re.compile(r"#\s*include\s*<bits/")
# A top-level definition in clang-format'd sources starts at column 0 with an
# identifier character; preprocessor lines, braces, and namespace/using
# scaffolding do not open a new function segment.
FUNC_BOUNDARY_RE = re.compile(r"^[A-Za-z_](?!amespace\b)")
CMAKE_TU_FLAGS_RE = re.compile(r"smore_tu_flags\(\s*([^\s)]+)((?:[^)])*)\)")


def strip_code(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines so
    reported line numbers match the original file."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"' or (c == "'" and not (i > 0 and text[i - 1].isalnum())):
            # The isalnum guard keeps digit separators (1'000'000) out of the
            # char-literal path.
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def findings_for_pattern(pattern, stripped, rel, rule, message):
    out = []
    for m in pattern.finditer(stripped):
        line = stripped.count("\n", 0, m.start()) + 1
        out.append((rule, rel, line, message))
    return out


# -------------------------------------------------------------------- rules


def rule_a_sources(rel, stripped):
    out = []
    if rel.startswith(KERNEL_TU_DIR + "/"):
        return out
    out += findings_for_pattern(
        INTRINSIC_RE, stripped, rel, "INV-A",
        "SIMD intrinsics are confined to src/hdc/kernels/ variant TUs "
        "(fat-binary rule; add a kernel slot + dispatch entry instead)")
    if rel not in ARCH_MACRO_FILES:
        out += findings_for_pattern(
            ARCH_MACRO_RE, stripped, rel, "INV-A",
            "arch test macros are confined to src/hdc/kernels/ and the "
            "CpuFeatures detector (dispatch on cpu_features at runtime)")
    return out


def rule_a_cmake(root):
    out = []
    cmake = root / "CMakeLists.txt"
    if not cmake.is_file():
        return out
    raw = cmake.read_text(encoding="utf-8", errors="replace")
    text = "\n".join(line.split("#", 1)[0] for line in raw.splitlines())
    for m in CMAKE_TU_FLAGS_RE.finditer(text):
        path = (m.group(1)
                .replace("${SMORE_X86_BASE}", "src")
                .replace("${CMAKE_CURRENT_SOURCE_DIR}/", ""))
        flags = m.group(2).split()
        line = text.count("\n", 0, m.start()) + 1
        if path.startswith(KERNEL_TU_DIR + "/"):
            continue
        ext_flags = [f for f in flags
                     if f.startswith("-m") and f != "-march=x86-64"]
        if ext_flags:
            out.append(("INV-A", "CMakeLists.txt", line,
                        f"per-file arch flags {ext_flags} on {path}: ISA "
                        "extensions are confined to src/hdc/kernels/ TUs"))
        elif path not in BASELINE_PIN_FILES:
            out.append(("INV-A", "CMakeLists.txt", line,
                        f"per-file -march pin on {path}: only the detector/"
                        "resolver baseline pins are allowlisted"))
    return out


def rule_b(rel, stripped):
    if rel in EMIT_FILES or rel.startswith(EMIT_DIRS):
        return []
    return findings_for_pattern(
        EMIT_RE, stripped, rel, "INV-B",
        "EventLog emission outside the approved decision-layer call sites "
        "(exactly-one-event contract: the layer that decides, emits)")


def rule_c(rel, stripped):
    if not (rel.startswith("src/serve/") and rel.endswith(".cpp")):
        return []
    out = []
    lines = stripped.split("\n")
    seg_header = ""
    seg_has_accounting = False
    pending = []  # fulfillment lines in the current segment
    def flush():
        nonlocal pending
        if pending and not seg_has_accounting and \
                not any(h in seg_header for h in FULFILL_HELPER_NAMES):
            for ln in pending:
                out.append(("INV-C", rel, ln,
                            "promise fulfilled in a function with no "
                            "accounting call (accounting-before-fulfillment: "
                            "record_* / quota release must live in the same "
                            "function, or the helper joins the allowlist)"))
        pending = []
    for idx, line in enumerate(lines, start=1):
        if FUNC_BOUNDARY_RE.match(line):
            flush()
            seg_header = line
            seg_has_accounting = False
        if any(tok in line for tok in ACCOUNTING_TOKENS):
            seg_has_accounting = True
        if FULFILL_RE.search(line):
            pending.append(idx)
    flush()
    return out


def rule_d(rel, stripped):
    out = []
    if rel not in BARE_LOCK_FILES:
        out += findings_for_pattern(
            BARE_LOCK_RE, stripped, rel, "INV-D",
            "bare std lock primitive: use the annotated Mutex/MutexLock/"
            "CondVar wrappers (util/mutex.hpp) so clang -Wthread-safety "
            "can check the lock discipline")
    if rel not in BARE_THREAD_FILES:
        out += findings_for_pattern(
            BARE_THREAD_RE, stripped, rel, "INV-D",
            "bare std::thread: use ThreadPool (or join the allowlist with "
            "an owned join lifecycle)")
    if rel not in NO_ANALYSIS_FILES:
        out += findings_for_pattern(
            NO_ANALYSIS_RE, stripped, rel, "INV-D",
            "NO_THREAD_SAFETY_ANALYSIS escape outside wrapper internals: "
            "fix the lock discipline instead of suppressing the analysis")
    return out


def rule_e(rel, stripped, raw):
    out = []
    if rel.endswith(".hpp"):
        first = next((l.strip() for l in stripped.split("\n") if l.strip()),
                     "")
        if not re.match(r"#\s*pragma\s+once\b", first):
            out.append(("INV-E", rel, 1,
                        "header does not start with #pragma once"))
    out += findings_for_pattern(
        PARENT_INCLUDE_RE, stripped, rel, "INV-E",
        'parent-relative include: include project headers as "dir/file.hpp" '
        "rooted at src/")
    out += findings_for_pattern(
        BITS_INCLUDE_RE, stripped, rel, "INV-E",
        "libstdc++ internal <bits/...> include")
    return out


# --------------------------------------------------------------------- main


def run(root: Path):
    findings = []
    src = root / "src"
    files = sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp")) \
        if src.is_dir() else []
    for path in files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_code(raw)
        findings += rule_a_sources(rel, stripped)
        findings += rule_b(rel, stripped)
        findings += rule_c(rel, stripped)
        findings += rule_d(rel, stripped)
        findings += rule_e(rel, stripped, raw)
    findings += rule_a_cmake(root)
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this file's repo)")
    args = parser.parse_args()
    findings = run(args.root.resolve())
    for rule, rel, line, message in findings:
        print(f"{rule} {rel}:{line} {message}")
    if findings:
        print(f"check_invariants: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
