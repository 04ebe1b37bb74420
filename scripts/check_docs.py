#!/usr/bin/env python3
"""Doc-drift gate: docs must not reference knobs or source files that no
longer exist, and configuration keys must not exist without documentation.

Three checks, run from the repo root:

1. Forward (docs -> source): every Properties key (``training.*`` /
   ``serving.*`` / ``planner.*`` / ``lifecycle.*`` / ``traffic.*``) and every
   ``INTELLISPHERE_*`` CMake option mentioned in
   README.md, DESIGN.md, or docs/*.md must appear somewhere in the source
   tree (src/, scripts/, or a CMakeLists.txt). A doc mentioning a deleted
   knob fails the gate.

2. Reverse (source -> docs): every Properties key *declared* in src/ (the
   ``inline constexpr char k<Name>Key[] = "<prefix>.<name>"`` pattern) and
   every ``option(INTELLISPHERE_...)`` must be documented in docs/CONFIG.md.
   A knob added without documentation fails the gate.

3. Paths (docs -> tree): every repository path the same doc files cite
   under ``src/``, ``bench/``, ``tests/``, ``examples/``, ``scripts/`` or
   ``tools/`` with a source suffix (``.h``, ``.cc``, ``.cpp``, ``.py``,
   ``.sh``) must exist. A brace form such as ``src/serving/service.{h,cc}``
   names one file per alternative. A doc citing a renamed or deleted file
   fails the gate.

Exit status 0 when all three hold; 1 with a per-finding report otherwise.
Wired into scripts/check.sh and the tier2 ctest label.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Doc files scanned in the forward direction.
DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)

# A Properties key: a training./serving./remote./planner./lifecycle./
# traffic. prefix followed by dotted lowercase segments. Trailing dots (from
# wildcard mentions such as "serving.cache.*") are stripped after matching.
KEY_RE = re.compile(
    r"\b(?:training|serving|remote|planner|lifecycle|traffic)"
    r"\.[a-z0-9_]+(?:\.[a-z0-9_]+)*"
)

# A CMake option or cache variable. The include-guard convention
# (INTELLISPHERE_..._H_) uses the same prefix, so guards are filtered out.
OPTION_RE = re.compile(r"\bINTELLISPHERE_[A-Z][A-Z0-9_]*\b")

# The declaration pattern every Properties key in src/ follows; the reverse
# direction keys off this so metric/span names (also dotted strings) are not
# mistaken for configuration.
KEY_DECL_RE = re.compile(
    r"constexpr\s+char\s+k\w+Key\[\]\s*=\s*"
    r"\"((?:training|serving|remote|planner|lifecycle|traffic)\.[a-z0-9_.]+)\""
)

OPTION_DECL_RE = re.compile(r"^\s*option\((INTELLISPHERE_[A-Z0-9_]+)", re.M)

# A cited source file: a top-level source directory, a path, and a source
# suffix or a {a,b} list of suffixes.
PATH_RE = re.compile(
    r"\b((?:src|bench|tests|examples|scripts|tools)/[A-Za-z0-9_./-]*?"
    r"[A-Za-z0-9_-]\.(?:\{[a-z,]+\}|(?:h|cc|cpp|py|sh)\b))"
)


def read(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def cited_paths(text: str):
    """Every source path `text` cites, with brace forms expanded."""
    for match in PATH_RE.finditer(text):
        path = match.group(1)
        if path.endswith("}"):
            stem, suffixes = path[:-1].split("{")
            for suffix in suffixes.split(","):
                yield stem + suffix
        else:
            yield path


def source_files():
    yield ROOT / "CMakeLists.txt"
    for sub in ("src", "scripts", "tests", "bench", "examples"):
        base = ROOT / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".cc", ".cpp", ".py", ".sh", ".txt"):
                yield path


def main() -> int:
    failures = []

    source_text = "\n".join(read(p) for p in source_files())

    declared_keys = set(KEY_DECL_RE.findall(source_text))
    declared_options = set(OPTION_DECL_RE.findall(source_text))

    # Forward: docs may only mention knobs and files the source still has.
    n_paths = 0
    for doc in DOC_FILES:
        if not doc.is_file():
            continue
        text = read(doc)
        rel = doc.relative_to(ROOT)
        for key in sorted(set(m.rstrip(".") for m in KEY_RE.findall(text))):
            if key not in source_text:
                failures.append(
                    f"{rel}: references Properties key '{key}' "
                    "which does not appear anywhere in the source tree"
                )
        for opt in sorted(set(OPTION_RE.findall(text))):
            if opt.endswith("_H_"):  # include guard, not a knob
                continue
            if opt not in source_text:
                failures.append(
                    f"{rel}: references CMake option '{opt}' "
                    "which does not appear anywhere in the source tree"
                )
        for path in sorted(set(cited_paths(text))):
            n_paths += 1
            if not (ROOT / path).is_file():
                failures.append(f"{rel}: cites '{path}', which does not exist")

    # Reverse: every declared knob must be documented in docs/CONFIG.md.
    config_doc = ROOT / "docs" / "CONFIG.md"
    if not config_doc.is_file():
        failures.append("docs/CONFIG.md is missing (configuration reference)")
    else:
        config_text = read(config_doc)
        for key in sorted(declared_keys):
            if key not in config_text:
                failures.append(
                    f"src/ declares Properties key '{key}' "
                    "but docs/CONFIG.md does not document it"
                )
        for opt in sorted(declared_options):
            if opt not in config_text:
                failures.append(
                    f"CMake declares option '{opt}' "
                    "but docs/CONFIG.md does not document it"
                )

    if failures:
        print(f"check_docs: {len(failures)} doc-drift finding(s):")
        for f in failures:
            print(f"  - {f}")
        return 1

    n_docs = sum(1 for d in DOC_FILES if d.is_file())
    print(
        f"check_docs: OK ({n_docs} doc files, {len(declared_keys)} Properties "
        f"keys, {len(declared_options)} CMake options, {n_paths} cited paths "
        "cross-checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
