#!/usr/bin/env python3
"""Documentation hygiene checks (stdlib only).

1. Every intra-repo markdown link in every tracked .md file must
   resolve to an existing file or directory (anchors are stripped;
   external http(s)/mailto links are ignored).
2. docs/architecture.md must mention every direct subdirectory of
   src/ — the architecture page is the map, and a subsystem missing
   from the map is drift.
3. docs/architecture.md must link every other file in docs/ — the
   "Which doc do I read?" index is only useful if it is complete, and
   a doc nothing links to is a doc nobody finds.
4. A `bench_<name>` inside a code span must name a target (or source
   file) in bench/, and a `BENCH_<name>.json` must name a file at the
   repo root — a doc quoting a retired benchmark is drift. A trailing
   `*` is a prefix glob (`bench_fig*`). At the repo root only the pages
   that describe the current tree (README.md, DESIGN.md, EXPERIMENTS.md)
   are checked — the change logs record history and the paper notes
   quote other code. perfbench/, which keeps its own docs, is not
   checked.

Run from anywhere: paths are resolved relative to the repo root
(the parent of this script's directory). Exits nonzero with a report
when anything is broken; prints a one-line summary when clean.

Wired into ctest (check_docs_test) and scripts/check.sh.
"""

import os
import re
import sys

# An inline code span, and the bench names that may appear inside one.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# Not after a dot: `.bench_build/` is perfbench's build tree, not a bench.
BENCH_NAME_RE = re.compile(r"(?<![\w.])bench_[A-Za-z0-9_]*\*?")
BENCH_JSON_RE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json")
BENCH_TARGET_RE = re.compile(
    r"(?:dkf_add_bench|add_executable|add_library)\(\s*([A-Za-z0-9_]+)")
BENCH_NAME_ROOT_FILES = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}
BENCH_NAME_SKIP_DIRS = ("perfbench",)

# [text](target) — target up to the first closing paren or whitespace.
# Good enough for this repo's docs; fenced code blocks are excluded
# separately below.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_DIR_NAMES = {".git", "third_party"}
SKIP_DIR_PREFIXES = ("build",)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIR_NAMES and not d.startswith(SKIP_DIR_PREFIXES)
        ]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def strip_fenced_code(text):
    """Remove ``` blocks so example links / ASCII art are not checked."""
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def check_links(root):
    errors = []
    for md in markdown_files(root):
        text = strip_fenced_code(open(md, encoding="utf-8").read())
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(md), path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md, root)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def check_architecture_mentions(root):
    arch_path = os.path.join(root, "docs", "architecture.md")
    if not os.path.isfile(arch_path):
        return ["docs/architecture.md is missing"]
    text = open(arch_path, encoding="utf-8").read()
    errors = []
    src = os.path.join(root, "src")
    for name in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, name)):
            continue
        # Accept "src/name/", "name/", or a bare mention of the dir.
        if not re.search(rf"\b{re.escape(name)}/", text):
            errors.append(
                f"docs/architecture.md: src/{name}/ is not mentioned")
    return errors


def check_doc_index_complete(root):
    """Every docs/*.md must be linked from docs/architecture.md."""
    arch_path = os.path.join(root, "docs", "architecture.md")
    if not os.path.isfile(arch_path):
        return []  # already reported by check_architecture_mentions
    text = strip_fenced_code(open(arch_path, encoding="utf-8").read())
    linked = {os.path.normpath(target.split("#", 1)[0])
              for target in LINK_RE.findall(text)}
    errors = []
    docs = os.path.join(root, "docs")
    for name in sorted(os.listdir(docs)):
        if not name.endswith(".md") or name == "architecture.md":
            continue
        if name not in linked:
            errors.append(
                f"docs/architecture.md: docs/{name} is not linked from "
                "the doc index")
    return errors


def bench_names(root):
    """Targets declared in bench/CMakeLists.txt plus the file stems in
    bench/ (the shared bench_util sources are not a target of their own)."""
    bench = os.path.join(root, "bench")
    cmake = open(os.path.join(bench, "CMakeLists.txt"), encoding="utf-8").read()
    names = set(BENCH_TARGET_RE.findall(cmake))
    names.update(os.path.splitext(name)[0] for name in os.listdir(bench))
    return names


def check_bench_names(root):
    names = bench_names(root)
    errors = []
    for md in markdown_files(root):
        rel = os.path.relpath(md, root)
        at_root = os.sep not in rel
        if ((at_root and rel not in BENCH_NAME_ROOT_FILES)
                or rel.split(os.sep, 1)[0] in BENCH_NAME_SKIP_DIRS):
            continue
        text = strip_fenced_code(open(md, encoding="utf-8").read())
        for span in CODE_SPAN_RE.findall(text):
            for name in BENCH_NAME_RE.findall(span):
                if name.endswith("*"):
                    known = any(n.startswith(name[:-1]) for n in names)
                else:
                    known = name in names
                if not known:
                    errors.append(f"{rel}: `{name}` is not a bench target")
            for name in BENCH_JSON_RE.findall(span):
                if not os.path.isfile(os.path.join(root, name)):
                    errors.append(f"{rel}: `{name}` does not exist")
    return errors


def main():
    root = repo_root()
    errors = (check_links(root) + check_architecture_mentions(root)
              + check_doc_index_complete(root) + check_bench_names(root))
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    count = sum(1 for _ in markdown_files(root))
    print(f"check_docs: OK ({count} markdown files, all links resolve, "
          "architecture.md covers all src/ subsystems and links every doc, "
          "every quoted bench exists)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
