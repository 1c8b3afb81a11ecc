#!/usr/bin/env python
"""Documentation checks, run by the ``docs-check`` CI job.

Four passes over the repo's markdown:

1. **Link check** — every intra-repo markdown link (``[text](path)``
   with a relative target) must resolve to an existing file or
   directory. External (``http``/``https``/``mailto``) and pure
   fragment (``#...``) links are skipped; a ``path#fragment`` target
   is checked for the file only.
2. **Example check** — fenced ```` ```pycon ```` blocks are extracted
   per file, concatenated (so later fences can reuse earlier names),
   and executed with :mod:`doctest` (``ELLIPSIS`` +
   ``NORMALIZE_WHITESPACE``). Run with ``PYTHONPATH=src`` so the
   examples can ``import repro``.
3. **CLI flag check** — every ``--flag`` on a line of a fenced code
   block that invokes ``repro.cli`` or ``repro-experiments`` (and on
   its ``\`` continuation lines) must be an option that ``python -m
   repro.cli <sub> --help`` prints for some subcommand, so a retired
   flag cannot linger in the docs. The files that record history
   (:data:`HISTORY_FILES`, or any file carrying
   :data:`HISTORY_MARKER`) are skipped.
4. **Test reference check** — every ``tests/<file>.py`` or
   ``benchmarks/<file>.py`` path must exist, and each ``::Name`` after
   it must be a class or function that file defines (a
   ``Class::test`` name is looked up inside its class), so a doc
   cannot point at a renamed or deleted test. History files are
   skipped here too.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import ast
import contextlib
import doctest
import io
import os
import re
import sys
from typing import Iterator, List, Set

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: [text](target) — target up to the first ')' or whitespace.
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```pycon[ \t]*\n(.*?)^```[ \t]*$", re.M | re.S)
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
#: Markdown that records history, where retired flags and the names of
#: deleted tests may stay.
HISTORY_FILES = {"CHANGES.md", "ROADMAP.md"}
#: A line that makes any other markdown file a history file, e.g. a
#: change request that names the tests it deletes.
HISTORY_MARKER = "<!-- docs-check: history -->"
#: A command line that runs the CLI.
CLI_RE = re.compile(r"repro\.cli|repro-experiments")
FLAG_RE = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
#: Subcommands whose ``--help`` lists the CLI's options (plus every
#: ``history`` subcommand, read off ``history --help``).
CLI_SUBCOMMANDS = ("run", "experiments", "compare", "replay", "ingest", "history")
#: A test file path, then any ``::Name`` parts (``Class::test``).
TEST_REF_RE = re.compile(
    r"(?<![\w/.-])((?:tests|benchmarks)/[\w/.-]*?\.py)\b((?:::\w+)*)"
)


def markdown_files() -> Iterator[str]:
    """Every tracked-looking ``.md`` file under the repo root."""
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = sorted(
            d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
        )
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_links(path: str) -> List[str]:
    """Broken intra-repo links in one markdown file, as messages."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(SKIP_PREFIXES):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target.split("#", 1)[0])
                )
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, REPO)
                    problems.append(
                        f"{rel}:{lineno}: broken link -> {target}"
                    )
    return problems


def check_examples(path: str) -> List[str]:
    """Run a file's ```pycon fences as one doctest; failures as messages."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    fences = FENCE_RE.findall(text)
    if not fences:
        return []
    rel = os.path.relpath(path, REPO)
    parser = doctest.DocTestParser()
    test = parser.get_doctest(
        "\n".join(fences), {"__name__": "__docs__"}, rel, rel, 0
    )
    out: List[str] = []
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    runner.run(test, out=out.append)
    results = runner.summarize(verbose=False)
    if results.failed:
        return ["".join(out).rstrip() or f"{rel}: doctest failure"]
    print(f"{rel}: {results.attempted} example(s) OK")
    return []


def _cli_help(argv: List[str]) -> str:
    """What ``python -m repro.cli <argv> --help`` prints."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(argv + ["--help"])
        except SystemExit:
            pass
    return out.getvalue()


def cli_flags() -> Set[str]:
    """Every option the CLI's subcommands accept."""
    history = _cli_help(["history"])
    subs = re.search(r"\{([\w,]+)\}", history).group(1).split(",")
    flags = set(FLAG_RE.findall(history))
    for argv in [[sub] for sub in CLI_SUBCOMMANDS] + [
        ["history", sub] for sub in subs
    ]:
        flags.update(FLAG_RE.findall(_cli_help(argv)))
    return flags


def is_history(path: str) -> bool:
    """Whether a markdown file records history (see :data:`HISTORY_FILES`)."""
    if os.path.relpath(path, REPO) in HISTORY_FILES:
        return True
    with open(path, encoding="utf-8") as fh:
        return any(line.strip() == HISTORY_MARKER for line in fh)


def check_cli_flags(path: str, known: Set[str]) -> List[str]:
    """Flags the CLI does not accept on a file's command lines."""
    if is_history(path):
        return []
    rel = os.path.relpath(path, REPO)
    problems = []
    in_fence = in_command = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if stripped.startswith("```"):
                in_fence, in_command = not in_fence, False
                continue
            if not in_fence:
                continue
            in_command = in_command or bool(CLI_RE.search(line))
            if in_command:
                problems.extend(
                    f"{rel}:{lineno}: {flag} is not a CLI option"
                    for flag in FLAG_RE.findall(line)
                    if flag not in known
                )
            in_command = in_command and stripped.endswith("\\")
    return problems


def _definitions(body: list) -> dict:
    """Classes and functions defined in an ``ast`` body, each class
    mapped to the definitions in its own body."""
    return {
        node.name: _definitions(node.body) if isinstance(node, ast.ClassDef) else {}
        for node in body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def check_test_refs(path: str) -> List[str]:
    """Test files and ``::`` names a file cites that do not exist."""
    if is_history(path):
        return []
    rel = os.path.relpath(path, REPO)
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            for match in TEST_REF_RE.finditer(line):
                target, names = match.groups()
                source = os.path.join(REPO, target)
                if not os.path.isfile(source):
                    problems.append(f"{rel}:{lineno}: {target} does not exist")
                    continue
                with open(source, encoding="utf-8") as src:
                    scope = _definitions(ast.parse(src.read(), source).body)
                for name in names.split("::")[1:]:
                    if name not in scope:
                        problems.append(
                            f"{rel}:{lineno}: {target}{names}: {target} "
                            f"defines no {name}"
                        )
                        break
                    scope = scope[name]
    return problems


def main() -> int:
    """Run the four checks over every markdown file; 0 iff all clean."""
    problems: List[str] = []
    for path in markdown_files():
        problems.extend(check_links(path))
    for path in markdown_files():
        problems.extend(check_examples(path))
    known = cli_flags()
    for path in markdown_files():
        problems.extend(check_cli_flags(path, known))
    for path in markdown_files():
        problems.extend(check_test_refs(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
