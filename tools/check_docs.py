#!/usr/bin/env python3
"""Documentation consistency checker (CI `docs` job).

Five checks, all hard failures:

1. Intra-repo markdown links. Every relative link target in the repo's
   markdown files must resolve to an existing file (anchors are validated
   against the target file's headings, GitHub-slug style). External links
   (http/https/mailto) are ignored; so is anything inside fenced code
   blocks.

2. `explore --help` flag coverage. Every `--flag` the explore CLI
   advertises must be documented in docs/BENCHMARKS.md, so the CLI can
   never grow an undocumented knob. With --analyze, the same check runs
   for the analyze CLI against docs/ANALYSIS.md.

3. Oracle reference coverage (with --explore). Every oracle `explore
   --list-oracles` reports must have a "## `name`" section in
   docs/ORACLES.md, and every such section must name a real oracle — the
   reference can neither rot nor invent detectors.

4. Stats-report sections. The report's sections and counters are declared
   in C++ tables (BINSYM_REPORT_SECTIONS in src/core/stats.hpp,
   BINSYM_ENGINE_COUNTERS in src/core/engine.hpp, BINSYM_SOLVER_COUNTERS
   in src/smt/solver.hpp). Every counter row must name a declared section,
   and every optional section, the kind the report elides when its
   counters are all zero, must be named in docs/BENCHMARKS.md's elision
   note.

5. USER_GUIDE quickstart (with --run-quickstart). Every fenced `sh` block
   in docs/USER_GUIDE.md is executed verbatim from the repository root,
   in order, failing on the first non-zero exit — the tutorial's commands
   must actually work against the build tree.

Usage:
    tools/check_docs.py [--explore build/explore] [--analyze build/analyze]
                        [--run-quickstart]

Run from anywhere; paths are resolved relative to the repository root
(the parent of this script's directory).
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Directories never scanned for markdown.
EXCLUDED_DIRS = {".git", "build", ".claude"}

LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^(```|~~~)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# An oracle section in docs/ORACLES.md: a level-2 heading whose entire
# text is one backticked name.
ORACLE_HEADING_RE = re.compile(r"^##\s+`([a-z0-9-]+)`\s*$")


def markdown_files():
    for path in sorted(REPO.rglob("*.md")):
        if any(part in EXCLUDED_DIRS for part in path.relative_to(REPO).parts):
            continue
        yield path


def strip_code_blocks(text):
    """Drop fenced code blocks so example snippets don't register links."""
    kept, fenced = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            fenced = not fenced
            continue
        if not fenced:
            kept.append(line)
    return kept


def github_slug(heading):
    """GitHub's heading-to-anchor slug: lowercase, spaces to hyphens,
    punctuation (except hyphens/underscores) removed."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(md_path):
    anchors = set()
    for line in strip_code_blocks(md_path.read_text(encoding="utf-8")):
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(1)))
    return anchors


def check_links():
    errors = []
    for md in markdown_files():
        rel = md.relative_to(REPO)
        for line in strip_code_blocks(md.read_text(encoding="utf-8")):
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                    continue
                path_part, _, anchor = target.partition("#")
                dest = md if not path_part else (md.parent / path_part)
                try:
                    dest = dest.resolve()
                    dest.relative_to(REPO)
                except ValueError:
                    errors.append(f"{rel}: link escapes the repo: {target}")
                    continue
                if not dest.exists():
                    errors.append(f"{rel}: broken link: {target}")
                    continue
                if anchor and dest.suffix == ".md":
                    if anchor not in anchors_of(dest):
                        errors.append(f"{rel}: broken anchor: {target}")
    return errors


def check_cli_flags(binary, doc_name):
    """Every `--flag` in `binary --help` must appear in docs/<doc_name>."""
    result = subprocess.run([binary, "--help"], capture_output=True,
                            text=True, timeout=60)
    if result.returncode != 0:
        return [f"{binary} --help exited {result.returncode}"]
    advertised = sorted(set(FLAG_RE.findall(result.stdout)))
    if not advertised:
        return [f"{binary} --help advertised no flags (bad parse?)"]
    documented = (REPO / "docs" / doc_name).read_text(encoding="utf-8")
    return [
        f"docs/{doc_name}: flag not documented: {flag}"
        for flag in advertised
        if flag not in documented
    ]


def check_oracle_reference(explore_binary):
    """docs/ORACLES.md sections <-> `explore --list-oracles`, both ways."""
    result = subprocess.run([explore_binary, "--list-oracles"],
                            capture_output=True, text=True, timeout=60)
    if result.returncode != 0:
        return [f"{explore_binary} --list-oracles exited {result.returncode}"]
    advertised = {line.strip() for line in result.stdout.splitlines()
                  if line.strip()}
    if not advertised:
        return [f"{explore_binary} --list-oracles printed nothing"]
    doc = REPO / "docs" / "ORACLES.md"
    documented = set()
    for line in strip_code_blocks(doc.read_text(encoding="utf-8")):
        match = ORACLE_HEADING_RE.match(line)
        if match:
            documented.add(match.group(1))
    errors = [f"docs/ORACLES.md: oracle not documented: {name}"
              for name in sorted(advertised - documented)]
    errors += [f"docs/ORACLES.md: section for unknown oracle: {name}"
               for name in sorted(documented - advertised)]
    return errors


def check_robustness_doc(explore_binary):
    """docs/ROBUSTNESS.md must document every robustness flag and every
    fault-injection site the binary implements. The site list is recovered
    from the CLI's own bad-spec diagnostic, so the doc tracks the code,
    not a hardcoded list in this checker."""
    doc = (REPO / "docs" / "ROBUSTNESS.md").read_text(encoding="utf-8")
    errors = []
    for flag in ("--solver", "--query-timeout-ms", "--deadline-secs",
                 "--memory-budget-mb", "--fault-inject"):
        if flag not in doc:
            errors.append(f"docs/ROBUSTNESS.md: flag not documented: {flag}")
    result = subprocess.run(
        [explore_binary, "bubble-sort", "--fault-inject", "bogus-site@1"],
        capture_output=True, text=True, timeout=60)
    match = re.search(r"want ([a-z, -]+?)\)", result.stderr + result.stdout)
    if not match:
        return errors + [f"{explore_binary}: could not recover the fault-site "
                         f"list from the --fault-inject diagnostic"]
    for site in re.split(r",\s*|\s+or\s+", match.group(1)):
        if f"`{site}`" not in doc:
            errors.append(
                f"docs/ROBUSTNESS.md: fault site not documented: {site}")
    return errors


def check_solvers_doc(explore_binary):
    """docs/SOLVERS.md must document the solver/store flags and every
    backend the binary offers as a primary solver. The backend list is
    recovered from the CLI's own --solver help text, so the doc tracks
    the code, not a hardcoded roster in this checker."""
    doc = (REPO / "docs" / "SOLVERS.md").read_text(encoding="utf-8")
    errors = []
    for flag in ("--solver", "--solver-store"):
        if flag not in doc:
            errors.append(f"docs/SOLVERS.md: flag not documented: {flag}")
    result = subprocess.run([explore_binary, "--help"], capture_output=True,
                            text=True, timeout=60)
    help_text = result.stdout + result.stderr
    match = re.search(r"--solver NAME.*?one\s+of\s+(.+?)\s*\(", help_text,
                      re.DOTALL)
    if not match:
        return errors + [f"{explore_binary}: could not recover the backend "
                         f"list from the --solver help text"]
    backends = [b.strip() for b in re.split(r",\s*", match.group(1))
                if b.strip()]
    if not backends:
        return errors + [f"{explore_binary}: --solver help listed no "
                         f"backends (bad parse?)"]
    for backend in backends:
        if f"`{backend}`" not in doc:
            errors.append(
                f"docs/SOLVERS.md: backend not documented: {backend}")
    return errors


# A row of BINSYM_REPORT_SECTIONS: S(kId, "name", kPresence).
SECTION_ROW_RE = re.compile(r'^\s*S\((k\w+), "([a-z-]*)", (k\w+)\)')
# A row of a counter table: X(field, merge, kSection, "label").
COUNTER_ROW_RE = re.compile(r'^\s*X\((\w+), (\w+), (k\w+), "([a-z-]+)"\)')
# The sentence of docs/BENCHMARKS.md that lists the elided sections.
ELISION_NOTE_RE = re.compile(r"\(The (.*?) sections are elided when",
                             re.DOTALL)


def check_stats_sections():
    """Counter rows name declared sections; docs/BENCHMARKS.md's elision
    note names every optional section."""
    sections = {}
    for line in (REPO / "src/core/stats.hpp").read_text().splitlines():
        match = SECTION_ROW_RE.match(line)
        if match:
            sections[match.group(1)] = (match.group(2), match.group(3))
    if not any(p == "kOptional" for _, p in sections.values()):
        return ["src/core/stats.hpp: no optional BINSYM_REPORT_SECTIONS row "
                "(bad parse?)"]
    errors, rows = [], 0
    for table in ("src/core/engine.hpp", "src/smt/solver.hpp"):
        for line in (REPO / table).read_text().splitlines():
            match = COUNTER_ROW_RE.match(line)
            if not match:
                continue
            rows += 1
            if match.group(3) not in sections:
                errors.append(f"{table}: counter {match.group(1)} names "
                              f"undeclared section {match.group(3)}")
    if rows == 0:
        errors.append("no counter table rows found (bad parse?)")
    doc = (REPO / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    note = ELISION_NOTE_RE.search(doc)
    if not note:
        return errors + ["docs/BENCHMARKS.md: elision note not found"]
    for name, presence in sections.values():
        if presence == "kOptional" and f"`{name}:`" not in note.group(1):
            errors.append(f"docs/BENCHMARKS.md: optional report section "
                          f"`{name}:` missing from the elision note")
    return errors


def quickstart_blocks():
    """The fenced `sh` blocks of docs/USER_GUIDE.md, in order."""
    blocks, current, in_sh = [], [], False
    guide = REPO / "docs" / "USER_GUIDE.md"
    for line in guide.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if in_sh and FENCE_RE.match(stripped):
            blocks.append("\n".join(current))
            current, in_sh = [], False
        elif in_sh:
            current.append(line)
        elif stripped in ("```sh", "~~~sh"):
            in_sh = True
    return blocks


def run_quickstart():
    """Execute the USER_GUIDE quickstart verbatim from the repo root."""
    blocks = quickstart_blocks()
    if not blocks:
        return ["docs/USER_GUIDE.md: no fenced sh blocks found (bad parse?)"]
    errors = []
    for index, block in enumerate(blocks):
        print(f"quickstart block {index + 1}/{len(blocks)}:\n{block}")
        result = subprocess.run(["bash", "-e", "-o", "pipefail", "-c", block],
                                cwd=REPO, timeout=600)
        if result.returncode != 0:
            errors.append(f"docs/USER_GUIDE.md: quickstart block "
                          f"{index + 1} exited {result.returncode}: {block!r}")
            break  # later blocks depend on earlier ones
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--explore", metavar="BINARY",
                        help="path to the built explore example; enables the "
                             "flag-coverage and oracle-reference checks")
    parser.add_argument("--analyze", metavar="BINARY",
                        help="path to the built analyze example; enables its "
                             "flag-coverage check against docs/ANALYSIS.md")
    parser.add_argument("--run-quickstart", action="store_true",
                        help="execute docs/USER_GUIDE.md's fenced sh blocks "
                             "against the build tree")
    args = parser.parse_args()

    errors = check_links() + check_stats_sections()
    if args.explore:
        errors += check_cli_flags(args.explore, "BENCHMARKS.md")
        errors += check_oracle_reference(args.explore)
        errors += check_robustness_doc(args.explore)
        errors += check_solvers_doc(args.explore)
    else:
        print("note: --explore not given, skipping the flag-coverage and "
              "oracle-reference checks")
    if args.analyze:
        errors += check_cli_flags(args.analyze, "ANALYSIS.md")
    else:
        print("note: --analyze not given, skipping its flag-coverage check")
    if args.run_quickstart:
        errors += run_quickstart()

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"check_docs: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
