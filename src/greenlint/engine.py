"""File discovery and the per-project analysis/refactoring pipeline.

Files are processed one after another, in sorted order, in the calling
thread. Every file, `.java` or `res/layout*/*.xml`, goes through the same
pass loop with its language's parser and rules. A rule is a function
`(tree, path) -> RuleResult`; the layout rule gets the run's parent/attribute
table bound in. Each pass parses the current text once, runs every enabled
rule on that tree and applies their merged edit lists in one step. The first
pass is the report, so findings point into the file on disk; the pass after
a rewrite is its verification; for Java it re-lexes only around the edits
and re-parses only the members they touch, reusing the old tokens and
subtrees elsewhere. Rewritten text must re-parse
cleanly and the rules must then report nothing fixable, otherwise the
file's fixes are rolled back and surfaced as an internal error. A
project's per-rule counts come from its files' findings.
"""

from __future__ import annotations

import os
import re
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

from .diagnostics import ParseDiagnostic, line_col
from .java.parser import SyntaxTree, parse_java_source
from .rules import (
    Finding,
    LayoutParamTable,
    RuleId,
    RuleResult,
    apply_draw_allocation,
    apply_obsolete_layout_param,
    apply_recycle,
    apply_view_holder,
    apply_wake_lock,
)
from .spans import Edit, EditError, apply_edit_set
from .xmltree import XmlTree, parse_layout_xml

DEFAULT_EXCLUDES = ("**/build/**", "**/.git/**", "**/generated/**")

MODE_REPORT = "report-only"
MODE_FIX = "fix-in-place"
MODE_PATCH = "emit-patch"

_Tree = Union[SyntaxTree, XmlTree]
_Rule = Callable[[_Tree, str], RuleResult]


class RunConfig:
    __slots__ = (
        "input_path",
        "mode",
        "enabled_rules",
        "exclude_globs",
        "layout_param_table",
        "backup",
    )

    def __init__(
        self,
        input_path: Path,
        mode: str = MODE_REPORT,
        enabled_rules: frozenset[RuleId] = frozenset(RuleId),
        exclude_globs: tuple[str, ...] = DEFAULT_EXCLUDES,
        layout_param_table: Optional[LayoutParamTable] = None,
        backup: bool = False,
    ):
        if not enabled_rules:
            raise ValueError("enabled_rules must be non-empty")
        if mode not in (MODE_REPORT, MODE_FIX, MODE_PATCH):
            raise ValueError(f"unknown mode {mode!r}")
        if not Path(input_path).exists():
            raise FileNotFoundError(input_path)
        self.input_path = input_path
        self.mode = mode
        self.enabled_rules = enabled_rules
        self.exclude_globs = exclude_globs
        if layout_param_table is None:
            layout_param_table = LayoutParamTable()
        self.layout_param_table = layout_param_table
        self.backup = backup


class FileOutcome:
    __slots__ = (
        "path",
        "language",
        "shown",
        "diagnostics",
        "findings",
        "rewritten",
        "patch",
        "skip_reason",
        "internal_error",
    )

    def __init__(self, path: Path, language: str, shown: str):
        self.path = path
        self.language = language  # java | xml
        self.shown = shown  # the name findings and patches give the file
        self.diagnostics: list[ParseDiagnostic] = []  # one, if it does not parse
        self.findings: list[Finding] = []
        self.rewritten = False
        self.patch: Optional[str] = None
        self.skip_reason: Optional[str] = None
        self.internal_error: Optional[str] = None


class RuleCount:
    __slots__ = ("refactorings", "fixed", "unfixable")

    def __init__(self, refactorings: int = 0):
        self.refactorings = refactorings  # fixable findings
        self.fixed = 0
        self.unfixable = 0


class ProjectReport:
    __slots__ = (
        "project_id",
        "rule_counts",
        "java_files",
        "xml_files",
        "parse_failures",
        "warnings",
    )

    def __init__(
        self,
        project_id: str,
        rule_counts: dict[RuleId, RuleCount],
        java_files: int = 0,
        xml_files: int = 0,
        parse_failures: int = 0,
        warnings: Optional[list[str]] = None,
    ):
        self.project_id = project_id
        self.rule_counts = rule_counts
        self.java_files = java_files
        self.xml_files = xml_files
        self.parse_failures = parse_failures
        self.warnings = [] if warnings is None else warnings


def _glob_to_regex(glob: str) -> re.Pattern[str]:
    out = []
    i = 0
    while i < len(glob):
        c = glob[i]
        if glob.startswith("**/", i):
            out.append("(?:.*/)?")
            i += 3
        elif glob.startswith("**", i):
            out.append(".*")
            i += 2
        elif c == "*":
            out.append("[^/]*")
            i += 1
        elif c == "?":
            out.append("[^/]")
            i += 1
        else:
            out.append(re.escape(c))
            i += 1
    return re.compile("^" + "".join(out) + "$")


def _classify(path: Path) -> Optional[str]:
    if path.suffix == ".java":
        return "java"
    if path.suffix == ".xml":
        parts = path.parts
        for i in range(len(parts) - 1):
            if parts[i] == "res" and parts[i + 1].startswith("layout"):
                return "xml"
    return None


def discover_files(
    config: RunConfig, warnings: Optional[list[str]] = None
) -> list[tuple[Path, str]]:
    """Deterministic sorted list of (path, language) under the input path."""
    root = Path(config.input_path)
    patterns = [_glob_to_regex(g) for g in config.exclude_globs]

    def excluded(rel: str) -> bool:
        return any(p.match(rel) for p in patterns)

    if root.is_file():
        lang = _classify(root.resolve())
        if lang:
            return [(root, lang)]
        if warnings is not None:
            warnings.append(f"{root}: skipped: not a .java file or a res/layout*/ XML file")
        return []

    found: list[tuple[Path, str]] = []
    visited: set[tuple[int, int]] = set()

    def walk(directory: Path) -> None:
        try:
            st = os.stat(directory)
        except OSError as exc:
            if warnings is not None:
                warnings.append(f"cannot stat {directory}: {exc}")
            return
        key = (st.st_dev, st.st_ino)
        if key in visited:
            return
        visited.add(key)
        try:
            entries = sorted(directory.iterdir(), key=lambda p: p.name)
        except OSError as exc:
            if warnings is not None:
                warnings.append(f"cannot read {directory}: {exc}")
            return
        for entry in entries:
            rel = entry.relative_to(root).as_posix()
            if excluded(rel) or excluded(rel + "/"):
                continue
            if entry.is_dir():
                walk(entry)
            elif entry.is_file():
                lang = _classify(entry)
                if lang:
                    found.append((entry, lang))

    walk(root)
    found.sort(key=lambda pair: pair[0].as_posix())
    return found


def process_file(
    path: Path, language: str, config: RunConfig, shown: str
) -> FileOutcome:
    """Run the enabled rules over one file; pure up to filesystem writes."""
    outcome = FileOutcome(path, language, shown)
    try:
        original = path.read_bytes()
    except OSError as exc:
        outcome.skip_reason = f"unreadable: {exc}"
        return outcome
    try:
        original.decode("utf-8")
    except UnicodeDecodeError:
        outcome.skip_reason = "not UTF-8; refusing to touch unknown encodings"
        return outcome

    # The parser and the rules are looked up here, at call time, so wrapping
    # this module's names (as the benchmark's tracer does) sees every call.
    if language == "java":
        parse = parse_java_source
        functions: dict[RuleId, _Rule] = {
            RuleId.VIEW_HOLDER: apply_view_holder,
            RuleId.DRAW_ALLOCATION: apply_draw_allocation,
            RuleId.WAKE_LOCK: apply_wake_lock,
            RuleId.RECYCLE: apply_recycle,
        }
    else:
        parse = parse_layout_xml
        functions = {
            RuleId.OBSOLETE_LAYOUT_PARAM: partial(
                apply_obsolete_layout_param, table=config.layout_param_table
            )
        }
    enabled = config.enabled_rules
    rules = [(r, functions[r]) for r in RuleId if r in functions and r in enabled]
    try:
        text = _fix(original, parse, rules, shown, outcome)
    except (_VerificationError, EditError) as exc:
        outcome.internal_error = str(exc)
        return outcome

    if text != original and config.mode == MODE_FIX:
        try:
            _atomic_replace(path, text, backup=config.backup)
        except OSError as exc:
            outcome.internal_error = f"write failed: {exc}"
            return outcome
        outcome.rewritten = True
    elif text != original and config.mode == MODE_PATCH:
        outcome.patch = _unified_diff(original, text, shown)
    return outcome


class _VerificationError(Exception):
    pass


def _fix(
    original: bytes,
    parse: Callable[..., tuple[Optional[_Tree], list[ParseDiagnostic]]],
    rules: list[tuple[RuleId, _Rule]],
    shown: str,
    outcome: FileOutcome,
) -> bytes:
    """Run ``rules`` in passes of one ``parse`` each; return the fixed text.

    Pass 0 is the report, so findings are in original-file coordinates;
    their line and column are set from ``original`` there. A
    rule whose edits touch those accepted before it in a pass waits, with
    the rules after it, for the next pass over the rewritten text; so the
    bytes are those a rule-by-rule chain writes. A pass after a rewrite is
    its verification: a rule already applied must find nothing fixable.
    Each pass applies at least the first pending rule, hence the bound.
    A Java pass after a rewrite is given the previous tree and the edits,
    so it re-lexes only around them and re-parses only the members they
    touch; moving the old tree's nodes leaves pass 0's findings in place.
    """
    if not rules:
        return original
    applied: set[RuleId] = set()
    text = original
    previous: Optional[tuple[SyntaxTree, list[Edit]]] = None
    for pass_no in range(len(rules) + 1):
        tree, diags = parse(text) if previous is None else parse(text, previous)
        if tree is None:
            if pass_no == 0:
                outcome.diagnostics = diags
                return text
            raise _VerificationError(f"rewritten output does not parse: {diags[0]}")
        merged: list[Edit] = []
        deferring = False
        for rule, fn in rules:
            result = fn(tree, shown)
            if pass_no == 0:
                for finding in result.findings:
                    finding.line, finding.column = line_col(text, finding.span.start)
                outcome.findings.extend(result.findings)
            if rule in applied:
                if result.fixable_count:
                    raise _VerificationError(
                        f"rule {rule} still reports fixable findings after its own fix"
                    )
            elif deferring or _touches(merged, result.edits):
                deferring = True
            else:
                merged.extend(result.edits)
                applied.add(rule)
        if not merged:
            break
        text = apply_edit_set(text, merged)
        if isinstance(tree, SyntaxTree):
            previous = (tree, merged)
    return text


def _touches(accepted: list[Edit], edits: list[Edit]) -> bool:
    """True if an edit shares a byte or an end point with an accepted one."""
    return any(
        a.span.start <= b.span.end and b.span.start <= a.span.end
        for a in accepted
        for b in edits
    )


def _atomic_replace(path: Path, text: bytes, backup: bool) -> None:
    if backup:
        path.with_suffix(path.suffix + ".orig").write_bytes(path.read_bytes())
    mode = path.stat().st_mode
    tmp = path.with_name(path.name + ".greenlint.tmp")
    tmp.write_bytes(text)
    os.chmod(tmp, mode & 0o7777)
    os.replace(tmp, path)


def _unified_diff(original: bytes, text: bytes, shown: str) -> str:
    import difflib  # only patches need it; kept out of every run's start-up

    a = original.decode("utf-8").splitlines(keepends=True)
    b = text.decode("utf-8").splitlines(keepends=True)
    diff = difflib.unified_diff(a, b, fromfile=f"a/{shown}", tofile=f"b/{shown}")
    return "".join(diff)


def run_project(
    config: RunConfig, project_id: Optional[str] = None
) -> tuple[ProjectReport, list[FileOutcome]]:
    """Analyze (and, per mode, rewrite) every eligible file under the input."""
    warnings: list[str] = []
    root = Path(config.input_path)
    if project_id is None:
        project_id = root.resolve().name
    files = discover_files(config, warnings)
    # A file input is shown by its name; a file under a directory input, by
    # its path relative to that directory.
    outcomes = [
        process_file(
            p, lang, config, p.name if p == root else p.relative_to(root).as_posix()
        )
        for p, lang in files
    ]

    counts = {rule: RuleCount() for rule in RuleId}
    java_files = xml_files = parse_failures = 0
    for outcome in outcomes:
        if outcome.skip_reason:
            warnings.append(f"{outcome.path}: skipped: {outcome.skip_reason}")
        elif outcome.language == "java":
            java_files += 1
        else:
            xml_files += 1
        if outcome.diagnostics:
            parse_failures += 1
        for d in outcome.diagnostics:
            warnings.append(
                f"{outcome.path}:{d.line}:{d.column}: parse error: {d.message}"
            )
        if outcome.internal_error:
            warnings.append(f"{outcome.path}: error: {outcome.internal_error}")
        applied = outcome.rewritten or outcome.patch is not None
        for finding in outcome.findings:
            count = counts[finding.rule]
            if not finding.fixable:
                count.unfixable += 1
                continue
            count.refactorings += 1
            if applied:
                count.fixed += 1

    report = ProjectReport(
        project_id=project_id,
        rule_counts=counts,
        java_files=java_files,
        xml_files=xml_files,
        parse_failures=parse_failures,
        warnings=warnings,
    )
    return report, outcomes
