"""File discovery and the per-project analysis/refactoring pipeline.

Files are processed one after another, in sorted order, in the calling
thread. Every file, `.java` or `res/layout*/*.xml`, goes through the same
pass loop with its language's parser and rules. A rule is a function
`(tree, path) -> RuleResult`. Each pass parses the current text once, runs
every enabled rule on that tree and applies their merged edit lists in one
step. The first pass is the report, so findings point into the file on
disk; in report mode (`check`, `corpus`), where nothing is written, it is
the only pass. When fixing or emitting patches, the pass after a rewrite
is its verification, which lexes and parses the rewritten text in full,
as the first pass does. Rewritten text must re-parse cleanly and the
rules must then report nothing fixable, otherwise the file's fixes are
rolled back and surfaced as an internal error. `run_project` returns the
outcomes; `report.rule_counts` counts their findings.

Discovery walks the input on strings, with no `Path` per entry: a file's
shown name is the path relative to the input that the walk builds.
"""

from __future__ import annotations

import errno
import os
import re
from pathlib import Path
from typing import Callable, Optional, Union

from .diagnostics import ParseDiagnostic, line_col
from .java.parser import SyntaxTree, parse_java_source
from .rules import (
    Finding,
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
    __slots__ = ("input_path", "mode", "enabled_rules", "exclude_globs")

    def __init__(
        self,
        input_path: Path,
        mode: str = MODE_REPORT,
        enabled_rules: frozenset[RuleId] = frozenset(RuleId),
        exclude_globs: tuple[str, ...] = DEFAULT_EXCLUDES,
    ):
        if not Path(input_path).exists():
            raise FileNotFoundError(input_path)
        self.input_path = input_path
        self.mode = mode
        self.enabled_rules = enabled_rules
        self.exclude_globs = exclude_globs


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

    def __init__(self, path: str, language: str, shown: str):
        self.path = path
        self.language = language  # java | xml
        self.shown = shown  # the name findings and patches give the file
        self.diagnostics: list[ParseDiagnostic] = []  # one, if it does not parse
        self.findings: list[Finding] = []
        self.rewritten = False
        self.patch: Optional[str] = None
        self.skip_reason: Optional[str] = None
        self.internal_error: Optional[str] = None


_GLOB_PARTS = {"**/": "(?:.*/)?", "**": ".*", "*": "[^/]*", "?": "[^/]"}


def _glob_to_regex(glob: str) -> str:
    return re.sub(
        r"\*\*/|\*\*|\*|\?|[^*?]+", lambda m: _GLOB_PARTS.get(m[0]) or re.escape(m[0]), glob
    )


def _language(name: str, in_layout: bool) -> Optional[str]:
    """The language of a file called ``name``, ``in_layout`` telling whether
    its path has a part `res` followed by one starting with `layout` (its
    own name counts). A bare ".java" has no suffix, as pathlib reads it."""
    if len(name) > 5 and name.endswith(".java"):
        return "java"
    if in_layout and len(name) > 4 and name.endswith(".xml"):
        return "xml"
    return None


_MISSING = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _in_layout(parts: tuple[str, ...]) -> bool:
    return any(a == "res" and b.startswith("layout") for a, b in zip(parts, parts[1:]))


def discover_files(
    config: RunConfig, warnings: Optional[list[str]] = None
) -> list[tuple[str, str, str]]:
    """The (shown name, path, language) of each file to analyse, sorted by name."""
    warnings = [] if warnings is None else warnings
    root = Path(config.input_path)
    top = str(root)
    if root.is_file():
        resolved = root.resolve()
        lang = _language(resolved.name, _in_layout(resolved.parts))
        if lang:
            return [(root.name, top, lang)]
        warnings.append(f"{top}: skipped: not a .java file or a res/layout*/ XML file")
        return []

    # "." or "../layout" names no res/ or layout* part: resolve a relative input.
    parts = (root if root.is_absolute() else root.resolve()).parts
    # One regex for every glob, tried on each path relative to the root,
    # then on that path with a "/" after it.
    globs = "|".join(_glob_to_regex(g) for g in config.exclude_globs)
    excluded = re.compile(f"^(?:{globs})$").match
    base = "" if top == "." else os.path.join(top, "")
    found: list[tuple[str, str, str]] = []
    visited: set[tuple[int, int]] = set()

    def walk(directory: str, prefix: str, in_res: bool, in_layout: bool) -> None:
        try:
            st = os.stat(directory)
        except OSError as exc:
            warnings.append(f"cannot stat {directory}: {exc}")
            return
        key = (st.st_dev, st.st_ino)
        if key in visited:
            return
        visited.add(key)
        try:
            with os.scandir(directory) as it:
                entries = sorted(it, key=lambda e: e.name)
        except OSError as exc:
            warnings.append(f"cannot read {directory}: {exc}")
            return
        for entry in entries:
            name = entry.name
            rel = prefix + name
            if excluded(rel) or excluded(rel + "/"):
                continue
            layout = in_layout or (in_res and name.startswith("layout"))
            try:
                is_dir = entry.is_dir()
                lang = None if is_dir else _language(name, layout)
                if lang and not entry.is_file():
                    continue
            except OSError as exc:
                # A loop or a vanished target reads as missing, as in pathlib.
                if exc.errno not in _MISSING:
                    warnings.append(f"cannot stat {base + rel}: {exc}")
                continue
            if is_dir:
                walk(base + rel, rel + "/", name == "res", layout)
            elif lang:
                found.append((rel, base + rel, lang))

    walk(top, "", parts[-1:] == ("res",), _in_layout(parts))
    del walk  # its closure holds it: break that cycle so reference counting frees it
    found.sort()
    return found


def process_file(
    path: str, language: str, config: RunConfig, shown: str
) -> FileOutcome:
    """Run the enabled rules over one file; pure up to filesystem writes."""
    outcome = FileOutcome(path, language, shown)
    try:
        with open(path, "rb") as f:
            original = f.read()
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
        functions = {RuleId.OBSOLETE_LAYOUT_PARAM: apply_obsolete_layout_param}
    enabled = config.enabled_rules
    rules = [(r, functions[r]) for r in RuleId if r in functions and r in enabled]
    try:
        text = _fix(original, parse, rules, shown, outcome, config.mode != MODE_REPORT)
    except (_VerificationError, EditError) as exc:
        outcome.internal_error = str(exc)
        return outcome

    if text != original and config.mode == MODE_FIX:
        try:
            _atomic_replace(path, text)
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
    parse: Callable[[bytes], tuple[Optional[_Tree], list[ParseDiagnostic]]],
    rules: list[tuple[RuleId, _Rule]],
    shown: str,
    outcome: FileOutcome,
    writes: bool,
) -> bytes:
    """Run ``rules`` in passes of one ``parse`` each; return the fixed text.

    Pass 0 is the report, so findings are in original-file coordinates;
    their line and column are set from ``original`` there. Unless the
    caller ``writes`` the result, it is the only pass and ``original`` is
    returned: no edit is applied or verified. A rule whose edits touch
    those accepted before it in a pass waits, with the rules after it, for
    the next pass over the rewritten text; so the bytes are those a
    rule-by-rule chain writes. A pass after a rewrite is its
    verification: a rule already applied must find nothing fixable. Each
    pass applies at least the first pending rule, hence the bound.
    """
    if not rules:
        return original
    applied: set[RuleId] = set()
    text = original
    for pass_no in range(len(rules) + 1):
        tree, diags = parse(text)
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
        if not merged or not writes:
            break
        text = apply_edit_set(text, merged)
    return text


def _touches(accepted: list[Edit], edits: list[Edit]) -> bool:
    """True if an edit shares a byte or an end point with an accepted one."""
    return any(
        a.span.start <= b.span.end and b.span.start <= a.span.end
        for a in accepted
        for b in edits
    )


def _atomic_replace(path: str, text: bytes) -> None:
    mode = os.stat(path).st_mode
    tmp = path + ".greenlint.tmp"
    with open(tmp, "wb") as f:
        f.write(text)
    os.chmod(tmp, mode & 0o7777)
    os.replace(tmp, path)


_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def _unified_diff(original: bytes, text: bytes, shown: str) -> str:
    """The patch from ``original`` to ``text`` as `git apply` and `patch -p1`
    read it: a line ends at a line feed only, as those tools split lines,
    and a last line with none is marked as such."""
    import difflib  # only patches need it; kept out of every run's start-up

    a = _LINE.findall(original.decode("utf-8"))
    b = _LINE.findall(text.decode("utf-8"))
    diff = difflib.unified_diff(a, b, fromfile=f"a/{shown}", tofile=f"b/{shown}")
    return "".join(
        line if line.endswith("\n") else line + "\n\\ No newline at end of file\n"
        for line in diff
    )


def run_project(config: RunConfig) -> tuple[list[FileOutcome], list[str]]:
    """Analyze (and, per mode, rewrite) every eligible file under the input;
    return the files' outcomes and the warnings to show."""
    warnings: list[str] = []
    outcomes = [
        process_file(path, lang, config, shown)
        for shown, path, lang in discover_files(config, warnings)
    ]
    for outcome in outcomes:
        if outcome.skip_reason:
            warnings.append(f"{outcome.path}: skipped: {outcome.skip_reason}")
        for d in outcome.diagnostics:
            warnings.append(
                f"{outcome.path}:{d.line}:{d.column}: parse error: {d.message}"
            )
        if outcome.internal_error:
            warnings.append(f"{outcome.path}: error: {outcome.internal_error}")
    return outcomes, warnings
