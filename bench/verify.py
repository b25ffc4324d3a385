"""Checks greenlint's outputs against a corpus's known answers.

A file's outcome *differs* (it counts in ``failed``) when a per-rule
fixable count is wrong, a finding's span falls outside the planted block
of its rule, the rewritten bytes differ from the reference, or greenlint
reports an internal error, skips the file, fails to parse it or exits with
the wrong code.

A subset of those differences breaks the behaviour greenlint promises to
keep, and makes the run *wrong* (``correct`` false): a wrong exit code, an
internal error or unexpected parse failure, a wrong per-rule count or
frequency table, a rewrite whose tokens differ from the reference, a fix
that leaves something fixable, or a write outside the analysed files. A
finding that points at the wrong place, or a rewrite that differs from the
reference only in whitespace, counts as failed without making the run
wrong.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from corpus import Corpus, SourceFile, expected_table

EXIT_CLEAN = 0
EXIT_FINDINGS = 1

_MAX_NOTES = 8
_SUMMARY_RE = re.compile(r"^(\d+) refactoring\(s\) applied", re.M)


@dataclass
class Verdict:
    """Outcomes per file. A file is one operation however many invocations
    check it, and it has failed if any of them found it differing, so
    ``attempted`` and ``failed`` depend on the corpus and on greenlint, not
    on how many invocations fit in a run."""

    files: set[str] = field(default_factory=set)
    failed_files: set[str] = field(default_factory=set)
    wrong: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.files)

    @property
    def failed(self) -> int:
        return len(self.failed_files)

    def add(self, other: "Verdict") -> None:
        self.files |= other.files
        self.failed_files |= other.failed_files
        for src, dst in ((other.wrong, self.wrong), (other.notes, self.notes)):
            for note in src:
                if note not in dst and len(dst) < _MAX_NOTES:
                    dst.append(note)


class _Files:
    """Collects per-file problems for one invocation over the corpus written
    to ``root``."""

    def __init__(self, corpus: Corpus, root: Path) -> None:
        self.files: list[SourceFile] = []
        self.on_disk: dict[str, str] = {}  # absolute path -> file id
        self.verdict = Verdict()
        for project in corpus.projects:
            for f in project.files:
                self.files.append(f)
                # the id is the path below ``root``, unique across projects
                file_id = (corpus.base(Path(), project) / f.path).as_posix()
                self.on_disk[str(corpus.base(root, project) / f.path)] = file_id
                self.verdict.files.add(file_id)

    def fail(self, path: str, why: str, wrong: bool) -> None:
        self.verdict.failed_files.add(path)
        msg = f"{path}: {why}"
        if wrong and len(self.verdict.wrong) < _MAX_NOTES:
            self.verdict.wrong.append(msg)
        if len(self.verdict.notes) < _MAX_NOTES:
            self.verdict.notes.append(msg)

    def fail_all(self, why: str) -> None:
        self.verdict.failed_files |= self.verdict.files
        self.verdict.wrong.append(why)
        self.verdict.notes.append(why)

    def done(self) -> Verdict:
        return self.verdict


def _stderr_problems(acc: _Files, stderr: str) -> None:
    """Map greenlint's per-file ``error``/``skipped`` warnings to files; any
    other stderr output is only noted."""
    for line in stderr.splitlines():
        path, sep, why = line.partition(": ")
        if sep and path in acc.on_disk:
            acc.fail(acc.on_disk[path], why, wrong=True)
        elif line.strip() and len(acc.verdict.notes) < _MAX_NOTES:
            acc.verdict.notes.append(f"stderr: {line[:200]}")


def _exit(acc: _Files, code: int, expected: int) -> None:
    if code != expected:
        acc.fail_all(f"exit code {code}, expected {expected}")


def check_report(corpus: Corpus, root: Path, code: int, stdout: str, stderr: str) -> Verdict:
    """``greenlint check --format json`` on the single project at ``root``."""
    acc = _Files(corpus, root)
    files = acc.files
    planted_any = any(f.planted for f in files)
    _exit(acc, code, EXIT_FINDINGS if planted_any else EXIT_CLEAN)
    _stderr_problems(acc, stderr)
    try:
        payload = json.loads(stdout)
        findings = payload["findings"]
        summary = payload["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        acc.fail_all(f"unreadable check output: {exc}")
        return acc.done()
    langs = Counter(f.language for f in files)
    if summary.get("files") != {"java": langs["java"], "xml": langs["xml"]}:
        acc.fail_all(f"file counts {summary.get('files')}, expected {dict(langs)}")
    if summary.get("parse_failures") != 0:
        acc.fail_all(f"{summary.get('parse_failures')} parse failure(s)")
    by_file: dict[str, list[dict]] = {}
    known = {f.path for f in files}
    for finding in findings:
        if finding["file"] not in known:
            acc.fail_all(f"finding in a file that must not be analysed: {finding['file']}")
            continue
        by_file.setdefault(finding["file"], []).append(finding)
    for f in files:
        _check_findings(acc, f, by_file.get(f.path, []))
    return acc.done()


def _check_findings(acc: _Files, f: SourceFile, findings: list[dict]) -> None:
    got = Counter(x["rule"] for x in findings if x["fixable"])
    unfixable = [x for x in findings if not x["fixable"]]
    if got != f.counts() or unfixable:
        acc.fail(
            f.path,
            f"fixable counts {dict(got)} ({len(unfixable)} not fixable), "
            f"expected {dict(f.counts())}",
            wrong=True,
        )
        return
    for x in findings:
        start, end = x["span"]["start"], x["span"]["end"]
        inside = any(
            p.rule == x["rule"] and p.start <= start and end <= p.end for p in f.planted
        )
        if not inside:
            blocks = [(p.start, p.end) for p in f.planted if p.rule == x["rule"]]
            acc.fail(
                f.path,
                f"{x['rule']} finding at [{start}, {end}) is outside its planted "
                f"block(s) {blocks}",
                wrong=False,
            )


def check_fix(
    corpus: Corpus, root: Path, code: int, stdout: str, stderr: str
) -> Verdict:
    """``greenlint fix`` in place on the single project at ``root``."""
    acc = _Files(corpus, root)
    files = acc.files
    planted = sum(len(f.planted) for f in files)
    _exit(acc, code, EXIT_FINDINGS if planted else EXIT_CLEAN)
    _stderr_problems(acc, stderr)
    m = _SUMMARY_RE.search(stdout)
    if m is None or int(m.group(1)) != planted:
        acc.fail_all(f"fix summary {stdout.strip()!r}, expected {planted} applied")
    for f in files:
        got = (root / f.path).read_bytes()
        if got == f.after:
            continue
        same_tokens = got.split() == f.after.split()
        acc.fail(
            f.path,
            "rewrite differs from the reference "
            + ("in whitespace only" if same_tokens else "in its tokens"),
            wrong=not same_tokens,
        )
    expected = {f.path for f in files} | set(corpus.projects[0].extras)
    present = {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
    for extra in sorted(present - expected):
        acc.verdict.wrong.append(f"unexpected file after fix: {extra}")
    for rel, data in corpus.projects[0].extras.items():
        if (root / rel).read_bytes() != data:
            acc.verdict.wrong.append(f"fix touched a file it must ignore: {rel}")
    return acc.done()


def check_clean(corpus: Corpus, root: Path, code: int, stdout: str, stderr: str) -> Verdict:
    """A re-``check`` after ``fix`` must find nothing at all."""
    acc = _Files(corpus, root)
    _exit(acc, code, EXIT_CLEAN)
    _stderr_problems(acc, stderr)
    try:
        findings = json.loads(stdout)["findings"]
    except (ValueError, KeyError, TypeError) as exc:
        acc.fail_all(f"unreadable re-check output: {exc}")
        return acc.done()
    for x in findings:
        acc.fail(x["file"], f"re-check after fix still finds {x['rule']}", wrong=True)
    return acc.done()


def check_table(
    corpus: Corpus, root: Path, code: int, table: bytes, stderr: str
) -> Verdict:
    """``greenlint corpus`` must write exactly the table the planted counts
    give."""
    acc = _Files(corpus, root)
    _exit(acc, code, EXIT_CLEAN)
    _stderr_problems(acc, stderr)
    expected = expected_table(corpus)
    if table != expected:
        acc.fail_all(
            "frequency table differs:\n" + table.decode("utf-8", "replace")
            + "expected:\n" + expected.decode()
        )
    return acc.done()
