"""Command-line entry point.

Subcommands:
  check  <path>   report findings, write nothing (exit 1 when smells found)
  fix    <path>   rewrite files in place, or emit unified diffs (--patch-dir)
  corpus <root>   treat each child directory as a project, aggregate results

Exit codes: 0 clean, 1 findings reported or fixes applied, 2 usage error,
3 internal error (verification rollback or I/O failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .engine import (
    MODE_FIX,
    MODE_PATCH,
    MODE_REPORT,
    DEFAULT_EXCLUDES,
    FileOutcome,
    ProjectReport,
    RunConfig,
    run_project,
)
from .report import aggregate, emit
from .rules import Finding, LayoutParamTable, RuleId

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

JSON_SCHEMA_VERSION = "1"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenlint",
        description=(
            "Detect and fix Android energy code smells in Java and layout XML."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--only",
            metavar="RULE[,RULE...]",
            help="run only these rules (names: "
            + ", ".join(str(r) for r in RuleId)
            + ")",
        )
        p.add_argument(
            "--exclude",
            action="append",
            default=None,
            metavar="GLOB",
            help="exclude glob, repeatable (default: build/, .git/, generated/)",
        )
        # Accepted for compatibility and ignored: files are processed in order
        # in one thread.
        p.add_argument("--jobs", type=int, default=0, help=argparse.SUPPRESS)
        p.add_argument(
            "--layout-param-table",
            type=Path,
            default=None,
            help="override the layout-param compatibility table",
        )
        p.add_argument(
            "--backup", action="store_true", help="keep .orig copies when fixing"
        )

    check = sub.add_parser("check", help="report findings without writing")
    check.add_argument("path", type=Path)
    check.add_argument("--format", choices=("text", "json"), default="text")
    add_common(check)

    fix = sub.add_parser("fix", help="apply fixes in place")
    fix.add_argument("path", type=Path)
    fix.add_argument(
        "--patch-dir",
        type=Path,
        default=None,
        help="write unified diffs here instead of rewriting files",
    )
    add_common(fix)

    corpus = sub.add_parser("corpus", help="aggregate findings across projects")
    corpus.add_argument("root", type=Path)
    corpus.add_argument("--out", type=Path, required=True)
    corpus.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(corpus)

    return parser


def _parse_rules(only: Optional[str]) -> frozenset[RuleId]:
    if only is None:
        return frozenset(RuleId)
    by_name = {str(r): r for r in RuleId}
    rules = set()
    for name in only.split(","):
        name = name.strip()
        if name not in by_name:
            raise _UsageError(
                f"unknown rule {name!r}; known rules: {', '.join(by_name)}"
            )
        rules.add(by_name[name])
    return frozenset(rules)


class _UsageError(Exception):
    pass


def _load_table(path: Optional[Path]) -> LayoutParamTable:
    if path is None:
        return LayoutParamTable()
    try:
        return LayoutParamTable.from_file(path)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or malformed
        raise _UsageError(f"--layout-param-table: {exc}") from exc


def _make_config(args: argparse.Namespace, path: Path, mode: str) -> RunConfig:
    excludes = DEFAULT_EXCLUDES if args.exclude is None else tuple(args.exclude)
    try:
        return RunConfig(
            input_path=path,
            mode=mode,
            enabled_rules=_parse_rules(args.only),
            exclude_globs=excludes,
            layout_param_table=_load_table(args.layout_param_table),
            backup=args.backup,
        )
    except FileNotFoundError as exc:
        raise _UsageError(f"path does not exist: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _run(
    config: RunConfig, project_id: Optional[str]
) -> tuple[ProjectReport, list[FileOutcome]]:
    """``run_project``, with its warnings printed on stderr."""
    report, outcomes = run_project(config, project_id)
    for warning in report.warnings:
        print(warning, file=sys.stderr)
    return report, outcomes


def _sorted_findings(outcomes: list[FileOutcome]) -> list[Finding]:
    return sorted(
        (f for o in outcomes for f in o.findings),
        key=lambda f: (f.file, f.span.start, str(f.rule)),
    )


def _summary_payload(report: ProjectReport) -> dict:
    return {
        "files": {"java": report.java_files, "xml": report.xml_files},
        "parse_failures": report.parse_failures,
        "rules": {
            str(rule): {
                "refactorings": report.rule_counts[rule].refactorings,
                "fixed": report.rule_counts[rule].fixed,
                "unfixable": report.rule_counts[rule].unfixable,
            }
            for rule in RuleId
        },
    }


def _report_payload(
    mode: str, report: ProjectReport, outcomes: list[FileOutcome]
) -> dict:
    findings = [
        {
            "rule": str(f.rule),
            "file": f.file,
            "span": {"start": f.span.start, "end": f.span.end},
            "message": f.message,
            "fixable": f.fixable,
        }
        for f in _sorted_findings(outcomes)
    ]
    return {
        "version": JSON_SCHEMA_VERSION,
        "mode": mode,
        "findings": findings,
        "summary": _summary_payload(report),
    }


def _print_text_findings(outcomes: list[FileOutcome]) -> None:
    for f in _sorted_findings(outcomes):
        tag = "" if f.fixable else " (not auto-fixable)"
        print(f"{f.file}:{f.line}:{f.column}: [{f.rule}] {f.message}{tag}")


def _exit_status(outcomes: list[FileOutcome]) -> int:
    if any(o.internal_error for o in outcomes):
        return EXIT_INTERNAL
    if any(o.findings for o in outcomes):
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_check(args: argparse.Namespace) -> int:
    report, outcomes = _run(_make_config(args, args.path, MODE_REPORT), None)
    if args.format == "json":
        import json

        print(json.dumps(_report_payload("check", report, outcomes), indent=2))
    else:
        _print_text_findings(outcomes)
    return _exit_status(outcomes)


def _cmd_fix(args: argparse.Namespace) -> int:
    mode = MODE_PATCH if args.patch_dir is not None else MODE_FIX
    report, outcomes = _run(_make_config(args, args.path, mode), None)
    if args.patch_dir is not None:
        args.patch_dir.mkdir(parents=True, exist_ok=True)
        for outcome in outcomes:
            if outcome.patch:
                target = args.patch_dir / f"{outcome.shown}.patch"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(outcome.patch, encoding="utf-8")
    fixed = sum(c.fixed for c in report.rule_counts.values())
    unfixable = sum(c.unfixable for c in report.rule_counts.values())
    print(
        f"{fixed} refactoring(s) applied"
        + (f", {unfixable} finding(s) not auto-fixable" if unfixable else "")
    )
    return _exit_status(outcomes)


def _cmd_corpus(args: argparse.Namespace) -> int:
    root = args.root
    if not root.is_dir():
        raise _UsageError(f"corpus root must be a directory: {root}")
    projects = sorted(
        (p for p in root.iterdir() if p.is_dir()), key=lambda p: p.name
    )
    if not projects:
        raise _UsageError(f"corpus root has no project directories: {root}")
    config = _make_config(args, root, MODE_REPORT)
    reports = []
    internal = False
    for project in projects:
        config.input_path = project  # an existing directory, so still valid
        report, outcomes = _run(config, project.name)
        internal = internal or any(o.internal_error for o in outcomes)
        reports.append(report)
    summary = aggregate(reports)
    args.out.write_bytes(emit(summary, args.format))
    print(f"wrote {args.format} summary for {len(reports)} project(s) to {args.out}")
    return EXIT_INTERNAL if internal else EXIT_CLEAN


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "fix":
            return _cmd_fix(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
