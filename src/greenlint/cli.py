"""Command-line entry point.

Subcommands:
  check  <path>   report findings, write nothing (exit 1 when smells found)
  fix    <path>   rewrite files in place, or emit unified diffs (--patch-dir)
  corpus <root>   treat each child directory as a project, aggregate results

The command line is read against one table of each command's options, with
no argparse, whose import and parser building cost a few milliseconds of
every run. An option's value follows it or an `=`; `--exclude` repeats; a
lone `--` ends the options; `-h`/`--help` prints the usage. No option may
be abbreviated. A bad command line prints the usage and
`greenlint: error: <reason>` on stderr, in argparse's words.

Exit codes: 0 clean, 1 findings reported or fixes applied, 2 usage error,
3 internal error (a verification rollback of `fix`, or an I/O failure).
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .engine import (
    MODE_FIX,
    MODE_PATCH,
    MODE_REPORT,
    DEFAULT_EXCLUDES,
    FileOutcome,
    RunConfig,
    run_project,
)
from .report import aggregate, emit, rule_counts
from .rules import Finding, RuleId

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

JSON_SCHEMA_VERSION = "1"


# Each command's input argument and options. An option maps to a tuple of
# its allowed values, the first being its default, to `Path` for a path, or to
# None for any value. `--exclude` may repeat, and `corpus` requires `--out`.
# `--jobs N` is hidden, checked to be an integer and ignored: files are
# processed in order in one thread.
_COMMON = {"--only": None, "--exclude": None, "--jobs": None}
_COMMANDS = {
    "check": ("path", {"--format": ("text", "json"), **_COMMON}),
    "fix": ("path", {"--patch-dir": Path, **_COMMON}),
    "corpus": ("root", {"--out": Path, "--format": ("csv", "json"), **_COMMON}),
}

_USAGE = """\
usage: greenlint check PATH [--format {text,json}] [OPTIONS]
       greenlint fix PATH [--patch-dir DIR] [OPTIONS]
       greenlint corpus ROOT --out FILE [--format {csv,json}] [OPTIONS]

Detect and fix Android energy code smells in Java and layout XML.

  check   report findings, write nothing
  fix     rewrite files in place, or write unified diffs to DIR
  corpus  treat each child directory of ROOT as a project, and write one
          row per rule to FILE

options:
  --only RULE[,RULE...]  run only these rules: ViewHolder, DrawAllocation,
                         WakeLock, Recycle, ObsoleteLayoutParam
  --exclude GLOB         exclude glob, repeatable (default: build/, .git/,
                         generated/)
  -h, --help             show this help and exit

An option's value follows it or an '=' (--format json, --format=json);
no option may be abbreviated; '--' ends the options."""


class _CommandLineError(Exception):
    """A command line that names no command, or that its command rejects."""


def _is_option(arg: str) -> bool:
    """Whether ``arg`` reads as an option; a lone `-` and a negative
    integer are values, as argparse reads them."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdigit()


def _parse_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The command and its options as the `_cmd_*` functions read them, or
    None once `-h` or `--help` has printed the usage."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(_USAGE)
        return None
    if command not in _COMMANDS:
        raise _CommandLineError(
            f"argument command: invalid choice: {command!r} (choose from 'check', 'fix', 'corpus')"
            if argv
            else "the following arguments are required: command"
        )
    input_name, options = _COMMANDS[command]
    found = {o: a[0] if type(a) is tuple else None for o, a in options.items()}
    excludes: list[str] = []
    positional: list[str] = []
    unknown: list[str] = []
    rest = iter(argv[1:])
    for arg in rest:
        option, eq, value = arg.partition("=")
        if arg == "--":
            positional += rest
        elif not _is_option(arg):
            positional.append(arg)
        elif arg in ("-h", "--help"):
            print(_USAGE)
            return None
        elif option not in options:
            unknown.append(arg)
        else:
            if not eq:
                value = next(rest, "--")  # `--` reads as an option: no value
                if _is_option(value):
                    raise _CommandLineError(f"argument {option}: expected one argument")
            allowed = options[option]
            if allowed is Path:
                value = Path(value)
            elif allowed and value not in allowed:
                choices = ", ".join(map(repr, allowed))
                raise _CommandLineError(
                    f"argument {option}: invalid choice: {value!r} (choose from {choices})"
                )
            elif option == "--exclude":
                excludes.append(value)
            elif option == "--jobs":
                try:
                    int(value)
                except ValueError:
                    message = f"argument --jobs: invalid int value: {value!r}"
                    raise _CommandLineError(message) from None
            found[option] = value
    missing = [] if positional else [input_name]
    if found.get("--out", "") is None:  # only `corpus` has `--out`, and requires it
        missing.append("--out")
    if missing:
        raise _CommandLineError(f"the following arguments are required: {', '.join(missing)}")
    if unknown or positional[1:]:
        raise _CommandLineError(f"unrecognized arguments: {' '.join(unknown + positional[1:])}")
    args = SimpleNamespace(**{o[2:].replace("-", "_"): v for o, v in found.items()})
    args.command, args.exclude = command, excludes or None
    setattr(args, input_name, Path(positional[0]))
    return args


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


def _make_config(args: SimpleNamespace, path: Path, mode: str) -> RunConfig:
    excludes = DEFAULT_EXCLUDES if args.exclude is None else tuple(args.exclude)
    try:
        return RunConfig(
            input_path=path,
            mode=mode,
            enabled_rules=_parse_rules(args.only),
            exclude_globs=excludes,
        )
    except FileNotFoundError as exc:
        raise _UsageError(f"path does not exist: {exc}") from exc


def _run(config: RunConfig) -> list[FileOutcome]:
    """``run_project``'s outcomes, with its warnings printed on stderr."""
    outcomes, warnings = run_project(config)
    for warning in warnings:
        print(warning, file=sys.stderr)
    return outcomes


def _sorted_findings(outcomes: list[FileOutcome]) -> list[Finding]:
    return sorted(
        (f for o in outcomes for f in o.findings),
        key=lambda f: (f.file, f.span.start, str(f.rule)),
    )


def _summary_payload(outcomes: list[FileOutcome]) -> dict:
    read = [o.language for o in outcomes if not o.skip_reason]
    return {
        "files": {"java": read.count("java"), "xml": read.count("xml")},
        "parse_failures": sum(1 for o in outcomes if o.diagnostics),
        "rules": {str(rule): c for rule, c in rule_counts(outcomes).items()},
    }


def _report_payload(mode: str, outcomes: list[FileOutcome]) -> dict:
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
        "summary": _summary_payload(outcomes),
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


def _cmd_check(args: SimpleNamespace) -> int:
    outcomes = _run(_make_config(args, args.path, MODE_REPORT))
    if args.format == "json":
        import json

        print(json.dumps(_report_payload("check", outcomes), indent=2))
    else:
        _print_text_findings(outcomes)
    return _exit_status(outcomes)


def _cmd_fix(args: SimpleNamespace) -> int:
    mode = MODE_PATCH if args.patch_dir is not None else MODE_FIX
    outcomes = _run(_make_config(args, args.path, mode))
    if args.patch_dir is not None:
        args.patch_dir.mkdir(parents=True, exist_ok=True)
        for outcome in outcomes:
            if outcome.patch:
                target = args.patch_dir / f"{outcome.shown}.patch"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(outcome.patch, encoding="utf-8")
    counts = rule_counts(outcomes).values()
    fixed = sum(c["fixed"] for c in counts)
    unfixable = sum(c["unfixable"] for c in counts)
    print(
        f"{fixed} refactoring(s) applied"
        + (f", {unfixable} finding(s) not auto-fixable" if unfixable else "")
    )
    return _exit_status(outcomes)


def _cmd_corpus(args: SimpleNamespace) -> int:
    root = args.root
    if not root.is_dir():
        raise _UsageError(f"corpus root must be a directory: {root}")
    projects = sorted(
        (p for p in root.iterdir() if p.is_dir()), key=lambda p: p.name
    )
    if not projects:
        raise _UsageError(f"corpus root has no project directories: {root}")
    per_project = []
    internal = False
    for project in projects:
        outcomes = _run(_make_config(args, project, MODE_REPORT))
        internal = internal or any(o.internal_error for o in outcomes)
        per_project.append(rule_counts(outcomes))
    args.out.write_bytes(emit(aggregate(per_project), args.format, len(projects)))
    print(f"wrote {args.format} summary for {len(projects)} project(s) to {args.out}")
    return EXIT_INTERNAL if internal else EXIT_CLEAN


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _CommandLineError as exc:
        print(f"{_USAGE}\ngreenlint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:  # the usage was asked for
        return EXIT_CLEAN
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


def run() -> None:
    """The console entry point: `main` with the cyclic collector off, then
    the `atexit` handlers and a flush of stdout and stderr, and an exit
    that skips the interpreter's teardown, which would free every object
    still alive only for the OS to reclaim the memory anyway. A flush that
    fails (the reader closed the pipe) ends the run with status 120, as
    the interpreter's own exit does. Past the standard JSON encoder's few
    objects, a run makes no reference cycle (tests/test_no_cycles.py pins
    this), so reference counting frees what it drops and collector passes
    would find nothing. `main` itself leaves the collector and the process
    alone, for callers that go on running."""
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # started with that descriptor closed
            continue
        try:
            stream.flush()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
