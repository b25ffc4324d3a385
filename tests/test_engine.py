import contextlib
import gc
import hashlib
import inspect
import os
import shutil
import subprocess
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenlint.engine as engine
import greenlint.rules
from greenlint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL, main
from greenlint.diagnostics import line_col
from greenlint.engine import (
    MODE_FIX,
    MODE_PATCH,
    MODE_REPORT,
    RunConfig,
    discover_files,
    run_project,
)
from greenlint.report import rule_counts
from greenlint.java.lexer import tokenize
from greenlint.java.parser import parse_java_source
from greenlint.rules import (
    Finding,
    RuleId,
    RuleResult,
    apply_draw_allocation,
    apply_obsolete_layout_param,
    apply_recycle,
    apply_view_holder,
    apply_wake_lock,
)
from greenlint.rules.javautil import methods_of
from greenlint.spans import Edit, SourceSpan, apply_edit_set

from conftest import CLEAN_CORPUS, GOLDEN, GOLDEN_CASES, parse_java, parse_xml
from helpers import tree_shape
from mutations import java_mutations, xml_mutations


def _write(root: Path, rel: str, data: bytes = b"class A {}\n") -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _project_from_golden(root: Path) -> Path:
    proj = root / "proj"
    for name, ext in GOLDEN_CASES.items():
        before = GOLDEN / name / f"before.{ext}"
        if ext == "java":
            _write(proj, f"src/{name}.java", before.read_bytes())
        else:
            _write(proj, f"res/layout/{name}.xml", before.read_bytes())
    return proj


def test_discovery_filters_and_sorts(tmp_path):
    _write(tmp_path, "A.java")
    _write(tmp_path, "res/layout/main.xml", b"<a/>")
    _write(tmp_path, "res/values/strings.xml", b"<a/>")
    _write(tmp_path, "build/gen/B.java")
    files = discover_files(RunConfig(input_path=tmp_path))
    assert files == [
        ("A.java", str(tmp_path / "A.java"), "java"),
        ("res/layout/main.xml", str(tmp_path / "res/layout/main.xml"), "xml"),
    ]


def test_discovery_single_file(tmp_path):
    path = _write(tmp_path, "One.java")
    files = discover_files(RunConfig(input_path=path))
    assert files == [("One.java", str(path), "java")]


def test_discovery_custom_exclude(tmp_path):
    _write(tmp_path, "keep/A.java")
    _write(tmp_path, "vendor/B.java")
    config = RunConfig(input_path=tmp_path, exclude_globs=("vendor/**",))
    assert [shown for shown, _, _ in discover_files(config)] == ["keep/A.java"]


def test_exclude_ending_in_a_slash_matches_a_directory(tmp_path):
    # Each path is tried with a "/" after it too, so "**/tmp/" names the
    # directory itself and nothing under it is read.
    _write(tmp_path, "a/tmp/T.java")
    _write(tmp_path, "a/tmpx/U.java")
    config = RunConfig(input_path=tmp_path, exclude_globs=("**/tmp/",))
    assert [shown for shown, _, _ in discover_files(config)] == ["a/tmpx/U.java"]


def test_layout_xml_outside_res_layout_ignored(tmp_path):
    _write(tmp_path, "res/layout-land/main.xml", b"<a/>")
    _write(tmp_path, "docs/diagram.xml", b"<a/>")
    files = discover_files(RunConfig(input_path=tmp_path))
    assert [shown for shown, _, _ in files] == ["res/layout-land/main.xml"]


@pytest.mark.parametrize(
    ("cwd", "root"),
    [
        ("app/src/main/res/layout", "."),
        ("app/src/main/res/layout", "../layout"),
        ("app/src/main/res/layout", "frame.xml"),
        ("app/src/main/res", "."),
    ],
)
def test_layout_context_comes_from_the_resolved_root(tmp_path, monkeypatch, capsys, cwd, root):
    # "." and "../layout" name no res/layout* parts themselves.
    before = (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
    _write(tmp_path, "app/src/main/res/layout/frame.xml", before)
    monkeypatch.chdir(tmp_path / cwd)
    assert main(["check", root]) == EXIT_FINDINGS
    shown = "layout/frame.xml" if cwd.endswith("res") else "frame.xml"
    assert capsys.readouterr().out.startswith(f"{shown}:")


def test_discovery_walks_past_loops_excludes_and_unreadable_directories(
    tmp_path, monkeypatch
):
    _write(tmp_path, "app/build/gen/B.java")  # excluded at any depth
    _write(tmp_path, "app/src/build/res/layout/x.xml", b"<a/>")
    _write(tmp_path, "app/src/generated/G.java")
    _write(tmp_path, "app/src/.git/H.java")
    _write(tmp_path, "app/src/Main.java")
    _write(tmp_path, "app/res/build")  # a file named like an excluded directory
    _write(tmp_path, "app/src/build.java")
    _write(tmp_path, "app/res/layout/build.xml", b"<a/>")
    _write(tmp_path, "app/res/layout_main.xml", b"<a/>")  # "layout*" right after "res"
    _write(tmp_path, "app/res/.xml", b"<a/>")  # no suffix, as pathlib reads it
    _write(tmp_path, "locked/L.java")
    _write(tmp_path, "zeta/Z.java")
    (tmp_path / "app/src/loop").symlink_to(tmp_path / "app")  # back to an ancestor
    (tmp_path / "app/src/self").symlink_to(tmp_path / "app/src/self")  # ELOOP
    (tmp_path / "app/src/dangling.java").symlink_to(tmp_path / "missing")
    (tmp_path / "alias").symlink_to(tmp_path / "zeta")  # sorts first, so it wins
    locked = str(tmp_path / "locked")

    def refusing(real):
        def listing(path="."):
            if os.fspath(path) == locked:
                raise PermissionError(13, "Permission denied", path)
            return real(path)

        return listing

    class Unstatable:  # a symlink whose target may not be looked at
        name = "guarded.java"

        def is_dir(self):
            raise PermissionError(13, "Permission denied", self.name)

        is_file = is_dir

    @contextlib.contextmanager
    def scandir(path="."):
        with refusing(real_scandir)(path) as it:
            yield [*it, Unstatable()] if os.fspath(path).endswith("/app/src") else it

    # Whichever call lists a directory, it fails on this one.
    real_scandir = os.scandir
    monkeypatch.setattr(os, "scandir", scandir)
    monkeypatch.setattr(os, "listdir", refusing(os.listdir))
    warnings: list[str] = []
    files = discover_files(RunConfig(input_path=tmp_path), warnings)
    assert [(shown, lang) for shown, _, lang in files] == [
        ("alias/Z.java", "java"),
        ("app/res/layout/build.xml", "xml"),
        ("app/res/layout_main.xml", "xml"),
        ("app/src/Main.java", "java"),
        ("app/src/build.java", "java"),
    ]
    # A loop or a missing target is passed over in silence, as pathlib does;
    # any other error is named.
    assert [w.split(": ")[0] for w in warnings] == [
        f"cannot stat {tmp_path / 'app/src/guarded.java'}",
        f"cannot read {locked}",
    ]
    assert all("Permission denied" in w for w in warnings)


def _hashes(root: Path) -> dict:
    return {
        p: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_report_mode_counts_without_writing(tmp_path):
    proj = _project_from_golden(tmp_path)
    before = _hashes(proj)
    outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_REPORT))
    assert _hashes(proj) == before
    assert [o.language for o in outcomes].count("java") == 4
    assert [o.language for o in outcomes].count("xml") == 1
    assert not any(o.diagnostics for o in outcomes)
    counts = rule_counts(outcomes)
    for rule in RuleId:
        assert counts[rule]["refactorings"] == 1, rule
        assert counts[rule]["fixed"] == 0
    assert not any(o.rewritten for o in outcomes)


def test_fix_mode_rewrites_to_golden_output(tmp_path):
    proj = _project_from_golden(tmp_path)
    outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    counts = rule_counts(outcomes)
    for rule in RuleId:
        assert counts[rule]["fixed"] == 1, rule
    for name, ext in GOLDEN_CASES.items():
        rel = f"src/{name}.java" if ext == "java" else f"res/layout/{name}.xml"
        expected = (GOLDEN / name / f"after.{ext}").read_bytes()
        assert (proj / rel).read_bytes() == expected, name
    # a second pass is a no-op
    outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert all(c["refactorings"] == 0 for c in rule_counts(outcomes).values())


def test_patch_mode_leaves_files_alone(tmp_path):
    proj = _project_from_golden(tmp_path)
    before = _hashes(proj)
    outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_PATCH))
    assert _hashes(proj) == before
    patches = [o for o in outcomes if o.patch]
    assert len(patches) == 5
    for o in patches:
        assert o.patch.startswith("--- a/")
        assert "+++ b/" in o.patch


# Two inputs that `git apply` and `patch` split into lines unlike
# `str.splitlines`: a last line with no line feed, and a form feed, which
# ends no line for them.
_PATCHES = {
    "no-final-newline": (
        "res/layout/main.xml",
        '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
        '    <TextView android:layout_below="@id/x" android:layout_width="1dp"/>'
        "</LinearLayout>",
        "@@ -1,2 +1,2 @@\n"
        ' <LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
        '-    <TextView android:layout_below="@id/x" android:layout_width="1dp"/>'
        "</LinearLayout>\n"
        "\\ No newline at end of file\n"
        '+    <TextView android:layout_width="1dp"/></LinearLayout>\n'
        "\\ No newline at end of file\n",
    ),
    "form-feed": (
        "src/H.java",
        "class H {\n"
        "    void h(Db db) {\n"
        '        Cursor c = db.query("t"); \f c.moveToFirst();\n'
        "    }\n"
        "}\n",
        "@@ -1,5 +1,8 @@\n"
        " class H {\n"
        "     void h(Db db) {\n"
        '         Cursor c = db.query("t"); \f c.moveToFirst();\n'
        "+        if (c != null) {\n"
        "+            c.close();\n"
        "+        }\n"
        "     }\n"
        " }\n",
    ),
}


@pytest.mark.parametrize("case", _PATCHES)
def test_patch_is_one_git_apply_accepts(tmp_path, case):
    rel, source, hunk = _PATCHES[case]
    _write(tmp_path, rel, source.encode())
    [outcome], _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_PATCH))
    assert outcome.patch == f"--- a/{rel}\n+++ b/{rel}\n" + hunk
    if shutil.which("git") is None:
        return
    (tmp_path / "p.patch").write_text(outcome.patch)
    check = subprocess.run(
        ["git", "apply", "--check", "p.patch"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert check.returncode == 0, check.stderr


def test_counts_come_from_findings_and_what_was_applied(tmp_path, monkeypatch):
    proj = _project_from_golden(tmp_path)
    outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_PATCH))
    counts = rule_counts(outcomes)
    for rule in RuleId:
        assert counts[rule] == {"refactorings": 1, "fixed": 1, "unfixable": 0}, rule
    # a local wake lock is not fixable; a rolled-back fix is not fixed
    path = _write(
        tmp_path / "two",
        "W.java",
        b"class W extends Activity { void onCreate() {"
        b" WakeLock w = pm.newWakeLock(1, t); w.acquire(); } }\n",
    )
    stubborn = _marker_rule(b"/*x*/", False, True, stubborn=True)
    monkeypatch.setattr(engine, "apply_recycle", stubborn)
    outcomes, _ = run_project(RunConfig(input_path=path.parent, mode=MODE_FIX))
    assert outcomes[0].internal_error is not None
    counts = rule_counts(outcomes)
    assert counts[RuleId.WAKE_LOCK] == {"refactorings": 0, "fixed": 0, "unfixable": 1}
    assert counts[RuleId.RECYCLE] == {"refactorings": 1, "fixed": 0, "unfixable": 0}


def test_every_rule_takes_only_the_tree_and_the_path():
    rules = [n for n in greenlint.rules.__all__ if n.startswith("apply_")]
    assert len(rules) == len(RuleId)
    for name in rules:
        params = inspect.signature(getattr(greenlint.rules, name)).parameters
        assert list(params) == ["tree", "path"], name


def test_enabled_rules_filter(tmp_path):
    proj = _project_from_golden(tmp_path)
    config = RunConfig(
        input_path=proj,
        mode=MODE_REPORT,
        enabled_rules=frozenset({RuleId.RECYCLE}),
    )
    outcomes, _ = run_project(config)
    counts = rule_counts(outcomes)
    assert counts[RuleId.RECYCLE]["refactorings"] == 1
    for rule in RuleId:
        if rule is not RuleId.RECYCLE:
            assert counts[rule]["refactorings"] == 0


def test_two_runs_give_identical_results(tmp_path):
    proj = _project_from_golden(tmp_path)
    results = []
    for _ in range(2):
        outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_REPORT))
        results.append(
            [
                (o.path, f.rule, f.span.start, f.message)
                for o in outcomes
                for f in o.findings
            ]
        )
    assert results[0] == results[1]


def test_unparseable_java_skipped_not_fatal(tmp_path):
    proj = tmp_path / "proj"
    _write(proj, "src/Broken.java", b"class {")
    _write(proj, "src/Fine.java", b"class Fine {}\n")
    outcomes, _ = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert sum(1 for o in outcomes if o.diagnostics) == 1
    broken = next(o for o in outcomes if o.path == str(proj / "src/Broken.java"))
    assert len(broken.diagnostics) == 1
    assert (proj / "src/Broken.java").read_bytes() == b"class {"


def test_non_utf8_file_skipped_with_warning(tmp_path):
    proj = tmp_path / "proj"
    _write(proj, "src/Latin.java", b"class A { // caf\xe9 }\n")
    outcomes, warnings = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert outcomes[0].language == "java"
    assert outcomes[0].skip_reason is not None
    assert any("not UTF-8" in w for w in warnings)


# The path and the stderr line each file gets, for each way of writing the
# root, as `str(Path)` spells them. Root "." is where os.path.join ("./x")
# and Path ("x") differ; {tmp} is the absolute path of the test directory.
_STDERR_FOR = {
    "bad.xml": ":1:10: parse error: duplicate attribute",
    "Broken.java": ":1:7: parse error: expected type name",
    "Latin.java": ": skipped: not UTF-8; refusing to touch unknown encodings",
}


@pytest.mark.parametrize(
    ("cwd", "root", "paths"),
    [
        ("proj", ".", ["res/layout/bad.xml", "src/Broken.java", "src/Latin.java"]),
        (".", "proj", ["proj/res/layout/bad.xml", "proj/src/Broken.java", "proj/src/Latin.java"]),
        (".", "proj/", ["proj/res/layout/bad.xml", "proj/src/Broken.java", "proj/src/Latin.java"]),
        (".", "./proj", ["proj/res/layout/bad.xml", "proj/src/Broken.java", "proj/src/Latin.java"]),
        (
            ".",
            "{tmp}/proj",
            ["{tmp}/proj/res/layout/bad.xml", "{tmp}/proj/src/Broken.java", "{tmp}/proj/src/Latin.java"],
        ),
        ("proj", "./src/Broken.java", ["src/Broken.java"]),
        (".", "proj/src/Latin.java", ["proj/src/Latin.java"]),
    ],
)
def test_file_names_do_not_depend_on_how_the_root_is_written(
    tmp_path, monkeypatch, capsys, cwd, root, paths
):
    _write(tmp_path, "proj/res/layout/bad.xml", b'<a x="1" x="2"/>')
    _write(tmp_path, "proj/src/Broken.java", b"class {")
    _write(tmp_path, "proj/src/Latin.java", b"class A { // caf\xe9 }\n")
    monkeypatch.chdir(tmp_path / cwd)
    root = root.format(tmp=tmp_path)
    paths = [p.format(tmp=tmp_path) for p in paths]
    outcomes, _ = run_project(RunConfig(input_path=Path(root)))
    assert [o.path for o in outcomes] == paths
    main(["check", root])
    stderr = [p + _STDERR_FOR[p.rsplit("/", 1)[-1]] for p in paths]
    assert capsys.readouterr().err.splitlines() == stderr


def test_verification_failure_rolls_back(tmp_path, monkeypatch):
    proj = tmp_path / "proj"
    before = (GOLDEN / "recycle" / "before.java").read_bytes()
    _write(proj, "src/R.java", before)

    real_recycle = engine.apply_recycle

    def sabotaged(tree, path):
        result = real_recycle(tree, path)
        result.edits.append(Edit.insert(0, b"%%% not java\n"))
        return result

    monkeypatch.setattr(engine, "apply_recycle", sabotaged)
    outcomes, warnings = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert outcomes[0].internal_error is not None
    assert not outcomes[0].rewritten
    assert (proj / "src/R.java").read_bytes() == before
    assert any("error" in w for w in warnings)


def _marker_rule(marker: bytes, at_start: bool, at_end: bool, stubborn=False):
    """A stand-in rule: one fixable finding that inserts ``marker`` at the
    start and/or end of the file, until the file holds it (``stubborn``:
    always)."""

    def rule(tree, path):
        result = RuleResult()
        if stubborn or marker not in tree.data:
            result.findings.append(
                Finding(RuleId.RECYCLE, path, SourceSpan(0, 0), "")
            )
            if at_start:
                result.edits.append(Edit.insert(0, marker))
            if at_end:
                result.edits.append(Edit.insert(len(tree.data), marker))
        return result

    return rule


def test_rule_still_fixable_after_its_fix_rolls_back(tmp_path, monkeypatch):
    path = _write(tmp_path, "A.java")
    stubborn = _marker_rule(b"/*x*/", False, True, stubborn=True)
    monkeypatch.setattr(engine, "apply_recycle", stubborn)
    outcomes, _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert "still reports fixable" in outcomes[0].internal_error
    assert path.read_bytes() == b"class A {}\n"


def test_deferred_rule_holds_back_the_rules_after_it(tmp_path, monkeypatch):
    # DrawAllocation's start insert touches ViewHolder's, so it waits a
    # pass; WakeLock, whose edit touches neither, must still run after it.
    for name, rule in (
        ("apply_view_holder", _marker_rule(b"/*A*/", True, False)),
        ("apply_draw_allocation", _marker_rule(b"/*B*/", True, True)),
        ("apply_wake_lock", _marker_rule(b"/*C*/", False, True)),
    ):
        monkeypatch.setattr(engine, name, rule)
    path = _write(tmp_path, "A.java")
    outcomes, _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert outcomes[0].internal_error is None
    assert path.read_bytes() == b"/*B*//*A*/class A {}\n/*B*//*C*/"


def test_clean_corpus_yields_zero_findings():
    outcomes, _ = run_project(
        RunConfig(input_path=CLEAN_CORPUS, mode=MODE_REPORT)
    )
    assert not any(o.diagnostics for o in outcomes)
    assert all(not o.findings for o in outcomes)


def test_config_validation(tmp_path):
    with pytest.raises(FileNotFoundError):
        RunConfig(input_path=tmp_path / "missing")


def test_check_locates_findings_of_every_rule_in_the_file_on_disk(
    tmp_path, capsys
):
    view_holder = (GOLDEN / "view_holder" / "before.java").read_bytes()
    recycle = (GOLDEN / "recycle" / "before.java").read_bytes()
    _write(tmp_path, "VR.java", view_holder + b"\n" + recycle)
    assert main(["check", str(tmp_path)]) == EXIT_FINDINGS
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" [")[0] for line in lines] == [
        "VR.java:4:17:",
        "VR.java:15:43:",
    ]
    assert "[ViewHolder]" in lines[0] and "[Recycle]" in lines[1]


# WakeLock and Recycle both insert at the line of onPause's closing brace.
SHARED_INSERT_POINT = """\
public class PlayerActivity extends Activity {
    private WakeLock wl;

    @Override
    protected void onCreate(Bundle savedInstanceState) {
        super.onCreate(savedInstanceState);
        PowerManager pm = (PowerManager) getSystemService(Context.POWER_SERVICE);
        wl = pm.newWakeLock(PowerManager.SCREEN_DIM_WAKE_LOCK, "Player");
        wl.acquire();
    }

    @Override
    protected void onPause() {
        super.onPause();
        Cursor c = db.query("t", null, null, null, null, null, null);
        String s = c.getString(0);
    }
}
"""


def _count_calls(monkeypatch) -> Counter:
    """Calls to the two parsers and to `apply_edit_set`, through engine's names."""
    counts: Counter = Counter()
    for name in ("parse_java_source", "parse_layout_xml", "apply_edit_set"):

        def counting(*args, _name=name, _real=getattr(engine, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(engine, name, counting)
    return counts


def test_clean_java_file_is_parsed_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch)
    _write(tmp_path, "Fine.java", b"class Fine {\n    int x;\n}\n")
    run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert calls["parse_java_source"] == 1


@pytest.mark.parametrize(
    "name", [n for n, ext in GOLDEN_CASES.items() if ext == "java"]
)
def test_rewritten_java_file_is_parsed_twice(tmp_path, monkeypatch, name):
    calls = _count_calls(monkeypatch)
    path = _write(tmp_path, "A.java", (GOLDEN / name / "before.java").read_bytes())
    outcomes, _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert outcomes[0].rewritten
    assert path.read_bytes() == (GOLDEN / name / "after.java").read_bytes()
    assert calls["parse_java_source"] == 2


def test_rule_whose_edits_touch_earlier_ones_waits_a_pass(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch)
    _write(tmp_path, "P.java", SHARED_INSERT_POINT.encode())
    outcomes, _ = run_project(
        RunConfig(input_path=tmp_path, mode=MODE_FIX)
    )
    assert outcomes[0].rewritten
    counts = rule_counts(outcomes)
    assert counts[RuleId.WAKE_LOCK]["fixed"] == 1
    assert counts[RuleId.RECYCLE]["fixed"] == 1
    assert calls["parse_java_source"] == 3


def _projects(root: Path) -> None:
    """Three projects: the golden `before`s; files whose fixes take two and
    three passes, decline or fail to parse, next to a golden layout; and the
    clean corpus."""
    _project_from_golden(root / "golden")
    for name, text in (
        ("Shared", SHARED_INSERT_POINT),
        ("Shifted", SHIFTED_FINDING),
        ("Broken", "class Broken {\n"),
    ):
        _write(root / "mixed", f"src/{name}.java", text.encode())
    layout = (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
    _write(root / "mixed", "res/layout-land/main.xml", layout)
    shutil.copytree(CLEAN_CORPUS, root / "clean")


# (parse_java_source, parse_layout_xml, apply_edit_set) calls of `fix` and
# `fix --patch-dir`: a pass per rewrite, and one to verify it.
FIX_CALLS = {"golden": (8, 2, 5), "projects": (32, 16, 9)}


@pytest.mark.parametrize("tree", ["golden", "projects"])
@pytest.mark.parametrize(
    "command", ["check", "check-json", "corpus-csv", "corpus-json", "patch", "fix"]
)
def test_parses_and_edits_per_command(
    tmp_path, monkeypatch, capsys, tree, command
):
    root = tmp_path / "in"
    if tree == "projects":
        _projects(root)
    else:
        _project_from_golden(root)
    java, xml = (len(list(root.rglob(f"*.{ext}"))) for ext in ("java", "xml"))
    out = tmp_path / "out"
    argv = {
        "check": ["check", str(root)],
        "check-json": ["check", str(root), "--format", "json"],
        "corpus-csv": ["corpus", str(root), "--out", str(out)],
        "corpus-json": ["corpus", str(root), "--out", str(out), "--format", "json"],
        "patch": ["fix", str(root), "--patch-dir", str(out)],
        "fix": ["fix", str(root)],
    }[command]
    counts = _count_calls(monkeypatch)
    main(argv)
    calls = (counts["parse_java_source"], counts["parse_layout_xml"], counts["apply_edit_set"])
    assert calls == (FIX_CALLS[tree] if command in ("patch", "fix") else (java, xml, 0))


def test_check_and_corpus_verify_no_rewrite(tmp_path, monkeypatch, capsys):
    # A rule whose fix would not verify is still reported, as fixable, by
    # the commands that write nothing; `fix` rolls the file back.
    path = _write(tmp_path / "app", "A.java")
    stubborn = _marker_rule(b"/*x*/", False, True, stubborn=True)
    monkeypatch.setattr(engine, "apply_recycle", stubborn)
    assert main(["check", str(tmp_path)]) == EXIT_FINDINGS
    out, err = capsys.readouterr()
    assert out == "app/A.java:1:1: [Recycle] \n" and err == ""
    assert main(["corpus", str(tmp_path), "--out", str(tmp_path / "t.csv")]) == EXIT_CLEAN
    assert "error" not in capsys.readouterr().err
    assert main(["fix", str(tmp_path)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "error: rule Recycle still reports fixable findings after its own fix" in err
    assert path.read_bytes() == b"class A {}\n"


def _chained_fix(data: bytes, ext: str) -> bytes:
    """Reference: parse, run one rule, apply its edits, then the next rule."""
    if ext == "xml":
        result = apply_obsolete_layout_param(parse_xml(data), "")
        return apply_edit_set(data, result.edits)
    for rule in (
        apply_view_holder,
        apply_draw_allocation,
        apply_wake_lock,
        apply_recycle,
    ):
        data = apply_edit_set(data, rule(parse_java(data), "").edits)
    return data


def _differential_cases() -> list:
    cases = []
    for name, ext in GOLDEN_CASES.items():
        before = (GOLDEN / name / f"before.{ext}").read_text()
        cases.append((name, ext, before))
        variants = (
            java_mutations(name, before) if ext == "java" else xml_mutations(before)
        )
        cases.extend((f"{name}-{i}", ext, v) for i, v in enumerate(variants))
    all_java = "\n".join(
        (GOLDEN / name / "before.java").read_text()
        for name, ext in GOLDEN_CASES.items()
        if ext == "java"
    )
    cases.append(("all-java", "java", all_java))
    cases.append(("all-java-crlf", "java", all_java.replace("\n", "\r\n")))
    cases.append(("shared-insert-point", "java", SHARED_INSERT_POINT))
    return [pytest.param(ext, text.encode(), id=cid) for cid, ext, text in cases]


@pytest.mark.parametrize("ext,before", _differential_cases())
def test_fix_matches_rule_by_rule_chain(tmp_path, ext, before):
    rel = "Case.java" if ext == "java" else "res/layout/case.xml"
    path = _write(tmp_path, rel, before)
    outcomes, _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert outcomes[0].internal_error is None
    assert path.read_bytes() == _chained_fix(before, ext)


def _check_verify_passes(tmp_path, monkeypatch, before: bytes, check) -> None:
    """Fix ``before``, calling ``check(data, tree)`` on each verify pass: every
    Java parse after the first. The last one must parse the bytes written."""
    real_parse = engine.parse_java_source
    parsed = []

    def checking(data):
        tree, diags = real_parse(data)
        if parsed:
            check(data, tree)
        parsed.append(data)
        return tree, diags

    monkeypatch.setattr(engine, "parse_java_source", checking)
    path = _write(tmp_path, "Case.java", before)
    run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert len(parsed) >= 2 and parsed[-1] == path.read_bytes()


@pytest.mark.parametrize(
    "ext,before", [c for c in _differential_cases() if c.values[0] == "java"]
)
def test_verification_tokens_equal_a_fresh_scan(tmp_path, monkeypatch, ext, before):
    def same_tokens(data, tree):
        fresh = tokenize(data)
        for field in ("kinds", "values", "starts", "ends"):
            assert getattr(tree.tokens, field) == getattr(fresh, field)

    _check_verify_passes(tmp_path, monkeypatch, before, same_tokens)


@pytest.mark.parametrize(
    "ext,before", [c for c in _differential_cases() if c.values[0] == "java"]
)
def test_verification_tree_equals_a_fresh_parse(tmp_path, monkeypatch, ext, before):
    def same_tree(data, tree):
        assert tree_shape(tree) == tree_shape(parse_java(data))

    _check_verify_passes(tmp_path, monkeypatch, before, same_tree)


@pytest.mark.parametrize(
    "ext,before", [c for c in _differential_cases() if c.values[0] == "java"]
)
def test_verification_methods_equal_a_fresh_parse(tmp_path, monkeypatch, ext, before):
    def shape(tree):
        return [
            (owner.kind, owner.tok_lo, owner.tok_hi, method.props["name"], method.tok_lo)
            for owner, method in methods_of(tree)
        ]

    def same_methods(data, tree):
        assert shape(tree) == shape(parse_java(data))
        assert methods_of(tree) is methods_of(tree)  # found once, shared by the rules

    _check_verify_passes(tmp_path, monkeypatch, before, same_methods)


# A Recycle fix above a ViewHolder finding that is declined (the method's
# first statement shares its line), so the verify pass moves the adapter's
# getView, whose name span the finding holds.
SHIFTED_FINDING = """\
class Both extends BaseAdapter {
    void read(Db db) {
        Cursor c = db.query("t");
        c.moveToFirst();
    }

    public View getView(int pos, View cv, ViewGroup parent) { cv = inf.inflate(R.layout.row, parent, false);
        TextView t = (TextView) cv.findViewById(R.id.t);
        return cv;
    }
}
"""


def _located(outcomes) -> list[tuple]:
    return [
        (f.rule, f.span.start, f.span.end, f.line, f.column, f.message, f.fixable)
        for o in outcomes
        for f in o.findings
    ]


@pytest.mark.parametrize(
    "before",
    [
        pytest.param((GOLDEN / n / "before.java").read_bytes(), id=n)
        for n, ext in GOLDEN_CASES.items()
        if ext == "java"
    ]
    + [
        pytest.param(SHARED_INSERT_POINT.encode(), id="shared-insert-point"),
        pytest.param(SHIFTED_FINDING.encode(), id="shifted-finding"),
    ],
)
def test_verification_moves_no_finding(tmp_path, before):
    # Findings are recorded in pass 0; the verify pass, which fix runs and
    # report mode does not, parses the rewritten text in full, which must leave
    # them where the file on disk has them.
    found = {}
    for mode in (MODE_REPORT, MODE_FIX):
        _write(tmp_path / mode, "Case.java", before)
        outcomes, _ = run_project(RunConfig(input_path=tmp_path / mode, mode=mode))
        found[mode] = _located(outcomes)
        for _, start, _, line, column, _, _ in found[mode]:
            assert line_col(before, start) == (line, column)
    assert found[MODE_FIX] == found[MODE_REPORT]
    assert sum(c["fixed"] for c in rule_counts(outcomes).values()) >= 1


def test_shifted_finding_case_moves_the_declined_method():
    tree = parse_java(SHIFTED_FINDING.encode())
    result = apply_recycle(tree, "")
    assert len(result.edits) == 1
    getview = tree.root.children[0].children[1]
    assert getview.props["name"] == "getView"
    assert result.edits[0].span.start < tree.span_of(getview).start
    assert not apply_view_holder(tree, "").findings[0].fixable


# Members of a generated class; the last two depend on the class's name.
_MEMBERS = [
    "int f;",
    'String s = "a", t;',
    "int[] a = {1, 2}, b;",
    "void m() { if (x) { f(); } else g(); }",
    "static { x = 1; }",
    "class B { B() {} void n() { int q = 0; } }",
    "enum E { X, Y { void z() {} }; int q; }",
    "Runnable r = new Runnable() { public void run() {} };",
    "<T> T id(T t) { return t; }",
    '@Override public String toString() { return "A"; }',
    "interface I { void i(); }",
    "A() { super(); }",
    "A(int x) { this(); }",
]
# Replacement texts: whole members and the bytes that change how the text
# around an edit lexes or parses.
_INSERTS = _MEMBERS + ["A", "B", "{", "}", ";", "(", "/*", "*/", '"', " ", "\n", "x", ""]


@st.composite
def _edited_classes(draw):
    """A class of generated members (and maybe a second class), 1-4 disjoint
    edits, some on member boundaries, and the edited text."""
    members = draw(st.lists(st.sampled_from(_MEMBERS), min_size=1, max_size=8))
    text = "class A {\n" + "".join(f"    {m}\n" for m in members) + "}\n"
    if draw(st.booleans()):
        text += "class A2 extends A {\n    void k() {}\n}\n"
    old = text.encode()
    boundaries = [i + 1 for i, b in enumerate(old) if b == ord("\n")]
    offset = st.one_of(st.sampled_from(boundaries), st.integers(0, len(old)))
    count = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(offset, min_size=2 * count, max_size=2 * count)))
    edits = [
        Edit.replace(cuts[k], cuts[k + 1], draw(st.sampled_from(_INSERTS)).encode())
        for k in range(0, len(cuts), 2)
    ]
    return old, draw(st.permutations(edits))


def _outcome(tree, diags):
    return tree_shape(tree) if tree is not None else [str(d) for d in diags]


def _verify_parse(old: bytes, edits) -> tuple:
    """What a verify pass sees: the edited text parsed after ``old`` was,
    with the earlier tree still alive."""
    tree, diags = parse_java_source(old)
    assert tree is not None, diags
    return tree, parse_java_source(apply_edit_set(old, edits))


@settings(max_examples=400, deadline=None)
@given(_edited_classes())
def test_relexed_tree_equals_a_fresh_parse(case):
    # A parse keeps nothing from an earlier one: the edited text parses the
    # same before and after the text it was edited from.
    old, edits = case
    new = apply_edit_set(old, edits)
    fresh = _outcome(*parse_java_source(new))
    _, relexed = _verify_parse(old, edits)
    assert _outcome(*relexed) == fresh, (new, edits)


def test_a_relexed_enum_constant_body_after_a_semicolon_is_an_initializer():
    # `;` after the constant makes the copied `{ int w; }` a member block
    old = b"enum F {\n    Y { int w; }\n}\n"
    edits = [Edit.insert(old.index(b"{ int"), b"; ")]
    fresh = _outcome(*parse_java_source(apply_edit_set(old, edits)))
    assert fresh[2][0] == "initializer"
    _, relexed = _verify_parse(old, edits)
    assert _outcome(*relexed) == fresh


def test_a_verify_parse_leaves_the_earlier_tree_as_it_was():
    old = b"class A {\n    int a;\n    void m() {}\n}\n"
    edits = [Edit.insert(old.index(b"    int a"), b"    int z;\n")]
    tree, diags = parse_java_source(old)
    assert tree is not None, diags
    shape = tree_shape(tree)
    new, diags = parse_java_source(apply_edit_set(old, edits))
    assert new is not None, diags
    assert tree_shape(tree) == shape


def test_a_relexing_parse_leaves_nothing_for_the_collector():
    # With the collector off, reference counting alone must free every
    # object a verify parse made.
    old = _big_source().encode()
    at = old.index(b"c.moveToFirst()")
    edits = [Edit.replace(at, at + 1, b"d")]
    gc.collect()
    gc.disable()
    try:
        tree, (relexed, diags) = _verify_parse(old, edits)
        assert relexed is not None, diags
        del tree, relexed
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def _big_source() -> str:
    """A one-class file of over 300 lines whose first method Recycle fixes."""
    filler = "".join(
        f"    int get{i}(int x) {{\n        return x * {i} + field{i};\n    }}\n"
        for i in range(98)
    )
    source = (
        "public class Big {\n"
        "    void read(Db db) {\n"
        '        Cursor c = db.query("t");\n'
        "        c.moveToFirst();\n"
        "    }\n" + filler + "}\n"
    )
    assert source.count("\n") >= 300
    return source


@pytest.mark.parametrize(
    "sabotage,message",
    [
        ("stubborn", "still reports fixable"),
        ("breaks_xml", "rewritten output does not parse"),
    ],
)
def test_xml_verification_failure_rolls_back(tmp_path, monkeypatch, sabotage, message):
    before = (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
    path = _write(tmp_path, "res/layout/main.xml", before)
    real_rule = engine.apply_obsolete_layout_param

    def sabotaged(tree, shown):
        result = real_rule(tree, shown)
        if sabotage == "stubborn":
            result.findings.append(
                Finding(RuleId.OBSOLETE_LAYOUT_PARAM, shown, SourceSpan(0, 0), "")
            )
        elif result.edits:
            result.edits.append(Edit.insert(0, b"<<<"))
        return result

    monkeypatch.setattr(engine, "apply_obsolete_layout_param", sabotaged)
    outcomes, warnings = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert message in outcomes[0].internal_error
    assert not outcomes[0].rewritten
    assert path.read_bytes() == before
    assert any(": error: " in w for w in warnings)


def test_every_rule_call_runs_on_the_calling_thread(tmp_path, monkeypatch):
    proj = _project_from_golden(tmp_path)
    calls: dict[str, set[int]] = {}
    for name in (
        "apply_view_holder",
        "apply_draw_allocation",
        "apply_wake_lock",
        "apply_recycle",
        "apply_obsolete_layout_param",
    ):

        def spy(*args, _name=name, _real=getattr(engine, name), **kwargs):
            calls.setdefault(_name, set()).add(threading.get_ident())
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, name, spy)
    run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert len(calls) == 5
    assert all(threads == {threading.get_ident()} for threads in calls.values())
