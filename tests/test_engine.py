import hashlib
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenlint.engine as engine
from greenlint.cli import EXIT_FINDINGS, main
from greenlint.diagnostics import line_col
from greenlint.engine import (
    MODE_FIX,
    MODE_PATCH,
    MODE_REPORT,
    RunConfig,
    discover_files,
    run_project,
)
from greenlint.java import parser
from greenlint.java.lexer import tokenize
from greenlint.java.parser import parse_java_source
from greenlint.rules import (
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
    rels = [p.relative_to(tmp_path).as_posix() for p, _ in files]
    assert rels == ["A.java", "res/layout/main.xml"]
    assert [lang for _, lang in files] == ["java", "xml"]


def test_discovery_single_file(tmp_path):
    path = _write(tmp_path, "One.java")
    files = discover_files(RunConfig(input_path=path))
    assert files == [(path, "java")]


def test_discovery_custom_exclude(tmp_path):
    _write(tmp_path, "keep/A.java")
    _write(tmp_path, "vendor/B.java")
    config = RunConfig(input_path=tmp_path, exclude_globs=("vendor/**",))
    rels = [p.relative_to(tmp_path).as_posix() for p, _ in discover_files(config)]
    assert rels == ["keep/A.java"]


def test_layout_xml_outside_res_layout_ignored(tmp_path):
    _write(tmp_path, "res/layout-land/main.xml", b"<a/>")
    _write(tmp_path, "docs/diagram.xml", b"<a/>")
    files = discover_files(RunConfig(input_path=tmp_path))
    rels = [p.relative_to(tmp_path).as_posix() for p, _ in files]
    assert rels == ["res/layout-land/main.xml"]


def _hashes(root: Path) -> dict:
    return {
        p: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_report_mode_counts_without_writing(tmp_path):
    proj = _project_from_golden(tmp_path)
    before = _hashes(proj)
    report, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_REPORT))
    assert _hashes(proj) == before
    assert report.java_files == 4 and report.xml_files == 1
    assert report.parse_failures == 0
    for rule in RuleId:
        assert report.rule_counts[rule].refactorings == 1, rule
        assert report.rule_counts[rule].fixed == 0
    assert not any(o.rewritten for o in outcomes)


def test_fix_mode_rewrites_to_golden_output(tmp_path):
    proj = _project_from_golden(tmp_path)
    report, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    for rule in RuleId:
        assert report.rule_counts[rule].fixed == 1, rule
    for name, ext in GOLDEN_CASES.items():
        rel = f"src/{name}.java" if ext == "java" else f"res/layout/{name}.xml"
        expected = (GOLDEN / name / f"after.{ext}").read_bytes()
        assert (proj / rel).read_bytes() == expected, name
    # a second pass is a no-op
    report2, _ = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert all(c.refactorings == 0 for c in report2.rule_counts.values())


def test_patch_mode_leaves_files_alone(tmp_path):
    proj = _project_from_golden(tmp_path)
    before = _hashes(proj)
    _, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_PATCH))
    assert _hashes(proj) == before
    patches = [o for o in outcomes if o.patch]
    assert len(patches) == 5
    for o in patches:
        assert o.patch.startswith("--- a/")
        assert "+++ b/" in o.patch


def test_counts_come_from_findings_and_what_was_applied(tmp_path, monkeypatch):
    proj = _project_from_golden(tmp_path)
    report, _ = run_project(RunConfig(input_path=proj, mode=MODE_PATCH))
    for rule in RuleId:
        count = report.rule_counts[rule]
        assert (count.refactorings, count.fixed, count.unfixable) == (1, 1, 0), rule
    # a local wake lock is not fixable; a rolled-back fix is not fixed
    path = _write(
        tmp_path / "two",
        "W.java",
        b"class W extends Activity { void onCreate() {"
        b" WakeLock w = pm.newWakeLock(1, t); w.acquire(); } }\n",
    )
    stubborn = _marker_rule(b"/*x*/", False, True, stubborn=True)
    monkeypatch.setattr(engine, "apply_recycle", stubborn)
    report, outcomes = run_project(RunConfig(input_path=path.parent, mode=MODE_FIX))
    assert outcomes[0].internal_error is not None
    wake = report.rule_counts[RuleId.WAKE_LOCK]
    assert (wake.refactorings, wake.fixed, wake.unfixable) == (0, 0, 1)
    recycle = report.rule_counts[RuleId.RECYCLE]
    assert (recycle.refactorings, recycle.fixed, recycle.unfixable) == (1, 0, 0)


def test_backup_keeps_original(tmp_path):
    proj = _project_from_golden(tmp_path)
    original = (proj / "src/recycle.java").read_bytes()
    run_project(RunConfig(input_path=proj, mode=MODE_FIX, backup=True))
    assert (proj / "src/recycle.java.orig").read_bytes() == original


def test_enabled_rules_filter(tmp_path):
    proj = _project_from_golden(tmp_path)
    config = RunConfig(
        input_path=proj,
        mode=MODE_REPORT,
        enabled_rules=frozenset({RuleId.RECYCLE}),
    )
    report, _ = run_project(config)
    assert report.rule_counts[RuleId.RECYCLE].refactorings == 1
    for rule in RuleId:
        if rule is not RuleId.RECYCLE:
            assert report.rule_counts[rule].refactorings == 0


def test_two_runs_give_identical_results(tmp_path):
    proj = _project_from_golden(tmp_path)
    results = []
    for _ in range(2):
        _, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_REPORT))
        results.append(
            [
                (o.path.as_posix(), f.rule, f.span.start, f.message)
                for o in outcomes
                for f in o.findings
            ]
        )
    assert results[0] == results[1]


def test_unparseable_java_skipped_not_fatal(tmp_path):
    proj = tmp_path / "proj"
    _write(proj, "src/Broken.java", b"class {")
    _write(proj, "src/Fine.java", b"class Fine {}\n")
    report, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert report.parse_failures == 1
    broken = next(o for o in outcomes if o.path.name == "Broken.java")
    assert len(broken.diagnostics) == 1
    assert (proj / "src/Broken.java").read_bytes() == b"class {"


def test_non_utf8_file_skipped_with_warning(tmp_path):
    proj = tmp_path / "proj"
    _write(proj, "src/Latin.java", b"class A { // caf\xe9 }\n")
    report, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert outcomes[0].language == "java"
    assert outcomes[0].skip_reason is not None
    assert any("not UTF-8" in w for w in report.warnings)


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
    report, outcomes = run_project(RunConfig(input_path=proj, mode=MODE_FIX))
    assert outcomes[0].internal_error is not None
    assert not outcomes[0].rewritten
    assert (proj / "src/R.java").read_bytes() == before
    assert any("error" in w for w in report.warnings)


def _marker_rule(marker: bytes, at_start: bool, at_end: bool, stubborn=False):
    """A stand-in rule: one fixable finding that inserts ``marker`` at the
    start and/or end of the file, until the file holds it (``stubborn``:
    always)."""

    def rule(tree, path, **_):
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
    _, outcomes = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
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
    _, outcomes = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert outcomes[0].internal_error is None
    assert path.read_bytes() == b"/*B*//*A*/class A {}\n/*B*//*C*/"


def test_clean_corpus_yields_zero_findings():
    report, outcomes = run_project(
        RunConfig(input_path=CLEAN_CORPUS, mode=MODE_REPORT)
    )
    assert report.parse_failures == 0
    assert all(not o.findings for o in outcomes)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(input_path=tmp_path, mode="dry-run")
    with pytest.raises(ValueError):
        RunConfig(input_path=tmp_path, enabled_rules=frozenset())
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


def _count_parses(monkeypatch) -> list[int]:
    calls = [0]
    real_parse = engine.parse_java_source

    def counting(*args):
        calls[0] += 1
        return real_parse(*args)

    monkeypatch.setattr(engine, "parse_java_source", counting)
    return calls


def test_clean_java_file_is_parsed_once(tmp_path, monkeypatch):
    calls = _count_parses(monkeypatch)
    _write(tmp_path, "Fine.java", b"class Fine {\n    int x;\n}\n")
    run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert calls[0] == 1


@pytest.mark.parametrize(
    "name", [n for n, ext in GOLDEN_CASES.items() if ext == "java"]
)
def test_rewritten_java_file_is_parsed_twice(tmp_path, monkeypatch, name):
    calls = _count_parses(monkeypatch)
    path = _write(tmp_path, "A.java", (GOLDEN / name / "before.java").read_bytes())
    _, outcomes = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert outcomes[0].rewritten
    assert path.read_bytes() == (GOLDEN / name / "after.java").read_bytes()
    assert calls[0] == 2


def test_rule_whose_edits_touch_earlier_ones_waits_a_pass(tmp_path, monkeypatch):
    calls = _count_parses(monkeypatch)
    _write(tmp_path, "P.java", SHARED_INSERT_POINT.encode())
    report, outcomes = run_project(
        RunConfig(input_path=tmp_path, mode=MODE_FIX)
    )
    assert outcomes[0].rewritten
    assert report.rule_counts[RuleId.WAKE_LOCK].fixed == 1
    assert report.rule_counts[RuleId.RECYCLE].fixed == 1
    assert calls[0] == 3


def _chained_fix(data: bytes, ext: str) -> bytes:
    """Reference: parse, run one rule, apply its edits, then the next rule."""
    if ext == "xml":
        result = apply_obsolete_layout_param(parse_xml(data), "", LayoutParamTable())
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
    _, outcomes = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert outcomes[0].internal_error is None
    assert path.read_bytes() == _chained_fix(before, ext)


def _check_verify_passes(tmp_path, monkeypatch, before: bytes, check) -> None:
    """Fix ``before``, calling ``check(data, tree)`` on each verify pass."""
    real_parse = engine.parse_java_source
    verified = []

    def checking(data, *previous):
        tree, diags = real_parse(data, *previous)
        if previous:
            check(data, tree)
            verified.append(data)
        return tree, diags

    monkeypatch.setattr(engine, "parse_java_source", checking)
    path = _write(tmp_path, "Case.java", before)
    run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert verified and verified[-1] == path.read_bytes()


@pytest.mark.parametrize(
    "ext,before", [c for c in _differential_cases() if c.values[0] == "java"]
)
def test_verification_tokens_equal_a_fresh_scan(tmp_path, monkeypatch, ext, before):
    def same_tokens(data, tree):
        fresh = [(t.kind, t.value, t.start, t.end) for t in tokenize(data)]
        assert [(t.kind, t.value, t.start, t.end) for t in tree.tokens] == fresh

    _check_verify_passes(tmp_path, monkeypatch, before, same_tokens)


@pytest.mark.parametrize(
    "ext,before", [c for c in _differential_cases() if c.values[0] == "java"]
)
def test_verification_tree_equals_a_fresh_parse(tmp_path, monkeypatch, ext, before):
    def same_tree(data, tree):
        assert tree_shape(tree) == tree_shape(parse_java(data))

    _check_verify_passes(tmp_path, monkeypatch, before, same_tree)


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
    # Findings are recorded in pass 0; the verify pass, which both modes
    # run, reuses and shifts the nodes their spans came from, which must
    # leave them where the file on disk has them.
    found = {}
    for mode in (MODE_REPORT, MODE_FIX):
        _write(tmp_path / mode, "Case.java", before)
        report, outcomes = run_project(RunConfig(input_path=tmp_path / mode, mode=mode))
        found[mode] = _located(outcomes)
        for _, start, _, line, column, _, _ in found[mode]:
            assert line_col(before, start) == (line, column)
    assert found[MODE_FIX] == found[MODE_REPORT]
    assert sum(c.fixed for c in report.rule_counts.values()) >= 1


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


@settings(max_examples=400, deadline=None)
@given(_edited_classes())
def test_reused_tree_equals_a_fresh_parse(case):
    old, edits = case
    tree, diags = parse_java_source(old)
    assert tree is not None, diags
    new = apply_edit_set(old, edits)
    fresh = _outcome(*parse_java_source(new))
    assert _outcome(*parse_java_source(new, (tree, edits))) == fresh, (new, edits)


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


def _per_pass(monkeypatch, counter: list[int]) -> list[int]:
    """How far ``counter`` moves during each Java parse from here on."""
    real_parse = engine.parse_java_source
    moved = []

    def counting(*args):
        before = counter[0]
        result = real_parse(*args)
        moved.append(counter[0] - before)
        return result

    monkeypatch.setattr(engine, "parse_java_source", counting)
    return moved


def test_verification_lexes_only_around_the_edits(tmp_path, monkeypatch, lexer_matches):
    matches = _per_pass(monkeypatch, lexer_matches)
    _write(tmp_path, "Big.java", _big_source().encode())
    report, _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert report.rule_counts[RuleId.RECYCLE].fixed == 1
    assert len(matches) == 2
    assert matches[1] < 0.1 * matches[0]


def test_verification_parses_only_the_edited_members(tmp_path, monkeypatch):
    calls = [0]
    real_member = parser._Parser._parse_member

    def counting(self, enclosing):
        calls[0] += 1
        return real_member(self, enclosing)

    monkeypatch.setattr(parser._Parser, "_parse_member", counting)
    members = _per_pass(monkeypatch, calls)
    _write(tmp_path, "Big.java", _big_source().encode())
    report, _ = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert report.rule_counts[RuleId.RECYCLE].fixed == 1
    assert len(members) == 2
    assert members[1] < 0.1 * members[0]


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

    def sabotaged(tree, shown, table):
        result = real_rule(tree, shown, table)
        if sabotage == "stubborn":
            result.findings.append(
                Finding(RuleId.OBSOLETE_LAYOUT_PARAM, shown, SourceSpan(0, 0), "")
            )
        elif result.edits:
            result.edits.append(Edit.insert(0, b"<<<"))
        return result

    monkeypatch.setattr(engine, "apply_obsolete_layout_param", sabotaged)
    report, outcomes = run_project(RunConfig(input_path=tmp_path, mode=MODE_FIX))
    assert message in outcomes[0].internal_error
    assert not outcomes[0].rewritten
    assert path.read_bytes() == before
    assert any(": error: " in w for w in report.warnings)


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
