import json
from pathlib import Path

import pytest

from greenlint.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    main,
)
from greenlint.diagnostics import line_col
from greenlint.rules import LayoutParamTable

from conftest import CLEAN_CORPUS, GOLDEN


def _recycle_project(tmp_path: Path) -> Path:
    proj = tmp_path / "proj"
    target = proj / "src" / "RecycleSample.java"
    target.parent.mkdir(parents=True)
    target.write_bytes((GOLDEN / "recycle" / "before.java").read_bytes())
    return proj


def test_check_reports_findings(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    assert main(["check", str(proj)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "src/RecycleSample.java:" in out
    assert "[Recycle]" in out
    # nothing was rewritten
    assert (
        (proj / "src/RecycleSample.java").read_bytes()
        == (GOLDEN / "recycle" / "before.java").read_bytes()
    )


def test_check_json_payload(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    assert main(["check", str(proj), "--format", "json"]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "1"
    assert payload["mode"] == "check"
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "Recycle"
    assert finding["file"] == "src/RecycleSample.java"
    assert finding["fixable"] is True
    assert finding["span"]["end"] > finding["span"]["start"]
    assert payload["summary"]["rules"]["Recycle"]["refactorings"] == 1


def test_check_clean_directory_exits_zero(capsys):
    assert main(["check", str(CLEAN_CORPUS)]) == EXIT_CLEAN
    assert capsys.readouterr().out == ""


def test_fix_then_check(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    assert main(["fix", str(proj)]) == EXIT_FINDINGS
    assert "1 refactoring(s) applied" in capsys.readouterr().out
    assert (
        (proj / "src/RecycleSample.java").read_bytes()
        == (GOLDEN / "recycle" / "after.java").read_bytes()
    )
    assert main(["check", str(proj)]) == EXIT_CLEAN


def test_fix_patch_dir(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    patches = tmp_path / "patches"
    assert main(["fix", str(proj), "--patch-dir", str(patches)]) == EXIT_FINDINGS
    patch = patches / "src" / "RecycleSample.java.patch"
    assert patch.is_file()
    text = patch.read_text()
    assert text.startswith("--- a/src/RecycleSample.java")
    assert "+        if (a != null) {" in text
    # the source file itself is untouched
    assert (
        (proj / "src/RecycleSample.java").read_bytes()
        == (GOLDEN / "recycle" / "before.java").read_bytes()
    )


def test_only_filter(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    assert main(["check", str(proj), "--only", "ViewHolder"]) == EXIT_CLEAN
    assert main(["check", str(proj), "--only", "Recycle,WakeLock"]) == EXIT_FINDINGS


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    assert main(["check", str(proj), "--only", "Nonsense"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope")]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_warnings_go_to_stderr_payload_to_stdout(tmp_path, capsys):
    proj = tmp_path / "proj"
    (proj / "src").mkdir(parents=True)
    (proj / "src" / "Latin.java").write_bytes(b"class A { // caf\xe9 }\n")
    assert main(["check", str(proj), "--format", "json"]) == EXIT_CLEAN
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout must stay machine-readable
    assert "not UTF-8" in captured.err


def test_corpus_command(tmp_path, capsys):
    root = tmp_path / "corpus"
    p1 = root / "alpha" / "src"
    p1.mkdir(parents=True)
    (p1 / "R.java").write_bytes((GOLDEN / "recycle" / "before.java").read_bytes())
    p2 = root / "beta" / "res" / "layout"
    p2.mkdir(parents=True)
    (p2 / "main.xml").write_bytes(
        (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
    )
    out = tmp_path / "summary.csv"
    assert main(["corpus", str(root), "--out", str(out)]) == EXIT_CLEAN
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rule,total_refactorings")
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["Recycle"] == "Recycle,1,1,50,1.0"
    assert rows["ObsoleteLayoutParam"] == "ObsoleteLayoutParam,1,1,50,1.0"
    assert rows["Any"] == "Any,2,2,100,1.0"


def test_corpus_requires_project_directories(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    assert main(["corpus", str(empty), "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE


def test_text_locations_count_bytes_as_lines_and_characters_as_columns(
    tmp_path, capsys
):
    before = (GOLDEN / "wake_lock" / "before.java").read_bytes()
    source = "// é é é é é é é é\n".encode() + before.replace(
        b"        wl.acquire();", "        /* é */ wl.acquire();".encode()
    )
    (tmp_path / "W.java").write_bytes(source)
    recycle = (GOLDEN / "recycle" / "before.java").read_bytes()
    (tmp_path / "Crlf.java").write_bytes(recycle.replace(b"\n", b"\r\n"))
    (tmp_path / "Wide.java").write_bytes(
        recycle.replace(b"TypedArray a", "/* ü€𝄞 */ TypedArray a".encode())
    )
    assert main(["check", str(tmp_path)]) == EXIT_FINDINGS
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" [")[0] for line in lines] == [
        "Crlf.java:3:43:",
        "W.java:16:17:",
        "Wide.java:3:53:",
    ]
    # each text location is the JSON span's start, counted in the file's bytes
    assert main(["check", str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert len(findings) == len(lines)
    for line, finding in zip(lines, findings):
        data = (tmp_path / finding["file"]).read_bytes()
        at = line_col(data, finding["span"]["start"])
        assert line.startswith(f"{finding['file']}:{at[0]}:{at[1]}: "), line


def test_file_input_is_named_by_its_file_name(tmp_path, capsys):
    target = tmp_path / "Recycle.java"
    target.write_bytes((GOLDEN / "recycle" / "before.java").read_bytes())
    assert main(["check", str(target)]) == EXIT_FINDINGS
    assert capsys.readouterr().out.startswith("Recycle.java:3:43: [Recycle]")
    assert main(["check", str(target), "--format", "json"]) == EXIT_FINDINGS
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [f["file"] for f in findings] == ["Recycle.java"]
    patches = tmp_path / "patches"
    assert main(["fix", str(target), "--patch-dir", str(patches)]) == EXIT_FINDINGS
    patch = (patches / "Recycle.java.patch").read_text()
    assert patch.startswith("--- a/Recycle.java\n+++ b/Recycle.java\n")


@pytest.mark.parametrize("command", ["check", "fix"])
def test_file_input_that_is_not_analysed_is_reported(tmp_path, capsys, command):
    target = tmp_path / "README.md"
    target.write_text("# notes\n")
    assert main([command, str(target)]) == EXIT_CLEAN
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"{target}: skipped: not a .java file or a res/layout*/ XML file"
    ]
    assert target.read_text() == "# notes\n"


def test_check_prints_parse_errors(tmp_path, capsys):
    target = tmp_path / "proj" / "src" / "A.java"
    target.parent.mkdir(parents=True)
    target.write_bytes('class A { String s = "ééé"; # int x; }\n'.encode())
    assert main(["check", str(tmp_path / "proj")]) == EXIT_CLEAN
    err = capsys.readouterr().err
    assert f"{target}:1:29: parse error: unexpected character '#'" in err.splitlines()


def test_jobs_is_accepted_and_changes_nothing(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    code = main(["check", str(proj)])
    out = capsys.readouterr().out
    assert main(["check", str(proj), "--jobs", "3"]) == code == EXIT_FINDINGS
    assert capsys.readouterr().out == out


def test_removed_wakelock_guard_flag_is_a_usage_error(tmp_path, capsys):
    proj = _recycle_project(tmp_path)
    assert main(["check", str(proj), "--paper-faithful-wakelock-guard"]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,detail",
    [
        ("# comment\nLinearLayout layout_weight\n", ":2: expected 'ParentTag<TAB>"),
        (None, "No such file"),
    ],
)
def test_bad_layout_table_is_a_usage_error(tmp_path, capsys, content, detail):
    proj = _recycle_project(tmp_path)
    table = tmp_path / "table.tsv"
    if content is not None:
        table.write_text(content)
    args = ["check", str(proj), "--layout-param-table", str(table)]
    assert main(args) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --layout-param-table: "), line
    assert str(table) in line and detail in line, line


def test_corpus_loads_the_layout_table_once(tmp_path, monkeypatch, capsys):
    root = tmp_path / "corpus"
    for name in ("alpha", "beta"):
        layout = root / name / "res" / "layout" / "main.xml"
        layout.parent.mkdir(parents=True)
        layout.write_bytes(
            (GOLDEN / "obsolete_layout_param" / "before.xml").read_bytes()
        )
    table = tmp_path / "params.tsv"
    table.write_text("LinearLayout\tlayout_weight\n")
    loads = []
    real_from_file = LayoutParamTable.from_file.__func__

    def counting(cls, path):
        loads.append(path)
        return real_from_file(cls, path)

    monkeypatch.setattr(LayoutParamTable, "from_file", classmethod(counting))
    out = tmp_path / "summary.csv"
    args = ["corpus", str(root), "--out", str(out), "--layout-param-table", str(table)]
    assert main(args) == EXIT_CLEAN
    assert loads == [table]


@pytest.mark.parametrize(
    "source,column",
    [
        ("class A { void f() { Cursor c = db.query(a]; } }", 43),
        (
            "class M extends Activity { WakeLock wl; void onCreate() {"
            " wl.acquire(); switch (x) { case 1: f(a]; } } }",
            97,
        ),
        (
            "class G extends Activity { WakeLock wl; void onCreate() {"
            " List<f(a]> x; wl.acquire(); } }",
            67,
        ),
    ],
)
def test_unbalanced_call_is_a_parse_error_not_a_crash(tmp_path, capsys, source, column):
    target = tmp_path / "proj" / "src" / "A.java"
    target.parent.mkdir(parents=True)
    target.write_text(source + "\n")
    assert main(["check", str(tmp_path / "proj")]) == EXIT_CLEAN
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{target}:1:{column}: parse error: "), line


@pytest.mark.parametrize(
    "name,source",
    [
        (
            "H.java",
            'class H { void h(Db db) { Cursor c = db.query("z"); c.moveToFirst(); } }\n',
        ),
        (
            "A.java",
            "class A extends Activity { WakeLock wl; void onCreate() { wl.acquire(); } }\n",
        ),
        (
            "A.java",
            "class A extends Activity {\n"
            "    WakeLock wl;\n"
            "    void onCreate() {\n"
            "        wl.acquire();\n"
            "    }\n"
            "    void onPause() { super.onPause(); }\n"
            "}\n",
        ),
        (
            "V.java",
            "class V extends View { void onDraw(Canvas c) "
            "{ Paint p = new Paint(); c.drawRect(r, p); } }\n",
        ),
        (
            "Ad.java",
            "class Ad extends BaseAdapter {\n"
            "    public View getView(int pos, View cv, ViewGroup parent) "
            "{ cv = inf.inflate(R.layout.row, parent, false);\n"
            "        TextView t = (TextView) cv.findViewById(R.id.t);\n"
            "        return cv;\n"
            "    }\n"
            "}\n",
        ),
    ],
    ids=[
        "recycle",
        "wake-lock-new-on-pause",
        "wake-lock-existing-on-pause",
        "draw-allocation",
        "view-holder",
    ],
)
def test_fix_anchor_sharing_its_line_is_declined(tmp_path, capsys, name, source):
    target = tmp_path / "proj" / "src" / name
    target.parent.mkdir(parents=True)
    target.write_text(source)
    assert main(["check", str(tmp_path / "proj")]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "other code shares the line where the fix would go" in out
    assert "(not auto-fixable)" in out
    assert main(["fix", str(tmp_path / "proj")]) == EXIT_FINDINGS
    assert "0 refactoring(s) applied, 1 finding(s) not auto-fixable" in capsys.readouterr().out
    assert target.read_text() == source
