"""`greenlint fix` must not turn a program javac accepts into one it rejects.

Each program below compiles, and each once drew a rewrite javac rejected:
ViewHolder caching a lookup that reads an earlier cached view, ViewHolder
with a cached local named like its holder variable, a ViewHolder host
that is an inner class (no `static` member class there before Java 16),
DrawAllocation in a `static` onDraw, DrawAllocation on a local whose
type is a class declared inside onDraw, and ViewHolder hosts that are an
enum constant's body (no `static` member class there before Java 16), an
interface's `default` method (no `private` member there) and a class inside
one named like the holder. The Android types are plain-class stubs. Every
`before` is compiled in one `javac --release 8` call, and every `after` in
one call at `--release 8` and one at `--release 17`. Skipped when no
`javac` is on the path.
"""

import shutil
import subprocess

import pytest

from greenlint.cli import main

JAVAC = shutil.which("javac")
pytestmark = pytest.mark.skipif(JAVAC is None, reason="javac is not installed")

STUBS = """\
class View {
    View findViewById(int id) { return null; }
    Object getTag() { return null; }
    void setTag(Object tag) {}
}
class TextView extends View {}
class ViewGroup extends View {}
class LayoutInflater {
    View inflate(int resource, ViewGroup root, boolean attach) { return null; }
}
class BaseAdapter {
    public View getView(int position, View convertView, ViewGroup parent) { return null; }
}
class R {
    static class id { static final int box = 1, name = 2; }
    static class layout { static final int row = 3; }
}
class Canvas {
    void drawRect(Rect r, Object paint) {}
}
class Rect {
    Rect() {}
    Rect(int left, int top, int right, int bottom) {}
}
"""


def _adapter(name: str, lookups: str) -> str:
    return (
        f"class {name} extends BaseAdapter {{\n"
        "    LayoutInflater inf;\n\n"
        "    @Override\n"
        "    public View getView(int position, View convertView, ViewGroup parent) {\n"
        "        convertView = inf.inflate(R.layout.row, parent, false);\n"
        f"{lookups}"
        "        return convertView;\n"
        "    }\n"
        "}\n"
    )


def _nested(name: str, member: str) -> str:
    """Class ``name`` holding ``member``, indented one step."""
    lines = member.splitlines(keepends=True)
    return f"class {name} {{\n" + "".join(f"    {l}" if l.strip() else l for l in lines) + "}\n"


PROGRAMS = {
    "LookupReadsLookup": _adapter(
        "LookupReadsLookup",
        "        View box = convertView.findViewById(R.id.box);\n"
        "        TextView t = (TextView) box.findViewById(R.id.name);\n",
    ),
    "HolderVariableTaken": _adapter(
        "HolderVariableTaken",
        "        TextView viewHolderItem = (TextView) convertView.findViewById(R.id.name);\n",
    ),
    "InnerAdapterHost": _nested(
        "InnerAdapterHost",
        _adapter("Adapter", "        TextView t = (TextView) convertView.findViewById(R.id.name);\n"),
    ),
    "StaticOnDraw": (
        "class StaticOnDraw {\n"
        "    static class Helper {\n"
        "        static void onDraw(Canvas canvas) {\n"
        "            Rect r = new Rect(0, 0, 10, 10);\n"
        "            canvas.drawRect(r, null);\n"
        "        }\n"
        "    }\n"
        "}\n"
    ),
    "LocalClassType": (
        "class LocalClassType {\n"
        "    void onDraw(Canvas canvas) {\n"
        "        class Box extends Rect {}\n"
        "        Box r = new Box();\n"
        "        canvas.drawRect(r, null);\n"
        "    }\n"
        "}\n"
    ),
    "EnumConstantBody": (
        "enum EnumConstantBody {\n"
        "    ONE {\n"
        "        LayoutInflater inf;\n\n"
        "        @Override\n"
        "        public View getView(int position, View convertView, ViewGroup parent) {\n"
        "            convertView = inf.inflate(R.layout.row, parent, false);\n"
        "            TextView t = (TextView) convertView.findViewById(R.id.name);\n"
        "            return convertView;\n"
        "        }\n"
        "    };\n\n"
        "    public View getView(int position, View convertView, ViewGroup parent) {\n"
        "        return convertView;\n"
        "    }\n"
        "}\n"
    ),
    "InterfaceDefault": (
        "interface InterfaceDefault {\n"
        "    LayoutInflater inflater();\n\n"
        "    default View getView(int position, View convertView, ViewGroup parent) {\n"
        "        convertView = inflater().inflate(R.layout.row, parent, false);\n"
        "        TextView t = (TextView) convertView.findViewById(R.id.name);\n"
        "        return convertView;\n"
        "    }\n"
        "}\n"
    ),
    "ViewHolderItem": _nested(
        "ViewHolderItem",
        _adapter("Row", "        TextView t = (TextView) convertView.findViewById(R.id.name);\n"),
    ),
}


def _javac(tmp_path, side: str, release: str = "8") -> subprocess.CompletedProcess:
    sources = [str(tmp_path / "Stubs.java")]
    sources += sorted(str(p) for p in (tmp_path / side).glob("*.java"))
    out = tmp_path / "classes" / side / release
    return subprocess.run(
        [JAVAC, "--release", release, "-nowarn", "-d", str(out), *sources],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_fixed_programs_still_compile(tmp_path):
    (tmp_path / "Stubs.java").write_text(STUBS)
    for side in ("before", "after"):
        (tmp_path / side).mkdir()
        for name, text in PROGRAMS.items():
            (tmp_path / side / f"{name}.java").write_text(text)
    main(["fix", str(tmp_path / "after")])
    after = {name: (tmp_path / "after" / f"{name}.java").read_text() for name in PROGRAMS}
    # the families a fix still applies to were rewritten
    for name in (
        "HolderVariableTaken", "InnerAdapterHost", "EnumConstantBody", "InterfaceDefault",
        "ViewHolderItem",
    ):
        assert after[name] != PROGRAMS[name], name

    before = _javac(tmp_path, "before")
    assert before.returncode == 0, before.stderr
    for release in ("8", "17"):
        compiled = _javac(tmp_path, "after", release)
        assert compiled.returncode == 0, compiled.stderr + "".join(after.values())
