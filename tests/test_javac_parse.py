"""greenlint's Java parser must accept exactly the programs javac's parser
accepts.

Each case is written to its own file, and one parse-only javac call reads
them all: `-XDshould-stop.ifError=PARSE -XDshould-stop.ifNoError=PARSE`
stops it after parsing, and `-XDrawDiagnostics` prints each error as
`Name.java:line:col: key`. The cases are annotated types in `extends`,
`implements` and `throws` lists, a `throws` list holding more than a
qualified name, and `catch` headers. Skipped when no `javac` is on the
path.
"""

import shutil
import subprocess

import pytest

from greenlint.java.parser import parse_java_source

JAVAC = shutil.which("javac")
pytestmark = pytest.mark.skipif(JAVAC is None, reason="javac is not installed")


def _catch(header: str) -> str:
    return f"class C {{ void f() {{ try {{ }} catch ({header}) {{}} }} }}"


CASES = {
    "ExtendsAnnotated": "class X extends @A Y {}",
    "ImplementsAnnotated": "class X implements @A I {}",
    "ThrowsAnnotated": "class X { void g() throws @A E {} }",
    "AllAnnotated": (
        "class X extends @A @B(1) p.Y<String> implements @C I, @D J {"
        " void g() throws @A p.E, F {} }"
    ),
    "ThrowsTypeArguments": "class X { void g() throws E<String> {} }",
    "ThrowsArray": "class X { void g() throws E[] {} }",
    "CatchFinalAnnotatedUnion": _catch("final @A E | F e"),
    "CatchAnnotatedFinal": _catch("@A final E e"),
    "CatchArrayName": _catch("E e[]"),
    "CatchBadTypeArgument": _catch("E<1> e"),
    "CatchStatic": _catch("static E e"),
    "CatchNoName": _catch("E"),
    "CatchUnionNoName": _catch("E | e"),
}


def test_greenlint_accepts_what_javac_parses(tmp_path):
    for name, text in CASES.items():
        (tmp_path / f"{name}.java").write_text(text + "\n")
    result = subprocess.run(
        [
            JAVAC,
            "-XDrawDiagnostics",
            "-XDshould-stop.ifError=PARSE",
            "-XDshould-stop.ifNoError=PARSE",
            *(f"{name}.java" for name in CASES),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    javac_rejects = {
        line.split(".java:", 1)[0] for line in result.stderr.splitlines() if ".java:" in line
    }
    greenlint_rejects = {
        name for name, text in CASES.items() if parse_java_source(text.encode())[1]
    }
    assert greenlint_rejects == javac_rejects, result.stderr
