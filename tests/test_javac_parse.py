"""greenlint's Java parser must accept exactly the programs javac's parser
accepts.

Each program is written to its own file, and one parse-only javac call
reads them all: `-XDshould-stop.ifError=PARSE -XDshould-stop.ifNoError=PARSE`
stops it after parsing, and `-XDrawDiagnostics` prints each error as
`Name.java:line:col: key`. The hand-written cases are annotated types,
`throws` lists, `catch` headers, the modifiers of declaration heads, the
statements that may not be declarations, type arguments and type
parameters, in declarations and in expressions, and the shapes of
expressions, casts, lambdas, switch bodies and `for` headers. The mutants
are seeded single-token damage to the Java fixtures; where javac's parser
accepts one, so must it the file `fix` makes of it, where it rejects one,
`fix` should leave it alone, and where both parsers reject one, the pinned
count of first diagnostics at javac's line and column may not fall.
Skipped when no `javac` is on the path.
"""

import random
import shutil
import subprocess
from pathlib import Path

import pytest

from greenlint.cli import main
from greenlint.java.lexer import tokenize
from greenlint.java.parser import parse_java_source

from conftest import FIXTURES

JAVAC = shutil.which("javac")
pytestmark = pytest.mark.skipif(JAVAC is None, reason="javac is not installed")


def _javac_rejects(directory: Path, sources: dict[str, bytes]) -> tuple[set[str], str]:
    """Write each source to ``directory`` as ``<name>.java`` and parse them
    all in one parse-only javac call; returns the names javac reports an
    error for, and its stderr."""
    for name, data in sources.items():
        (directory / f"{name}.java").write_bytes(data)
    result = subprocess.run(
        [
            JAVAC,
            "-XDrawDiagnostics",
            "-XDshould-stop.ifError=PARSE",
            "-XDshould-stop.ifNoError=PARSE",
            "-Xmaxerrs",
            str(10 * len(sources)),
            *(f"{name}.java" for name in sources),
        ],
        cwd=directory,
        capture_output=True,
        text=True,
    )
    lines = result.stderr.splitlines()
    return {line.split(".java:", 1)[0] for line in lines if ".java:" in line}, result.stderr


def _greenlint_rejects(sources: dict[str, bytes]) -> set[str]:
    return {name for name, data in sources.items() if parse_java_source(data)[1]}


def _catch(header: str) -> str:
    return f"class C {{ void f() {{ try {{ }} catch ({header}) {{}} }} }}"


def _block(statement: str) -> str:
    return f"class C {{ void f() {{ {statement} }} }}"


def _body(statement: str) -> str:
    return f"class C {{ void f(boolean b) {{ {statement} }} }}"


_MODIFIERS = "public protected private static native transient volatile final abstract strictfp"

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
    "CatchFinalFinal": _catch("final final E e"),
    # a type annotation may follow each `.` of a type's name, but not of a
    # package, import or annotation name
    "FieldQualifiedAnnotated": "class X { Y.@A Z f; }",
    "ExtendsQualifiedAnnotated": "class X extends Y.@A Z implements I.@B @C J {}",
    "ThrowsQualifiedAnnotated": "class X { void g() throws @A E.@B F {} }",
    "CatchQualifiedAnnotated": _catch("Y.@A Z e"),
    "ParamQualifiedAnnotated": "class X { void g(final Y.@A Z z) {} }",
    "LocalQualifiedAnnotated": _block("Y.@A Z z = null; final a.@A b.@B(1) C c;"),
    "InnerQualifiedAnnotated": "class X { Outer<A>.@B Inner<C> f; }",
    "ImportQualifiedAnnotated": "import a.@A b; class X {}",
    "PackageQualifiedAnnotated": "package a.@A b;",
    "AnnotationQualifiedAnnotated": "@a.@B C class X {}",
    # the first modifier of a declaration in a block decides: `final`,
    # `abstract`, `strictfp` or an annotation start one, and then any
    # modifier may follow; a local variable cannot start with `abstract` or
    # `strictfp`, and a leading `default` is orphaned
    **{f"Local{m.title()}Variable": _block(f"{m} int x = 1;") for m in _MODIFIERS.split()},
    **{f"Local{m.title()}Class": _block(f"{m} class Q {{}}") for m in _MODIFIERS.split()},
    "LocalDefaultVariable": _block("default int x = 1;"),
    "LocalDefaultClass": _block("default class Q {}"),
    "LocalFinalStaticVariable": _block("final static int x = 1;"),
    "LocalAnnotatedPublicClass": _block("@A public class Q {}"),
    "LocalAnnotatedAnnotationType": _block("@A @interface Q {}"),
    "LocalFinalFinal": _block("final final int x = 1;"),
    "FieldStaticStatic": "class C { static static int x; }",
    # the body of `if`, `else`, a loop or a label is no declaration
    "IfVariable": _body("if (b) int y = 1;"),
    "IfFinalVariable": _body("if (b) final int y = 1;"),
    "IfAnnotatedVariable": _body("if (b) @A int y = 1;"),
    "ForVariable": _body("for (;;) int y = 1;"),
    "DoVariable": _body("do int y = 1; while (b);"),
    "ElseVariable": _body("if (b) ; else int y;"),
    "ForEachVariable": _body("for (String s : x) int y;"),
    "LabeledVariable": _body("L: int x = 1;"),
    "IfClass": _body("if (b) class Q {}"),
    "IfFinalClass": _body("if (b) final class Q {}"),
    "IfEnum": _body("if (b) enum E {}"),
    "IfAnnotationType": _body("if (b) @interface Q {}"),
    "LabeledClass": _body("L: class Q {}"),
    "WhileClass": _body("while (b) class Q {}"),
    "IfBlockVariable": _body("if (b) { int y = 1; }"),
    "LabeledBlockVariable": _body("L: { int x; }"),
    "LabeledLabeled": _body("L: M: x++;"),
    "IfElseExpressions": _body("if (b) x = 1; else y();"),
    # the type arguments of `new T<...>(` and `a.<...>f()` hold types only
    "NewNumberTypeArgument": "class C { Object o = new java.util.ArrayList<1>(); }",
    "CallNumberTypeArgument": _block("java.util.Collections.<1>emptyList();"),
    "NewSumTypeArgument": _block("g(new java.util.ArrayList<1 + 2>());"),
    "NewInnerNumberTypeArgument": _block("new Outer<A>.Inner<1>();"),
    "NewInHeaderNumberTypeArgument": _block("if (new ArrayList<1>() == null) {}"),
    "NewDiamond": _block("Object o = new ArrayList<>();"),
    "NewAnnotatedArrayTypeArgument": _block("Object o = new HashMap<String, @A int[]>();"),
    "CallTypeArguments": _block("Object o = Collections.<String, Integer>emptyMap();"),
    "NewWildcardTypeArgument": _block("Object o = new ArrayList<? extends Number>();"),
    "CallArrayTypeArgument": _block("this.<int[]>f();"),
    "NewInnerTypeArguments": _block("Object o = new Outer<A>.Inner<B>();"),
    "NewConstructorTypeArguments": _block("Object o = new <T>Foo(1);"),
    "NewConstructorNumberTypeArgument": _block("Object o = new <1>Foo(1);"),
    "NewAnnotated": _block("Object o = new @A Foo(1);"),
    # type arguments and type parameters, read by their grammar
    "UnclosedTypeArguments": _block("List<String x;"),
    "TrailingCommaTypeArgument": _block("Map<String,> m;"),
    "DiamondInDeclaration": _block("List<> x;"),
    "WildcardNoBound": _block("List<? extends> x;"),
    "EmptyTypeParameters": "class C<> {}",
    "TrailingCommaTypeParameter": "class C { <T,> void f() {} }",
    "TrailingAmpersandBound": "class C { <T extends A & > void f() {} }",
    "CallDiamond": _block("a.<>f();"),
    "NewConstructorDiamond": _block("new <>A();"),
    "LessThanStatement": _block("a < b;"),
    "ExtraClosingAngle": _block("List<String>> x;"),
    "UnclosedInnerTypeArguments": _block("List<A<B> x = null;"),
    "TypeArgumentsThenCall": _block("Foo<String>.bar();"),
    "PrimitiveTypeArgument": _block("List<int> x;"),
    "SuperAnnotatedBound": _block("List<? super @A B> x;"),
    "NewDiamondControl": _block("Object o = new ArrayList<>();"),
    "QualifiedGenericLocal": _block("a.b<c> d;"),
    "GenericLocalNoSpaces": _block("a<b>c;"),
    "GenericArrayLocal": _block("List<String>[] x;"),
    "IntersectionBoundTypeParameters": "class C { <T extends A & B, U> void f() {} }",
    "ArrayClassLiteralCall": _block("String[].class.getName();"),
    "AnnotatedDimsTypeArgument": _block("List<String @A []> x;"),
    "AnnotatedDimsField": "class C { String @A [] f; int g() @B [] { return null; } }",
    # after the type of a `new` only its `(`, or a `[` after annotations
    "NewNoArguments": _block("Object o = new A;"),
    "NewExtraClosingAngle": _block("new A<B>>();"),
    "NewPrimitiveNoDims": _block("Object o = new int;"),
    "NewPrimitiveArguments": _block("Object o = new int();"),
    "NewAnnotatedArguments": _block("Object o = new A @B ();"),
    "NewAnnotatedNoDims": _block("Object o = new int @A;"),
    "NewDiamondNoArguments": _block("Object o = new A<>;"),
    "NewAnnotatedDims": _block("Object o = new String @A [5];"),
    "NewNoType": _block("Object o = new {1};"),
    "NewAnnotatedNoType": _block("Object o = new @A { };"),
    "ConstructorReferences": _block("g(A::new, int[]::new, A::<T>new);"),
    # explicit type arguments take no wildcard; a primitive type none
    "CallWildcardTypeArgument": _block("a.<?>f();"),
    "NewConstructorWildcardTypeArgument": _block("new <?>A();"),
    "PrimitiveTypeArguments": _block("int<String> x;"),
    "PrimitiveLessThan": _block("int < 3;"),
    "PrimitiveClassLiteral": _block("int.class.getName();"),
    "PrimitiveArrayClassLiteral": _block("int[].class.getName();"),
    # annotations may come before a varargs `...`, not before a name
    "VarargsAnnotated": "class C { void f(String @A ... a) {} }",
    "ParameterAnnotatedName": "class C { void f(String @A a) {} }",
    # expressions, read by their grammar: operands and operators alternate
    "AssignmentTwice": _block("x = = 1;"),
    "EmptyArgument": _block("g(1, , 2);"),
    "TrailingCommaArgument": _block("g(1, );"),
    "NameStatement": _block("x;"),
    "ParenthesizedCall": _block("(f());"),
    "TypeNameName": _block("int x y;"),
    "TypeName": _block("a b;"),
    "NewVoidArray": _block("Object o = new void[1];"),
    "NewTypeArgumentsPrimitiveArray": _block("Object o = new <T>int[5];"),
    "NewParenthesized": _block("Object o = new (1);"),
    "CallThenBody": _block("o = new A().b() { };"),
    "GenericTypeMethodReferences": _block(
        "g(java.util.List<String>::size, int[]::clone, A::<T>new, Map.Entry<K, V>::getKey);"
    ),
    "SwitchExpressionYield": _block(
        "int y = switch (k) { case 1, 2 -> 1; default -> { yield 2; } };"
        " int z = switch (k) { case 1: yield 1; default: yield 2; };"
    ),
    "SwitchStatementArrowValue": _block("switch (k) { case 1 -> 5; }"),
    "InstanceofFinalPattern": _block("if (x instanceof final String s) {}"),
    "InstanceofFinalNoName": _block("if (x instanceof final String) {}"),
    "IntersectionCastLambda": _block("Object o = (Runnable & java.io.Serializable) () -> {};"),
    "QualifiedNew": _block("Object o = a.new B();"),
    "TypeArgumentsThisCall": 'class C { C() { <String>this(""); } C(String s) {} }',
    "ShiftAssignments": _block("i >>>= 1; i >>= 2; j = i >> 3 >>> 4;"),
    "PrimitiveCastUnaryPlus": _block("int i = (int) +1;"),
    "NameCastUnaryPlus": _block("Object o = (Integer) +1;"),
    "MethodReferencesCompared": _block("b = A::m < c; b = x > List<String>::size;"),
    "BlockLambdaThenOperator": _block("g(() -> {} == null, (a) -> { } + 1, x ? () -> {} : null);"),
    "YieldPrimitiveClass": _block("int y = switch (k) { default -> { yield int.class; } };"),
    "CastsAndLambdas": _block(
        "f((a) -> a, (int a, int b) -> a, (a, b) -> { return; }, (List<String>) x, (A[]) y,"
        " (a) + b, (a) - b, (String) (x), (Map<K, V>) m, (@A String s) -> s);"
    ),
    # the declarations of a `for` header, a lambda body and a switch body
    "ForEachBadTypeArgument": _block("for (List<1> x : y) {}"),
    "ForEachFinalFinal": _block("for (final final int x : y) {}"),
    "ForEachStatic": _block("for (static int x : y) {}"),
    "ForEachInitialized": _block("for (int x = 1 : y) {}"),
    "LambdaFinalFinal": _block("Runnable r = () -> { final final int x = 1; };"),
    "CaseFinalFinal": _block("switch (k) { case 1: final final int x = 1; }"),
    "TryResources": _block("try (final A a = f(); B b = g(); c; this.d;) {}"),
    "TryResourceNoInitializer": _block("try (A a) {}"),
    "AnnotationElementValues": '@A(x = 1, y = {"a", @B}) @C(-1) @D({}) class C {}',
    "AnnotationTrailingComma": "@A(x = 1,) class C {}",
}


def test_greenlint_accepts_what_javac_parses(tmp_path):
    sources = {name: (text + "\n").encode() for name, text in CASES.items()}
    javac_rejects, stderr = _javac_rejects(tmp_path, sources)
    assert _greenlint_rejects(sources) == javac_rejects, stderr


def _mutants() -> dict[str, bytes]:
    """Seeded damage to every Java fixture: 25 single-token deletions, then
    10 single-token duplications (the copy after a space), per file."""
    rng = random.Random(7)
    mutants = {}
    for path in sorted(FIXTURES.rglob("*.java")):
        data = path.read_bytes()
        tokens = tokenize(data)
        for n in range(35):
            k = rng.randrange(len(tokens))
            lo, hi = tokens.starts[k], tokens.ends[k]
            mutant = data[:lo] + data[hi:] if n < 25 else data[:hi] + b" " + data[lo:]
            mutants[f"M{len(mutants)}"] = mutant
    return mutants


# Mutants that javac's parser rejects and greenlint parses. Lower the pin
# when a change makes greenlint reject more of them; it may not rise.
ACCEPTED_THAT_JAVAC_REJECTS = 0

# Mutants that both parsers reject where greenlint's first diagnostic has
# javac's first line and column. Raise the pin when a change places more of
# them as javac does; it may not fall.
LOCATED_AS_JAVAC = 469

# Mutants that javac's parser rejects and one `fix` run over all of them, as
# one project, rewrites: each is a rewrite of a file that is not Java. Lower
# the pin when a change rewrites fewer of them; it may not rise.
REWRITTEN_THAT_JAVAC_REJECTS = 0


@pytest.fixture(scope="module")
def mutants_and_javac_rejects(tmp_path_factory) -> tuple[dict[str, bytes], set[str], str]:
    """The mutants, the names of those javac's parser rejects, and its stderr."""
    mutants = _mutants()
    return mutants, *_javac_rejects(tmp_path_factory.mktemp("mutants"), mutants)


def test_mutated_fixtures_parse_where_javac_parses_them(mutants_and_javac_rejects):
    mutants, javac_rejects, stderr = mutants_and_javac_rejects
    assert len(mutants) == 910
    greenlint_rejects = _greenlint_rejects(mutants)
    assert greenlint_rejects - javac_rejects == set(), stderr
    assert len(javac_rejects - greenlint_rejects) == ACCEPTED_THAT_JAVAC_REJECTS


def test_first_diagnostics_of_mutants_are_where_javac_puts_them(mutants_and_javac_rejects):
    mutants, javac_rejects, stderr = mutants_and_javac_rejects
    javac_first: dict[str, str] = {}
    for line in stderr.splitlines():
        name, sep, rest = line.partition(".java:")
        if sep and name in mutants:
            javac_first.setdefault(name, ":".join(rest.split(":", 2)[:2]))
    located = 0
    for name in javac_rejects:
        diags = parse_java_source(mutants[name])[1]
        located += bool(diags) and f"{diags[0].line}:{diags[0].column}" == javac_first[name]
    assert located == LOCATED_AS_JAVAC


def test_fix_keeps_the_mutants_javac_parses_parseable(mutants_and_javac_rejects, tmp_path, capsys):
    mutants, javac_rejects, _ = mutants_and_javac_rejects
    parsed = {name: data for name, data in mutants.items() if name not in javac_rejects}
    project = tmp_path / "project"
    project.mkdir()
    for name, data in parsed.items():
        (project / f"{name}.java").write_bytes(data)
    main(["fix", str(project)])
    capsys.readouterr()
    fixed = {name: (project / f"{name}.java").read_bytes() for name in parsed}
    fixed = {name: data for name, data in fixed.items() if data != parsed[name]}
    assert fixed  # else the test shows nothing
    rejects, stderr = _javac_rejects(tmp_path, fixed)
    assert rejects == set(), stderr


def test_fix_rewrites_few_of_the_mutants_javac_rejects(mutants_and_javac_rejects, tmp_path, capsys):
    mutants, javac_rejects, _ = mutants_and_javac_rejects
    project = tmp_path / "project"
    project.mkdir()
    for name in javac_rejects:
        (project / f"{name}.java").write_bytes(mutants[name])
    main(["fix", str(project)])
    capsys.readouterr()
    rewritten = [n for n in javac_rejects if (project / f"{n}.java").read_bytes() != mutants[n]]
    assert len(rewritten) == REWRITTEN_THAT_JAVAC_REJECTS
