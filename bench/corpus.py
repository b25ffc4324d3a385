"""Seeded known-answer corpora for the greenlint benchmark.

A corpus is composed from three kinds of pieces:

* planted smells: the class (or layout element) blocks of the golden
  ``before`` fixtures, renamed so that each one is unique, with the matching
  golden ``after`` block as the reference rewrite;
* near-misses: the clean-corpus inputs, which no rule may flag;
* filler: generated classes with fields, loops, branches, literals and
  comments that no rule matches.

Every file records the byte range of each planted block in its original
bytes, its per-rule counts, and the reference bytes a correct ``fix``
produces. The answers come from the fixtures and from the composition
itself, never from running greenlint. File-wide style (indent width, line
endings) is applied piece by piece, identically to the ``before`` and
``after`` text, so the recorded offsets stay exact.

The same (workload, seed) pair always gives the same bytes. Different seeds
give corpora of the same shape and nearly the same size, so runs on
different seeds can be compared.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"
GOLDEN = FIXTURES / "golden"
CLEAN = FIXTURES / "clean_corpus"

JAVA_RULES = ("ViewHolder", "DrawAllocation", "WakeLock", "Recycle")
XML_RULE = "ObsoleteLayoutParam"
RULES = JAVA_RULES + (XML_RULE,)

_GOLDEN_DIR = {
    "ViewHolder": "view_holder",
    "DrawAllocation": "draw_allocation",
    "WakeLock": "wake_lock",
    "Recycle": "recycle",
    "ObsoleteLayoutParam": "obsolete_layout_param",
}

# The local each golden block declares, and the names it may be renamed to
# (the identifier axis of the idempotence mutations). Both sides of a block
# get the same rename.
_LOCAL_RENAMES = {
    "ViewHolder": ("t", ("t", "title", "caption", "label")),
    "DrawAllocation": ("i", ("i", "cachedValue", "boxed")),
    "WakeLock": ("wl", ("wl", "screenLock", "lock")),
    "Recycle": ("a", ("a", "styled", "attrsArray")),
}

# Clean layouts whose root is a LinearLayout: their children become
# near-miss children inside composed layouts.
_LINEAR_CHILD_SOURCES = (
    "include_tag.xml",
    "linear_weight.xml",
    "margins.xml",
    "nested_ok.xml",
    "tools_attrs.xml",
)

_WORDS = (
    "account badge buffer cache cell column cursor delta entry frame glyph "
    "index ledger margin marker offset page pixel queue radius record row "
    "scroll signal slot span tile token track vector widget window"
).split()


@dataclass(frozen=True)
class Planted:
    """One planted smell: its rule and byte range [start, end) in ``before``."""

    rule: str
    start: int
    end: int


@dataclass
class SourceFile:
    path: str  # posix, relative to the project root
    before: bytes
    after: bytes  # reference bytes after a correct fix
    planted: list[Planted] = field(default_factory=list)

    @property
    def language(self) -> str:
        return "java" if self.path.endswith(".java") else "xml"

    def counts(self) -> Counter:
        return Counter(p.rule for p in self.planted)


@dataclass
class Project:
    name: str
    files: list[SourceFile]  # files greenlint must analyse
    extras: dict[str, bytes] = field(default_factory=dict)  # must be ignored


@dataclass
class Corpus:
    workload: str
    seed: int
    projects: list[Project]

    def files(self) -> Iterator[tuple[Project, SourceFile]]:
        for project in self.projects:
            for f in project.files:
                yield project, f

    def base(self, root: Path, project: Project) -> Path:
        """Where ``project`` lives when the corpus is written to ``root``:
        ``root`` itself for a single project, else one directory each."""
        return root if len(self.projects) == 1 else root / project.name

    def write(self, root: Path) -> None:
        """Write every project's input files and extras under ``root``."""
        for project in self.projects:
            entries = [(f.path, f.before) for f in project.files]
            for rel, data in entries + sorted(project.extras.items()):
                target = self.base(root, project) / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)

    def stats(self) -> dict:
        java = [f for _, f in self.files() if f.language == "java"]
        xml = [f for _, f in self.files() if f.language == "xml"]
        size = sum(len(f.before) for f in java + xml)
        return {
            "projects": len(self.projects),
            "files": len(java) + len(xml),
            "java_files": len(java),
            "xml_files": len(xml),
            "kb": size / 1024,
            "java_kb": sum(len(f.before) for f in java) / 1024,
            "planted": sum(len(f.planted) for f in java + xml),
        }


_SRC = "app/src/main/java"
_RES = "app/src/main/res"


# --- composition -----------------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    before: str
    after: str
    rule: Optional[str] = None


def _same(text: str) -> _Piece:
    return _Piece(text, text)


def _rename(text: str, old: str, new: str) -> str:
    return re.sub(rf"\b{re.escape(old)}\b", new, text)


def _halve_indent(text: str) -> str:
    out = []
    for line in text.split("\n"):
        stripped = line.lstrip(" ")
        depth, rest = divmod(len(line) - len(stripped), 4)
        out.append("  " * depth + " " * rest + stripped)
    return "\n".join(out)


def _style(rng: random.Random) -> Callable[[str], str]:
    """A file-wide style: 4- or 2-space indent, LF or CRLF line endings."""
    halve = rng.random() < 0.25
    crlf = rng.random() < 0.15

    def apply(text: str) -> str:
        if halve:
            text = _halve_indent(text)
        if crlf:
            text = text.replace("\n", "\r\n")
        return text

    return apply


def _compose(path: str, pieces: list[_Piece], style: Callable[[str], str]) -> SourceFile:
    before = bytearray()
    after = bytearray()
    planted = []
    for piece in pieces:
        b = style(piece.before).encode("utf-8")
        if piece.rule is not None:
            planted.append(Planted(piece.rule, len(before), len(before) + len(b)))
        before += b
        after += style(piece.after).encode("utf-8")
    return SourceFile(path, bytes(before), bytes(after), planted)


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


class _Names:
    """Per-corpus unique suffixes, so renamed classes never collide."""

    def __init__(self) -> None:
        self.n = 0

    def next(self) -> int:
        self.n += 1
        return self.n


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def _camel(rng: random.Random, parts: int = 2) -> str:
    return "".join(_word(rng).capitalize() for _ in range(parts))


# --- Java pieces -----------------------------------------------------------


def _unpublic(text: str) -> str:
    # One public top-level class per file: the filler class named after it.
    return text[len("public "):] if text.startswith("public ") else text


def _golden_class(rule: str, rng: random.Random, names: _Names) -> _Piece:
    folder = GOLDEN / _GOLDEN_DIR[rule]
    before = _unpublic(_read(folder / "before.java"))
    after = _unpublic(_read(folder / "after.java"))
    cls = re.search(r"class (\w+)", before).group(1)
    new_cls = f"{cls}{names.next()}"
    old_local, choices = _LOCAL_RENAMES[rule]
    new_local = rng.choice(choices)
    before = _rename(_rename(before, cls, new_cls), old_local, new_local)
    after = _rename(_rename(after, cls, new_cls), old_local, new_local)
    return _Piece(before, after, rule)


def _near_miss_class(rng: random.Random, names: _Names) -> _Piece:
    source = rng.choice(sorted((CLEAN / "src").glob("*.java")))
    text = _unpublic(_read(source))
    return _same(_rename(text, source.stem, f"{source.stem}{names.next()}"))


def _javadoc(rng: random.Random, indent: str) -> list[str]:
    return [
        f"{indent}/**",
        f"{indent} * Keeps the {_word(rng)} {_word(rng)} state for the "
        f"{_word(rng)} screen.",
        f"{indent} * <p>Values are clamped to the {_word(rng)} range (± "
        f"{rng.randint(2, 99)}).",
        f"{indent} */",
    ]


def _method_loops(rng: random.Random, name: str) -> list[str]:
    return [
        f"    public int {name}(int count, String text) {{",
        "        int total = 0;",
        "        for (int j = 0; j < count; j++) {",
        "            if (j % 3 == 0) {",
        "                total += table[j % table.length];",
        "            } else if (text != null && text.length() > j) {",
        f"                total -= text.charAt(j) == '{rng.choice('abxyz')}' ? 1 : 2;",
        "            } else {",
        f"                total ^= 0x{rng.randrange(16 ** 4):04x};",
        "            }",
        "        }",
        f"        while (total > LIMIT * {rng.randint(2, 9)}) {{",
        "            total = total / 2 - 1; // halve until in range",
        "        }",
        "        return total;",
        "    }",
    ]


def _method_strings(rng: random.Random, name: str) -> list[str]:
    w1, w2 = _word(rng), _word(rng)
    return [
        f"    /* Formats the {w1} label; keeps the \"{w2}\" prefix. */",
        f"    String {name}(int code) {{",
        "        StringBuilder sb = new StringBuilder(label);",
        "        switch (code) {",
        "            case 0:",
        f"                sb.append(\"{w1}\\t\\\"empty\\\"\");",
        "                break;",
        "            case 1:",
        f"                sb.append(\"café → {w2}\");",
        "                break;",
        "            default:",
        "                sb.append(code < 0 ? \"neg\" : String.valueOf(code));",
        "        }",
        f"        char sep = '{rng.choice([',', ';', ':'])}';",
        "        return sb.append(sep).append(counter).toString();",
        "    }",
    ]


def _method_errors(rng: random.Random, name: str) -> list[str]:
    return [
        f"    long {name}(String digits) throws IllegalStateException {{",
        "        long parsed = -1L;",
        "        try {",
        "            parsed = Long.parseLong(digits.trim());",
        "        } catch (NumberFormatException e) {",
        f"            parsed = {rng.randint(1, 9999)}L;",
        "        } finally {",
        "            counter++;",
        "        }",
        "        int attempts = 0;",
        "        do {",
        f"            parsed = parsed * 31 + {rng.randint(1, 97)};",
        "            attempts += 1;",
        f"        }} while (parsed % {rng.randint(3, 11)} != 0 && attempts < LIMIT);",
        f"        float ratio = {rng.randint(1, 9)}.{rng.randint(0, 99)}f * attempts;",
        f"        double scale = {rng.randint(1, 9)}.5e{rng.randint(1, 3)};",
        "        return parsed + (long) (ratio / scale);",
        "    }",
    ]


def _method_collections(rng: random.Random, name: str) -> list[str]:
    return [
        "    @SuppressWarnings(\"unchecked\")",
        f"    public List<String> {name}(Map<String, Integer> weights) {{",
        "        List<String> items = new ArrayList<>();",
        "        for (Map.Entry<String, Integer> entry : weights.entrySet()) {",
        f"            if (entry.getValue() > {rng.randint(0, 50)}) {{",
        "                items.add(entry.getKey());",
        "            }",
        "        }",
        "        items.removeIf(s -> s.isEmpty());",
        "        Collections.sort(items, new Comparator<String>() {",
        "            @Override",
        "            public int compare(String x, String y) {",
        "                return x.length() - y.length();",
        "            }",
        "        });",
        "        synchronized (this) {",
        "            counter += items.size();",
        "        }",
        "        return items;",
        "    }",
    ]


_METHODS = (_method_loops, _method_strings, _method_errors, _method_collections)


def _filler_class(
    rng: random.Random, name: str, target: int, public: bool = False
) -> _Piece:
    """A class of roughly ``target`` bytes that no rule matches."""
    lines = _javadoc(rng, "") + [
        f"{'public ' if public else ''}class {name} {{",
        f"    private static final String TAG = \"{name}\";",
        f"    private static final int LIMIT = {rng.randint(16, 512)};",
        f"    private final int[] table = new int[{rng.randint(4, 64)}];",
        f"    private String label = \"{_word(rng)} {_word(rng)}\";",
        "    private long counter;",
        "",
        f"    {name}(int seed) {{",
        "        // prime the lookup table",
        "        for (int i = 0; i < table.length; i++) {",
        f"            table[i] = (seed * 31 + i) % {rng.randint(7, 1021)};",
        "        }",
        "    }",
    ]
    size = sum(len(line) + 1 for line in lines)
    k = 0
    while size < target:
        k += 1
        method = rng.choice(_METHODS)(rng, f"{_word(rng)}{k}")
        body = [""] + _javadoc(rng, "    ") + method
        lines += body
        size += sum(len(line) + 1 for line in body)
    if rng.random() < 0.3:
        lines += [
            "",
            "    enum Mode {",
            f"        {_word(rng).upper()}, {_word(rng).upper()}_ALT, NONE",
            "    }",
        ]
    lines.append("}")
    return _same("\n".join(lines) + "\n")


_JAVA_HEADER_IMPORTS = (
    "android.app.Activity",
    "android.content.Context",
    "android.view.View",
    "android.widget.ArrayAdapter",
    "java.util.ArrayList",
    "java.util.Collections",
    "java.util.Comparator",
    "java.util.List",
    "java.util.Map",
)


def _java_file(
    rng: random.Random,
    names: _Names,
    package: str,
    smells: list[str],
    near_misses: int,
    target: int,
) -> SourceFile:
    """A Java file of about ``target`` bytes holding ``smells`` (golden
    blocks, in random order among the other classes) and near-misses."""
    stem = _camel(rng) + str(names.next())
    header = _same(
        f"package {package};\n\n"
        + "".join(f"import {imp};\n" for imp in _JAVA_HEADER_IMPORTS)
        + "\n"
    )
    blocks = [_golden_class(rule, rng, names) for rule in smells]
    blocks += [_near_miss_class(rng, names) for _ in range(near_misses)]
    fixed = len(header.before) + sum(len(b.before) + 1 for b in blocks)
    remaining = max(target - fixed, 0)
    main_class = _filler_class(rng, stem, remaining * 2 // 3, public=True)
    blocks.append(_filler_class(rng, _camel(rng) + str(names.next()), remaining // 3))
    rng.shuffle(blocks)
    pieces = [header, main_class]
    for block in blocks:
        pieces += [_same("\n"), block]
    path = f"{_SRC}/{package.replace('.', '/')}/{stem}.java"
    return _compose(path, pieces, _style(rng))


# --- layout pieces ---------------------------------------------------------


def _children(text: str) -> str:
    """The child elements of a single-root layout, as whole lines."""
    lines = text.split("\n")
    open_end = next(i for i, line in enumerate(lines) if line.rstrip().endswith(">"))
    close = max(i for i, line in enumerate(lines) if line.startswith("</"))
    return "".join(line + "\n" for line in lines[open_end + 1 : close])


def _golden_child(rng: random.Random, names: _Names) -> _Piece:
    folder = GOLDEN / _GOLDEN_DIR[XML_RULE]
    before = _children(_read(folder / "before.xml"))
    after = _children(_read(folder / "after.xml"))
    new_id = f"@+id/{_word(rng)}{names.next()}"
    tag = rng.choice(("TextView", "ImageView", "Button"))
    before = _rename(_rename(before, "@+id/name", new_id), "TextView", tag)
    after = _rename(_rename(after, "@+id/name", new_id), "TextView", tag)
    return _Piece(before, after, XML_RULE)


def _near_miss_child(rng: random.Random) -> _Piece:
    name = rng.choice(_LINEAR_CHILD_SOURCES)
    return _same(_children(_read(CLEAN / "res" / "layout" / name)))


_LAYOUT_OPEN = (
    '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android"\n'
    '    xmlns:tools="http://schemas.android.com/tools"\n'
    '    android:layout_width="match_parent"\n'
    '    android:layout_height="match_parent"\n'
    '    android:orientation="vertical">\n'
)


def _layout_file(
    rng: random.Random, names: _Names, folder: str, planted: int, near_misses: int
) -> SourceFile:
    """A LinearLayout with ``planted`` golden children among near-misses."""
    children = [_golden_child(rng, names) for _ in range(planted)]
    children += [_near_miss_child(rng) for _ in range(near_misses)]
    rng.shuffle(children)
    pieces = [_same('<?xml version="1.0" encoding="utf-8"?>\n' + _LAYOUT_OPEN)]
    for child in children:
        if rng.random() < 0.3:
            pieces.append(_same(f"    <!-- {_word(rng)} {_word(rng)} -->\n"))
        pieces.append(child)
    pieces.append(_same("</LinearLayout>\n"))
    path = f"{folder}/{_word(rng)}_{names.next()}.xml"
    return _compose(path, pieces, _style(rng))


def _clean_layout_file(rng: random.Random, names: _Names, folder: str) -> SourceFile:
    source = rng.choice(sorted((CLEAN / "res" / "layout").glob("*.xml")))
    path = f"{folder}/{source.stem}_{names.next()}.xml"
    return _compose(path, [_same(_read(source))], _style(rng))


# --- projects and workloads ------------------------------------------------


def _extras(rng: random.Random, package: str) -> dict[str, bytes]:
    """Files a real project holds that greenlint must not analyse: the
    manifest, values resources, build scripts, and a smelly generated file
    under ``build/`` (excluded by default)."""
    stale = _read(GOLDEN / "recycle" / "before.java")
    return {
        "app/src/main/AndroidManifest.xml": (
            f'<manifest package="{package}">\n'
            '    <application android:label="@string/app_name" />\n'
            "</manifest>\n"
        ).encode(),
        f"{_RES}/values/strings.xml": (
            "<resources>\n"
            f'    <string name="app_name">{_camel(rng)}</string>\n'
            "</resources>\n"
        ).encode(),
        "app/build.gradle": b"apply plugin: 'com.android.application'\n",
        f"app/build/generated/source/{package.replace('.', '/')}/Stale.java": (
            stale.encode()
        ),
    }


def _rule_cycle(rng: random.Random, n: int) -> list[str]:
    """``n`` Java rules, each used equally often, in seeded order."""
    rules = [JAVA_RULES[i % len(JAVA_RULES)] for i in range(n)]
    rng.shuffle(rules)
    return rules


def check_java(seed: int) -> Corpus:
    """One project of large Java files; a few hold several smells."""
    rng = random.Random(f"check-java:{seed}")
    names = _Names()
    package = "com.example.shop"
    # smells per file: fixed shape, seeded placement and rule choice
    shape = [0, 1, 1, 2, 3, 3, 3, 4]
    rng.shuffle(shape)
    files = []
    for n in shape:
        smells = rng.sample(JAVA_RULES, n)
        files.append(_java_file(rng, names, package, smells, 2, 19 * 1024))
    layouts = f"{_RES}/layout"
    files.append(_layout_file(rng, names, layouts, 2, 3))
    files.append(_clean_layout_file(rng, names, layouts))
    return Corpus("check-java", seed, [Project("shop", files, _extras(rng, package))])


def fix_smelly(seed: int) -> Corpus:
    """One project where most files are smell-dense, in Java and XML."""
    rng = random.Random(f"fix-smelly:{seed}")
    names = _Names()
    package = "com.example.feed"
    rules = _rule_cycle(rng, 36)
    files = []
    for k in range(12):
        smells = rules[3 * k : 3 * k + 3]
        files.append(_java_file(rng, names, package, smells, 1, 5 * 1024))
    for k in range(10):
        folder = f"{_RES}/{'layout-land' if k % 4 == 3 else 'layout'}"
        files.append(_layout_file(rng, names, folder, 2 + k % 3, 2))
    files.append(_clean_layout_file(rng, names, f"{_RES}/layout"))
    files.append(_java_file(rng, names, package, [], 2, 5 * 1024))
    return Corpus("fix-smelly", seed, [Project("feed", files, _extras(rng, package))])


def corpus_many(seed: int) -> Corpus:
    """Many small projects, mostly layouts by file count."""
    rng = random.Random(f"corpus-many:{seed}")
    names = _Names()
    projects = []
    for k in range(40):
        package = f"com.example.app{k}"
        layouts = f"{_RES}/layout"
        files = []
        for _ in range(5):
            if rng.random() < 0.3:
                files.append(_clean_layout_file(rng, names, layouts))
            else:
                files.append(
                    _layout_file(rng, names, layouts, rng.choice((0, 1, 1, 2)), 2)
                )
        smells = rng.sample(JAVA_RULES, rng.choice((0, 1, 1, 2)))
        files.append(_java_file(rng, names, package, smells, 1, 3 * 1024))
        projects.append(Project(f"app-{k:03d}", files, _extras(rng, package)))
    return Corpus("corpus-many", seed, projects)


WORKLOADS: dict[str, Callable[[int], Corpus]] = {
    "check-java": check_java,
    "fix-smelly": fix_smelly,
    "corpus-many": corpus_many,
}


# --- the frequency table the corpus command should print ------------------


def expected_table(corpus: Corpus) -> bytes:
    """The ``corpus`` CSV computed from the planted counts alone: totals,
    affected projects, integer percent and mean per affected project, both
    rounded half up with integer arithmetic."""
    n = len(corpus.projects)
    per_project = [
        sum((f.counts() for f in p.files), Counter()) for p in corpus.projects
    ]
    lines = [
        "rule,total_refactorings,total_projects,percentage_of_projects,"
        "incidence_per_project"
    ]
    rows = [(rule, lambda c, r=rule: c[r]) for rule in RULES]
    rows.append(("Any", lambda c: sum(c[r] for r in RULES)))
    for name, count in rows:
        total = sum(count(c) for c in per_project)
        affected = sum(1 for c in per_project if count(c) > 0)
        percent = (200 * affected + n) // (2 * n)
        if affected:
            tenths = (20 * total + affected) // (2 * affected)
            incidence = f"{tenths // 10}.{tenths % 10}"
        else:
            incidence = "-"
        lines.append(f"{name},{total},{affected},{percent},{incidence}")
    return ("\n".join(lines) + "\n").encode()
