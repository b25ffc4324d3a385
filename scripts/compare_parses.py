#!/usr/bin/env python3
"""Parse the same Java and layout files with two checkouts and list the
files whose trees, layout findings or diagnostics differ.

Usage:
    python scripts/compare_parses.py --parent DIR --change DIR --seeds 1 2 3

The inputs are every Java and ``res/layout*/*.xml`` file of the benchmark
workloads' corpora at the given seeds, made by this repository's
``bench/corpus.py``, and every ``tests/fixtures/**/*.java`` and
``tests/fixtures/**/*.xml`` of this repository. In each checkout, one child
process parses them all with that checkout's own ``src/`` and prints, for
each file, its diagnostics or else: for Java, ``tests/helpers.tree_shape``
of its tree; for XML, each element's tag and start-tag span in document
order, then ObsoleteLayoutParam's findings (span and message) and edits,
each in span order, the order the report lists them in. The script lists
the files that differ and exits 1 if any do, else 0. It writes nothing
under either checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"
sys.path.insert(0, str(REPO / "bench"))

import corpus as gen  # noqa: E402

# Run in a checkout as `python -c CHILD CHECKOUT ROOT`: one JSON line
# [path under ROOT, shape or diagnostics] per Java and XML file under ROOT.
CHILD = """
import json, sys
from pathlib import Path
checkout, root = map(Path, sys.argv[1:])
sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
from greenlint.java.parser import parse_java_source
from greenlint.rules import apply_obsolete_layout_param
from greenlint.xmltree import parse_layout_xml
from helpers import tree_shape

def layout_shape(tree):
    result = apply_obsolete_layout_param(tree)
    return [
        [(e.tag, e.span.start, e.span.end) for e in tree.root.walk()],
        sorted((f.span.start, f.span.end, f.message) for f in result.findings),
        sorted((e.span.start, e.span.end, e.replacement) for e in result.edits),
    ]

for suffix, parse, shape_of in (
    ("*.java", parse_java_source, tree_shape), ("*.xml", parse_layout_xml, layout_shape)
):
    for path in sorted(root.rglob(suffix)):
        tree, diags = parse(path.read_bytes())
        shape = shape_of(tree) if tree is not None else [str(d) for d in diags]
        print(json.dumps([path.relative_to(root).as_posix(), repr(shape)]))
"""


def write_inputs(root: Path, seeds: list[int]) -> None:
    """Write the Java and layout files to parse under ``root``: each
    workload's corpus at each seed, then the test fixtures."""
    for workload, build in gen.WORKLOADS.items():
        for seed in seeds:
            corpus = build(seed)
            for project, f in corpus.files():
                if f.language in ("java", "xml"):  # "xml" is a layout
                    target = root / f"{workload}-{seed}" / project.name / f.path
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_bytes(f.before)
    for path in [*FIXTURES.rglob("*.java"), *FIXTURES.rglob("*.xml")]:
        target = root / "fixtures" / path.relative_to(FIXTURES)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())


def parse_checkout(checkout: Path, root: Path) -> dict[str, str]:
    """Each Java and XML file under ``root``, by path, to what
    ``checkout``'s parsers make of it."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout.resolve()), str(root)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: parsing failed ({proc.returncode}):\n{proc.stderr}")
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root, args.seeds)
        parent = parse_checkout(args.parent, root)
        change = parse_checkout(args.change, root)
    differ = sorted(p for p in parent.keys() | change.keys() if parent.get(p) != change.get(p))
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(parent.keys() | change.keys())} file(s), {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
