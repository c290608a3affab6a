"""README's examples run as written.

``README.md`` is read here, not imported: the library block's expressions
must give the values their comments state, and the vector-file block must
parse and run as the text around it says, so that a renamed function or a
changed format cannot leave the README wrong while the suite passes.
"""

import ast
from pathlib import Path

from maa32.vectors import STATUS_PASS, STATUS_SKIP, parse_vector_text, run_vectors

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str = "") -> str:
    """The first fenced block opened with ```language in README's section heading."""
    section = README.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]
    return section.split("\n```%s\n" % language, 1)[1].split("\n```", 1)[0] + "\n"


def test_library_example_gives_the_values_in_its_comments():
    code = fenced_block("Library", "python")
    namespace: dict = {}
    stated = []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            want = code.splitlines()[node.lineno - 1].rpartition("# ")[2]
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert got == int(want, 16), ast.unparse(node)
            stated.append(want)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert stated == ["0xFE183198", "0x31975335"]


def test_vector_file_example_parses_and_runs(tmp_path):
    cases = parse_vector_text(fenced_block("Vector files"), "README.md")
    assert [case.name for case in cases] == ["prefix-14", "repeated-file"]
    report = run_vectors(cases, base_dir=str(tmp_path))  # no single-text.bin here
    assert [(r.name, r.status) for r in report.results] == [
        ("prefix-14", STATUS_PASS),
        ("repeated-file", STATUS_SKIP),
    ]
    assert report.results[1].detail == "missing file: single-text.bin"
