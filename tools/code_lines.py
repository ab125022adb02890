"""Count the code lines of src/dgreen and of tests, per file and in total.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines, comment lines and docstring lines do not count.
Docstrings are the leading string statements of the module, of each class
and of each function.  Code moved from the package into the tests shows in
the second table.  Run from anywhere:

    python tools/code_lines.py
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = (ROOT / "src" / "dgreen", ROOT / "tests")

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    for k, tree in enumerate(TREES):
        print(("\n" if k else "") + tree.relative_to(ROOT).as_posix())
        total = 0
        for path in sorted(tree.glob("*.py")):
            count = code_lines(path)
            total += count
            print(f"  {path.name:20} {count:5d}")
        print(f"  {'total':20} {total:5d}")


if __name__ == "__main__":
    main()
