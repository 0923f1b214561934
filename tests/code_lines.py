"""Physical and code lines of each ``src/orbitpick`` module, and in total.

A code line is one that holds a token other than a comment, once the
docstrings are taken out: a docstring is the string that is the first
statement of a module, class or function.  Blank lines, comment lines
and docstring lines are not code.  Standard library only; not a test.

Run from anywhere: ``python tests/code_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbitpick"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = [0, 0]
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{path.name:<16}{physical:>10,}{code:>8,}")
    print(f"{'total':<16}{total[0]:>10,}{total[1]:>8,}")


if __name__ == "__main__":
    main()
