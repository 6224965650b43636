"""Print the code, docstring, comment and blank line counts of Python files.

    python tools/line_counts.py src/deltaring/*.py

A line is a docstring line when it lies within a module, class or function
docstring (blank lines inside one included), blank when it holds only
whitespace, a comment line when a comment is its only token, and a code
line otherwise (a line of code with a trailing comment counts as code).
One row per file, then the total.  With no file it prints its usage line
and exits with status 2.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> dict[str, int]:
    lines = source.splitlines()
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - docstring
    code -= docstring
    return {"code": len(code), "docstring": len(docstring),
            "comment": len(comment - code - docstring), "blank": len(blank),
            "total": len(lines)}


def main(paths: list[str]) -> None:
    columns = ("code", "docstring", "comment", "blank", "total")
    total = dict.fromkeys(columns, 0)
    print(f"{'file':<40}" + "".join(f"{c:>11}" for c in columns))
    for path in paths:
        with open(path, encoding="utf-8") as f:
            row = counts(f.read())
        for c in columns:
            total[c] += row[c]
        print(f"{path:<40}" + "".join(f"{row[c]:>11}" for c in columns))
    print(f"{'total':<40}" + "".join(f"{total[c]:>11}" for c in columns))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="python tools/line_counts.py")
    parser.add_argument("paths", nargs="+", metavar="FILE")
    main(parser.parse_args().paths)
