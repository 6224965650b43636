"""Print every function of the deltaring package that no command reaches.

    python tools/reach.py

Runs a fixed list of commands in this one process through `cli.main`, with
a profile hook (`sys.setprofile` and `threading.setprofile`) installed
before the package is imported, so that the dump reader's worker thread is
traced too:

- `verify all --json --threads 1`, `verify all --max-order 64`, `verify T3.8`;
- `classes` and `classes --json`, one `search`, and one `check` plain and
  with `--json`;
- `info` and `info --json` for every catalog ring, `info --json` for the
  rings of the inspect benchmark's pool (`bench/pool.INSPECT_POOL`), and
  `info --dump` for every fifth catalog ring;
- six bad inputs, each of which exits 2;
- `core.ring_from_json` on the pristine dump and the one-cell mutant of each
  source that `bench/pool.ingest_mix` draws for seeds 1-3, the dumps printed
  by `info --dump` and mutated by the ingest benchmark's own `mutate`.

`DELTA_RING_THREADS` and `DELTA_RING_MAX_ORDER` are dropped, so no verify
worker is forked (it would not be traced) and every command runs at the
default order guard.  Then it prints each function defined in
`src/deltaring` (methods and nested functions included, lambdas not) that
none of them called, with its file, first line and line count, and the
total; a function nested in one that is listed is not listed again.  The
list has no threshold: the tool exits nonzero only when a command exits
with a code it does not expect or a mutant dump is accepted.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltaring"


def _functions(path: Path) -> list[tuple[int, int, str, int | None]]:
    """(first line, line count, qualified name, first line of the enclosing
    function or None) for each function defined in the file; the first line
    is the first decorator's, as in the function's code object."""
    out = []

    def walk(node, prefix: str, outer: int | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, child.end_lineno - first + 1, name, outer))
                walk(child, name + ".", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", outer)
            else:
                walk(child, prefix, outer)

    walk(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return out


def _dump(cli, expr: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["info", expr, "--dump"])
    if code != 0:
        raise SystemExit(f"info {expr} --dump exited {code}")
    return out.getvalue()


def run_commands() -> None:
    for name in ("DELTA_RING_THREADS", "DELTA_RING_MAX_ORDER"):
        os.environ.pop(name, None)
    sys.dont_write_bytecode = True      # nothing is written under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from deltaring import cli, core, dsl
    from deltaring.errors import RingError
    import ingest_child
    import pool

    catalog = [label for label, _ in dsl.catalog()]
    commands = [["verify", "all", "--json", "--threads", "1"],
                ["verify", "all", "--max-order", "64"], ["verify", "T3.8"],
                ["classes"], ["classes", "--json"],
                ["search", "--include", "2-delta-u", "--exclude", "delta-u"],
                ["check", "2-delta-u", "M(2,Z2)"], ["check", "2-delta-u", "M(2,Z2)", "--json"]]
    commands += [["info", label, *flag] for label in catalog for flag in ([], ["--json"])]
    commands += [["info", expr, "--json"] for expr, _ in pool.INSPECT_POOL]
    commands += [["info", label, "--dump"] for label in catalog[::5]]
    bad = [["info", "Z1"], ["info", "M(2,Z2"], ["info", "Z5000"],
           ["check", "nosuchclass", "Z4"], ["verify", "T99"], ["verify", "all", "--threads", "0"]]
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in commands + bad:
            code = cli.main(argv)
            if (code == 2) != (argv in bad):
                raise SystemExit(f"{' '.join(argv)} exited {code}")
    dumps = {}
    for seed in (1, 2, 3):
        for item in pool.ingest_mix(seed):
            expr, (i, j) = item["expr"], item["cell"]
            if expr not in dumps:
                dumps[expr] = _dump(cli, expr)
            text = dumps[expr]
            mutant = ingest_child.mutate(text, item["table"], i, j, pool.order_of(expr))
            core.ring_from_json(text)
            try:
                core.ring_from_json(mutant)
            except RingError:
                pass
            else:
                raise SystemExit(f"the mutant of {expr} at {item['table']}[{i}, {j}] was accepted")


def main() -> None:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run_commands()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in called}
    total = unreached = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        functions = _functions(path)
        missed = {first for first, *_ in functions if (path, first) not in reached}
        total += len(functions)
        for first, count, name, outer in functions:
            if first in missed and outer not in missed:
                print(f"{path.relative_to(ROOT)}:{first}  {name}  {count} lines")
                unreached += 1
                lines += count
    print(f"unreached: {unreached} functions, {lines} lines ({total} functions in all)")


if __name__ == "__main__":
    main()
