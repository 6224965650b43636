"""Command-line interface.

Exit codes: 0 for success / a true verdict, 1 for a false verdict or a
failed check, 2 for usage, parse, or build errors.  When the reader of
stdout goes away early (`deltaring info ... | head`), the command exits 1
without a message.  Reports go to stdout, diagnostics to stderr.  The
order guard and the number of `verify all` worker processes come from
DELTA_RING_MAX_ORDER / DELTA_RING_THREADS; flags win over the environment,
and a value below 1 from either is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import core, dsl, subsets
from .errors import RingError
from .predicates import ALL_CLASSES, CLASSES, check_class


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise RingError(f"{name} must be an integer, got {raw!r}")


def _at_least_one(args, attr: str, env: str | None = None) -> int | None:
    """The flag `attr`, else the environment variable `env`; a value below 1
    is a usage error that names where it came from."""
    source, value = "--" + attr.replace("_", "-"), getattr(args, attr, None)
    if value is None and env is not None:
        source, value = env, _env_int(env)
    if value is not None and value < 1:
        raise RingError(f"{source} must be at least 1, got {value}")
    return value


def _order_guard(args) -> int | None:
    return _at_least_one(args, "max_order", "DELTA_RING_MAX_ORDER")


def _threads(args) -> int:
    threads = _at_least_one(args, "threads", "DELTA_RING_THREADS")
    return 1 if threads is None else threads


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _info_payload(ring) -> dict:
    masks = {
        "units": subsets.unit_mask(ring),
        "idempotents": subsets.idempotent_mask(ring),
        "nilpotents": subsets.nilpotent_mask(ring),
        "tripotents": subsets.tripotent_mask(ring),
        "jacobson-radical": subsets.jacobson_mask(ring),
        "delta-set": subsets.delta_mask(ring),
        "prime-radical": subsets.prime_radical(ring),
        "quasinilpotents": subsets.quasinilpotent_mask(ring),
    }
    sets = {}
    for name, mask in masks.items():
        indices = np.flatnonzero(mask).tolist()
        sets[name] = {"indices": indices, "displays": [ring.names[i] for i in indices]}
    classes = {name: check_class(ring, name).verdict for name in ALL_CLASSES}
    return {"subject": ring.label, "order": ring.order, "zero": ring.zero,
            "one": ring.one, "sets": sets, "classes": classes}


def cmd_info(args) -> int:
    ring = dsl.build_str(args.expr, order_guard=_order_guard(args))
    if args.dump:
        # written as made, so only one row block of the dump is held at a time
        sys.stdout.writelines(core.ring_json_chunks(ring))
        sys.stdout.write("\n")
        return 0
    payload = _info_payload(ring)
    if args.json:
        _emit(payload)
        return 0
    print(f"ring {ring.label}  (order {ring.order}, zero={ring.zero}, one={ring.one})")
    for name, data in payload["sets"].items():
        shown = ", ".join(f"{i}:{d}" for i, d in zip(data["indices"], data["displays"]))
        print(f"  {name} ({len(data['indices'])}): {{{shown}}}")
    print("classes:")
    for name in payload["classes"]:
        report = check_class(ring, name)
        line = f"  {name}: {str(report.verdict).lower()}"
        if not report.verdict and report.witness:
            parts = ", ".join(f"{w.role}={w.display}" for w in report.witness)
            line += f"  [{parts}]"
        print(line)
    return 0


def cmd_check(args) -> int:
    ring = dsl.build_str(args.expr, order_guard=_order_guard(args))
    report = check_class(ring, args.klass)
    if args.json:
        _emit(report.to_json())
    else:
        print(report)
    return 0 if report.verdict else 1


def cmd_verify(args) -> int:
    from . import harness

    threads = _threads(args)
    guard = _order_guard(args)
    rings = None
    if guard is not None:
        exprs = [e for _, e in dsl.catalog()]
        kept = [e for e in exprs if dsl.order_of(e, guard) <= guard]
        if len(kept) < len(exprs):      # else the whole suite, outside instances too
            rings = [dsl.build(e, order_guard=guard) for e in kept]
    if args.suite == "all":
        results = harness.run_all(rings, threads=threads,
                                  include_timings=args.timings)
    else:
        results = [harness.run_check(args.suite, rings,
                                     include_timings=args.timings)]
    if args.json:
        print(harness.results_to_json(results))
    else:
        print(harness.summary(results))
        for result in results:
            for ce in result.counterexamples:
                for w in ce["witness"]:
                    print(f"  {result.check_id} witness on {ce['ring']}: "
                          f"{w['role']} = {w['display']} (index {w['element-index']})")
    return 0 if all(r.verdict for r in results) else 1


def cmd_search(args) -> int:
    from . import harness

    include = _split(args.include)
    exclude = _split(args.exclude)
    max_order = _at_least_one(args, "max_order")
    matches = harness.search_classes(include, exclude, max_order=max_order)
    if args.json:
        _emit({"include": include, "exclude": exclude,
               "max_order": max_order, "matches": matches})
    else:
        print(f"rings in {include} and outside {exclude}"
              + (f" with order <= {max_order}" if max_order is not None else "") + ":")
        for label in matches:
            print(f"  {label}")
        if not matches:
            print("  (none)")
    return 0


def _split(values: list[str]) -> list[str]:
    out: list[str] = []
    for v in values:
        out.extend(part.strip() for part in v.split(",") if part.strip())
    return out


def cmd_classes(args) -> int:
    payload = {name: {"category": category, "condition": condition}
               for name, (category, condition, *_) in CLASSES.items()}
    if args.json:
        _emit(payload)
    else:
        for name, data in payload.items():
            print(f"{name:22s} [{data['category']}]  {data['condition']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaring",
        description="inspect finite rings, decide ring classes, run the theorem suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="element sets and class verdicts of a ring expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump", action="store_true", help="emit the ring dump format")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("check", help="single class check; exit 0 iff the verdict is true")
    p.add_argument("klass", metavar="class")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="run the theorem suite (or one check id)")
    p.add_argument("suite", nargs="?", default="all", help='"all" or a check id')
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock runtimes (off by default so reports are byte-stable)")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes for `verify all`, forked after the ring scope is "
                        "built and capped at the number of checks; the report is "
                        "byte-identical for every count")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="catalog rings inside/outside the given classes")
    p.add_argument("--include", action="append", default=[])
    p.add_argument("--exclude", action="append", default=[])
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("classes", help="list every ring class with its defining condition")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classes)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: send the rest of the output nowhere, so the
        # flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
