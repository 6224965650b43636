"""The ingest workload's processes.

    python3 bench/ingest_child.py setup --seed N --dir D
    python3 bench/ingest_child.py load --seed N --passes K --dir D [--trace]

`setup` builds the seeded mix of ring dumps (the text `deltaring info EXPR
--dump` prints) and one single-cell mutant per source, three times over
with the build cache cleared, and writes the last set to D with a manifest
holding what each load must return.  `load` reads them back and, untimed
until then, loads every dump with `core.ring_from_json` K times in seeded
orders; it runs in its own process so that its peak RSS is that of the
loads.  Each prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pool  # noqa: E402

SETUP_REPEATS = 3


def _digest(table) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(table, dtype=np.int32).tobytes()).hexdigest()


def build_dumps(mix: list[dict]) -> list[tuple[dict, str]]:
    from deltaring import core, dsl

    dumps = []
    for item in mix:
        ring = dsl.build_str(item["expr"])
        text = core.ring_to_json(ring)
        i, j = item["cell"]
        dumps.append(({"expr": item["expr"], "pristine": True, "zero": ring.zero,
                       "one": ring.one, "add": _digest(ring.add), "mul": _digest(ring.mul)},
                      text))
        dumps.append(({"expr": item["expr"], "pristine": False,
                       "cell": [item["table"], i, j]},
                      mutate(text, item["table"], i, j, ring.order)))
    return dumps


def mutate(text: str, table: str, i: int, j: int, n: int) -> str:
    """The dump with cell (i, j) of `table` changed by +1 mod n.

    Edits the compact dump text in place of re-serialising it: rows of
    `"table":[[...],[...],...]` are separated by "],[" and cells by ",".
    """
    pos = text.index(f'"{table}":[[') + len(table) + 5
    for _ in range(i):
        pos = text.index("],[", pos) + 3
    for _ in range(j):
        pos = text.index(",", pos) + 1
    end = pos
    while text[end].isdigit():
        end += 1
    return text[:pos] + str((int(text[pos:end]) + 1) % n) + text[end:]


def setup(args) -> dict:
    from deltaring import dsl

    mix = pool.ingest_mix(args.seed)
    times = []
    for _ in range(SETUP_REPEATS):
        dsl.clear_build_cache()
        t0 = time.perf_counter()
        dumps = build_dumps(mix)
        times.append(time.perf_counter() - t0)
    manifest = []
    for k, (meta, text) in enumerate(dumps):
        meta["file"] = f"{k:02d}.json"
        meta["bytes"] = len(text)
        (args.dir / meta["file"]).write_text(text)
        manifest.append(meta)
    (args.dir / "manifest.json").write_text(json.dumps(manifest))
    return {"setup_s": times}


def outcome_ok(meta: dict, result) -> bool:
    from deltaring.errors import AxiomViolation

    if not meta["pristine"]:
        return isinstance(result, AxiomViolation)
    if isinstance(result, BaseException):
        return False
    return (result.label == meta["expr"] and result.zero == meta["zero"]
            and result.one == meta["one"] and _digest(result.add) == meta["add"]
            and _digest(result.mul) == meta["mul"])


def load(args) -> dict:
    from deltaring import core

    manifest = json.loads((args.dir / "manifest.json").read_text())
    texts = [(args.dir / meta["file"]).read_text() for meta in manifest]
    rec = None
    if args.trace:
        import tracer
        rec = tracer.Recorder()
        missing = tracer.install(rec)

    rng = random.Random(f"ingest-order:{args.seed}")
    loads = []
    for _ in range(args.passes):
        order = list(range(len(texts)))
        rng.shuffle(order)
        for k in order:
            t0 = time.perf_counter()
            try:
                result = core.ring_from_json(texts[k])
            except Exception as exc:  # any outcome is judged below
                result = exc
            dt = time.perf_counter() - t0
            loads.append([k, dt, outcome_ok(manifest[k], result)])
            del result  # keep one loaded ring alive at a time
    out = {"manifest": manifest, "loads": loads,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if rec is not None:
        out["trace"] = {"aggregates": rec.aggregates(), "extra": rec.extra, "missing": missing}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "load"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(setup(args) if args.mode == "setup" else load(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
