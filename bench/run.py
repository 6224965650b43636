#!/usr/bin/env python3
"""deltaring benchmark.  See bench/README.md for workloads and metrics.

    python3 bench/run.py --workload {suite,inspect,ingest} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is taken from src/.
The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics of a
traced replay under --trace 1.  The line before it holds the machine facts
and the drawn inputs; both are also appended to .bench_out/runs.jsonl,
which bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import pool  # noqa: E402

# Work per run: --seconds divided by the time one round took on a 2-core
# reference machine, rounded, at least one round.  Fixing the work (not the
# deadline) keeps the sample count, and so the tail percentile, equal
# between the two commits being compared.
NOMINAL_ROUND_S = {"suite": 40.0, "inspect": 25.0, "ingest": 2.5}
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
SCOPE_BASELINE = json.loads((BENCH / "scope_baseline.json").read_text())


class Budget:
    def __init__(self):
        self.t0 = time.monotonic()

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.t0)


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("DELTA_RING_MAX_ORDER", "DELTA_RING_THREADS"):
        env.pop(name, None)
    # deltaring never calls BLAS (its tables are integer lookups), but
    # OpenBLAS's idle pool spins on the second core while numpy is imported,
    # which made every cold start depend on what else ran on that core.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], budget: Budget, tag: str) -> dict:
    """Start one process, wait for it, return its output, exit code, wall
    time and peak RSS.  The process is killed when the run's deadline
    passes, and always reaped before this returns."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.time_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(budget.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        end_ns = time.time_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "out": out_path.read_bytes(), "err": err_path.read_bytes()[-2000:],
            "spawn_ns": spawn_ns, "end_ns": end_ns}


def cli_argv(args: list[str], trace_file: Path | None = None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "deltaring.cli", *args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), "--", *args]


def cold_import_setup(budget: Budget) -> float:
    """Set-up of the CLI workloads: a cold `import deltaring.cli`, which
    also leaves compiled bytecode behind as an installed package would."""
    times = []
    for i in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", "import deltaring.cli"], budget, f"setup{i}")
        if child["rc"] != 0:
            raise SystemExit(f"cannot import deltaring from {SRC}: {child['err'].decode()}")
        times.append(child["wall"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# per-run trace bookkeeping


class TraceSum:
    """Span aggregates and top-level times summed over traced processes."""

    def __init__(self):
        self.agg: dict[str, dict[str, int]] = {}
        self.extra: dict[str, int] = {}
        self.missing: set[str] = set()
        self.top_s = 0.0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.import_s: list[float] = []

    def add(self, trace: dict, traced_s: float, untraced_s: float, top_s: float) -> None:
        for name, row in trace["aggregates"].items():
            out = self.agg.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                out[k] += v
        for k, v in trace.get("extra", {}).items():
            self.extra[k] = self.extra.get(k, 0) + v
        self.missing.update(trace.get("missing", []))
        self.top_s += top_s
        self.traced_s += traced_s
        self.untraced_s += untraced_s

    def add_cli(self, child: dict, trace_file: Path, untraced_s: float) -> None:
        trace = json.loads(trace_file.read_text())
        spans = {name: ns / 1e9 for name, ns in trace["top"]}
        # interpreter start and exit, measured against the parent's clock
        spans["proc.start"] = (trace["start_ns"] - child["spawn_ns"]) / 1e9
        spans["proc.exit"] = (child["end_ns"] - trace["end_ns"]) / 1e9
        self.import_s.append(spans["cli.import"])
        self.add(trace, child["wall"], untraced_s, sum(spans.values()))


_EMPTY_ROW = {"calls": 0, "self_ns": 0, "incl_ns": 0, "hits": 0, "errors": 0}
_SUBSETS = ("units", "jacobson", "delta", "prime_radical", "quasinilpotents",
            "radical_quotient", "unit_subring")
_CATEGORIES = ("unit-class", "regularity", "clean", "structural")
_FOCUS_CHECKS = ("T3.5", "T-oracle", "T3.7")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ts: TraceSum) -> dict:
    agg = ts.agg
    row = lambda name: agg.get(name, _EMPTY_ROW)  # noqa: E731
    calls = lambda name: (row(name)["calls"], "count")  # noqa: E731
    incl = lambda name: (row(name)["incl_ns"] / 1e9, "s")  # noqa: E731
    own = lambda name: (row(name)["self_ns"] / 1e9, "s")  # noqa: E731

    def hit_ratio(names):
        rows = [row(n) for n in names]
        return (_ratio(sum(r["hits"] for r in rows), sum(r["calls"] for r in rows)), "ratio")

    subsets = [f"subsets.{name}" for name in _SUBSETS]
    checks = [k for k in agg if k.startswith("harness.run_check.")]
    other = [k for k in checks if k.split(".", 2)[2] not in _FOCUS_CHECKS]
    m = {
        "core.validate.small.calls": calls("core.validate.small"),
        "core.validate.small.s": incl("core.validate.small"),
        "core.validate.large.calls": calls("core.validate.large"),
        "core.validate.large.s": incl("core.validate.large"),
        "core.validate.rejected": (row("core.validate.small")["errors"]
                                   + row("core.validate.large")["errors"], "count"),
        "core.ideal_generated.calls": calls("core.ideal_generated"),
        "core.ideal_generated.s": incl("core.ideal_generated"),
        "harness.ideals_inside_radical.calls": calls("harness.ideals_inside_radical"),
        "harness.ideals_inside_radical.self_s": own("harness.ideals_inside_radical"),
        "harness.ideals_found": (ts.extra.get("harness.ideals_found", 0), "count"),
        "core.quotient_ring.calls": calls("core.quotient_ring"),
        "core.quotient_ring.self_s": own("core.quotient_ring"),
        "core.validate_hom.calls": calls("core.validate_hom"),
        "core.validate_hom.s": incl("core.validate_hom"),
        "core.subring_generated.s": incl("core.subring_generated"),
        "core.induced_subring.self_s": own("core.induced_subring"),
        "core.corner_ring.self_s": own("core.corner_ring"),
        "core.ring_from_json.calls": calls("core.ring_from_json"),
        "core.ring_from_json.decode_s": (own("core.ring_from_json")[0]
                                         + incl("core.ring_from_json.as_table")[0], "s"),
        "dsl.parse.s": incl("dsl.parse"),
        "dsl.build.calls": calls("dsl.build"),
        "dsl.build.self_s": own("dsl.build"),
        "dsl.build.cache_hit_ratio": hit_ratio(["dsl.build"]),
        "constructions.calls": calls("constructions"),
        "constructions.self_s": own("constructions"),
        **{f"{name}.s": incl(name) for name in subsets},
        "subsets.calls": (sum(row(n)["calls"] for n in subsets), "count"),
        "subsets.memo_hit_ratio": hit_ratio(subsets),
        "predicates.check_class.calls": calls("predicates.check_class"),
        "predicates.check_class.self_s": own("predicates.check_class"),
        "predicates.check_class.memo_hit_ratio": hit_ratio(["predicates.check_class"]),
        **{f"predicates.{cat}.self_s": own(f"predicates.{cat}") for cat in _CATEGORIES},
        "predicates.semiregular.s": incl("predicates.semiregular"),
        "harness.catalog_rings.s": incl("harness.catalog_rings"),
        **{f"harness.run_check.{cid}.self_s": own(f"harness.run_check.{cid}")
           for cid in _FOCUS_CHECKS},
        "harness.run_check.other.self_s": (sum(own(k)[0] for k in other), "s"),
        "cli.import_s": (statistics.median(ts.import_s) if ts.import_s else 0.0, "s"),
        "trace.untraced_s": (ts.untraced_s, "s"),
        "trace.traced_s": (ts.traced_s, "s"),
        "trace.top_span_s": (ts.top_s, "s"),
        "trace.overhead_share": (_ratio(ts.traced_s, ts.untraced_s) - 1, "share"),
        "trace.top_span_gap_share": (_ratio(ts.top_s, ts.untraced_s) - 1, "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# workloads.  Each returns the samples of its untraced operations, the
# attempted/failed counts, set-up time, peak RSS, the drawn inputs, and
# (traced) a TraceSum.


def verify_problems(out: bytes) -> list[str]:
    from jsonschema import ValidationError, validate

    from deltaring.schemas import VERIFY_SCHEMA
    try:
        payload = json.loads(out)
        validate(payload, VERIFY_SCHEMA)
    except (ValueError, ValidationError) as exc:
        return [f"bad verify output: {str(exc)[:200]}"]
    problems = []
    checks = {c["check_id"]: c for c in payload["checks"]}
    for cid, floor in SCOPE_BASELINE.items():
        c = checks.get(cid)
        if c is None:
            problems.append(f"{cid} missing")
        elif not c["verdict"]:
            problems.append(f"{cid} failed")
        elif c["scope_size"] < floor:
            problems.append(f"{cid} scope {c['scope_size']} < baseline {floor}")
    if not payload["verdict"]:
        problems.append("suite verdict false")
    return problems


def traced_replay(args: list[str], untraced: dict, tag: str, budget: Budget,
                  ts: TraceSum) -> list[str]:
    """Run the same CLI call again under the recorder; its output must not
    change."""
    trace_file = OUT / f"{tag}.trace.json"
    traced = run_child(cli_argv(args, trace_file), budget, f"{tag}.traced")
    if traced["rc"] != untraced["rc"] or traced["out"] != untraced["out"]:
        return ["traced output differs from the untraced one"]
    ts.add_cli(traced, trace_file, untraced["wall"])
    return []


def workload_suite(seed: int, rounds: int, trace: bool, budget: Budget) -> dict:
    setup = cold_import_setup(budget)
    # the seed decides which thread count runs first in each pair
    threads = (1, 2) if seed % 2 == 0 else (2, 1)
    lat, cpu, rss, failed, problems = [], [], [], 0, []
    ts = TraceSum() if trace else None
    for r in range(rounds):
        outs = {}
        for t in threads:
            args = ["verify", "all", "--json", "--threads", str(t)]
            child = run_child(cli_argv(args), budget, f"suite{r}t{t}")
            lat.append(child["wall"])
            cpu.append(child["cpu"])
            rss.append(child["rss_mb"])
            bad = verify_problems(child["out"]) if child["rc"] == 0 else [f"exit {child['rc']}"]
            if trace:
                bad += traced_replay(args, child, f"suite{r}t{t}", budget, ts)
            outs[t] = child["out"]
            if t == threads[1] and outs[1] != outs[2]:
                bad.append("outputs at threads 1 and 2 differ")
            failed += bool(bad)
            problems += [f"threads={t}: {p}" for p in bad]
    return {"lat": lat, "cpu": cpu, "attempted": len(lat), "failed": failed, "setup_s": setup,
            "rss_mb": max(rss), "rss_each": rss,
            "inputs": {"thread_order": list(threads), "rounds": rounds},
            "problems": problems, "trace": ts}


def workload_inspect(seed: int, rounds: int, trace: bool, budget: Budget) -> dict:
    from jsonschema import ValidationError, validate

    from deltaring.schemas import INFO_SCHEMA

    stream = pool.inspect_stream(seed, rounds)
    setup = cold_import_setup(budget)
    lat, cpu, rss, failed, problems = [], [], [], 0, []
    ts = TraceSum() if trace else None
    for i, expr in enumerate(stream):
        args = ["info", expr, "--json"]
        child = run_child(cli_argv(args), budget, f"inspect{i}")
        lat.append(child["wall"])
        cpu.append(child["cpu"])
        rss.append(child["rss_mb"])
        if child["rc"] != 0:
            bad = [f"exit {child['rc']}: {child['err'][-200:]!r}"]
        else:
            try:
                payload = json.loads(child["out"])
                validate(payload, INFO_SCHEMA)
                bad = pool.info_problems(expr, payload)
            except (ValueError, ValidationError) as exc:
                bad = [f"bad info output: {str(exc)[:200]}"]
        if trace:
            bad += traced_replay(args, child, f"inspect{i}", budget, ts)
        failed += bool(bad)
        problems += [f"{expr}: {p}" for p in bad]
    return {"lat": lat, "cpu": cpu, "attempted": len(stream), "failed": failed, "setup_s": setup,
            "rss_mb": max(rss), "inputs": {"stream": stream}, "problems": problems,
            "trace": ts}


def workload_ingest(seed: int, rounds: int, trace: bool, budget: Budget) -> dict:
    work_dir = OUT / "ingest"

    def run(mode: str, tag: str, *extra: str) -> dict:
        argv = [sys.executable, str(BENCH / "ingest_child.py"), mode, "--seed", str(seed),
                "--dir", str(work_dir), *extra]
        child = run_child(argv, budget, tag)
        if child["rc"] != 0:
            raise RuntimeError(f"ingest {mode} failed: {child['err'].decode(errors='replace')}")
        return json.loads(child["out"].decode().strip().splitlines()[-1])

    setup = run("setup", "ingest.setup")
    res = run("load", "ingest", "--passes", str(rounds))
    lat = [dt for _, dt, _ in res["loads"]]
    wrong = {i for i, (_, _, ok) in enumerate(res["loads"]) if not ok}
    ts = None
    if trace:
        ts = TraceSum()
        traced = run("load", "ingest.traced", "--passes", str(rounds), "--trace")
        # the replay loads the same dumps in the same order
        wrong |= {i for i, (_, _, ok) in enumerate(traced["loads"]) if not ok}
        top = traced["trace"]["aggregates"].get("core.ring_from_json", _EMPTY_ROW)["incl_ns"] / 1e9
        ts.add(traced["trace"], sum(dt for _, dt, _ in traced["loads"]), sum(lat), top)
    manifest = res["manifest"]
    problems = [f"{manifest[k]['expr']} ({'pristine' if manifest[k]['pristine'] else 'mutated'})"
                ": wrong outcome" for k in sorted({res["loads"][i][0] for i in wrong})]
    mix = [{k: v for k, v in m.items() if k not in ("add", "mul")} for m in manifest]
    return {"lat": lat, "attempted": len(lat), "failed": len(wrong),
            "setup_s": statistics.median(setup["setup_s"]), "rss_mb": res["peak_rss_mb"],
            "inputs": {"mix": mix, "passes": rounds}, "problems": problems, "trace": ts}


WORKLOADS = {"suite": workload_suite, "inspect": workload_inspect, "ingest": workload_ingest}


# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are fewer than eleven."""
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    for path, key, field in (("/proc/cpuinfo", "cpu_model", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(field):
                    facts[key] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            facts[key] = None
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        facts["git_commit"] = None
    return facts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "deltaring" / "cli.py").is_file():
        print(f"error: no deltaring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    budget = Budget()
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    res = WORKLOADS[args.workload](args.seed, rounds, bool(args.trace), budget)

    lat = res["lat"]
    tail_s, tail_pct = tail(lat)
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = per_layer(res["trace"])
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "samples": len(lat),
        "tail_percentile": tail_pct, "run_s": round(time.monotonic() - budget.t0, 3),
        "machine": machine_facts(), "inputs": res["inputs"], "latencies_s": lat,
        "cpu_s": res.get("cpu"), "rss_mb_each": res.get("rss_each"),
        "problems": res["problems"][:50],
    }
    if args.trace:
        ts = res["trace"]
        context["trace_missing"] = sorted(ts.missing)
        context["trace_spans"] = ts.agg
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"context": context, "result": result}) + "\n")
    print(json.dumps({"context": {k: v for k, v in context.items() if k != "trace_spans"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
