from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import deltaring
from deltaring import cli, core, dsl, schemas

from conftest import traced_peak


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_z12(capsys):
    code, out, _ = run(capsys, "info", "Z12")
    assert code == 0
    assert "delta-set (2): {0:0, 6:6}" in out
    assert "2-delta-u: true" in out


def test_info_matrix_ring_shows_false_verdict(capsys):
    code, out, _ = run(capsys, "check", "2-delta-u", "M(2,Z2)")
    assert code == 1
    assert "[[0,1],[1,1]]" in out  # the witness unit


def test_info_json_schema(capsys):
    code, out, _ = run(capsys, "info", "Z6", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.INFO_SCHEMA)
    assert payload["sets"]["units"]["indices"] == [1, 5]


def test_info_dump_round_trips(capsys):
    code, out, _ = run(capsys, "info", "GR(Z2,C2)", "--dump")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schemas.RING_DUMP_SCHEMA)
    back = core.ring_from_dict(data)
    assert core.ring_to_json(back) == out.strip()


def test_check_exit_codes(capsys):
    assert run(capsys, "check", "2-delta-u", "Z18")[0] == 0
    assert run(capsys, "check", "delta-u", "Z3")[0] == 1
    assert run(capsys, "check", "tripotent", "Z6")[0] == 0
    code, _, err = run(capsys, "check", "bogus-class", "Z6")
    assert code == 2 and "error" in err


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "2-delta-u", "Z5", "--json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.CHECK_REPORT_SCHEMA)
    assert payload["witness"][0]["element-index"] == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "info", "M(2 Z3)")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "info", "GF(6)")
    assert code == 2


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "T3.8")
    assert code == 0
    assert "T3.8" in out and "pass" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "bogus-id")
    assert code == 2 and "unknown check id" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "T3.8", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.VERIFY_SCHEMA)


def test_verify_threads_flag_keeps_output_stable(capsys):
    _, serial, _ = run(capsys, "verify", "T3.8", "--json")
    _, threaded, _ = run(capsys, "verify", "T3.8", "--json", "--threads", "3")
    assert serial == threaded


def test_thread_count_below_one_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("DELTA_RING_THREADS", raising=False)
    for argv, source in (((("--threads", "0"), "--threads must be at least 1, got 0")),
                         (("--threads", "-2"), "--threads must be at least 1, got -2")):
        code, out, err = run(capsys, "verify", "T3.8", *argv)
        assert (code, out) == (2, "") and source in err
    for raw in ("0", "-3"):
        monkeypatch.setenv("DELTA_RING_THREADS", raw)
        code, out, err = run(capsys, "verify", "all")
        assert (code, out) == (2, "")
        assert f"DELTA_RING_THREADS must be at least 1, got {raw}" in err
    # the flag wins over the environment
    code, _, _ = run(capsys, "verify", "T3.8", "--threads", "2")
    assert code == 0


def test_max_order_below_one_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("DELTA_RING_MAX_ORDER", raising=False)
    for argv in (("verify", "all", "--max-order", "0"), ("info", "Z2", "--max-order", "-3"),
                 ("check", "2-delta-u", "Z2", "--max-order", "0"),
                 ("search", "--include", "uj", "--max-order", "0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"--max-order must be at least 1, got {argv[-1]}" in err
    for raw in ("0", "-3"):
        monkeypatch.setenv("DELTA_RING_MAX_ORDER", raw)
        for argv in (("verify", "all"), ("info", "Z2")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"DELTA_RING_MAX_ORDER must be at least 1, got {raw}" in err
    # the flag wins over the environment, and 1 is a bound
    code, out, _ = run(capsys, "info", "Z2", "--max-order", "2")
    assert code == 0 and "ring Z2" in out
    code, out, _ = run(capsys, "search", "--include", "uj", "--max-order", "1")
    assert (code, out) == (0, "rings in ['uj'] and outside [] with order <= 1:\n  (none)\n")


def test_size_one_constructor_keeps_its_label(capsys):
    code, out, _ = run(capsys, "info", "M(1,Z4)", "--json")
    assert code == 0 and json.loads(out)["subject"] == "M(1,Z4)"


def test_verify_max_order_restricts_scope(capsys):
    code, out, _ = run(capsys, "verify", "T2.8", "--max-order", "30", "--json")
    assert code == 0
    payload = json.loads(out)
    scope = payload["checks"][0]["scope_size"]
    assert 0 < scope < 100  # only the catalog rings of order <= 30 remain


def test_search_examples(capsys):
    code, out, _ = run(capsys, "search", "--include", "2-delta-u",
                       "--exclude", "delta-u", "--max-order", "16")
    assert code == 0 and "Z3" in out

    code, out, _ = run(capsys, "search", "--include", "delta-u",
                       "--exclude", "uj", "--max-order", "64")
    assert code == 0 and "(none)" in out


def test_info_z2_is_boolean(capsys):
    code, out, _ = run(capsys, "info", "Z2")
    assert code == 0
    assert "boolean: true" in out and "delta-u: true" in out


def test_search_open_problem_classes(capsys):
    # no pinned expectation: the scan reports whatever separation exists
    code, out, _ = run(capsys, "search", "--include", "2-uq",
                       "--exclude", "2-uj", "--max-order", "32")
    assert code == 0
    assert "rings in" in out


def test_search_json_schema(capsys):
    code, out, _ = run(capsys, "search", "--include", "2-delta-u,uuc",
                       "--max-order", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.SEARCH_SCHEMA)
    assert "Z2" in payload["matches"]


def test_classes_listing(capsys):
    code, out, _ = run(capsys, "classes")
    assert code == 0
    assert "2-delta-u" in out and "semi-tripotent" in out
    code, out, _ = run(capsys, "classes", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.CLASSES_SCHEMA)
    assert payload["2-delta-u"]["category"] == "unit-class"


def test_env_order_guard(capsys, monkeypatch):
    monkeypatch.setenv("DELTA_RING_MAX_ORDER", "10")
    code, _, err = run(capsys, "info", "Z12")
    assert code == 2 and "guard" in err
    # the flag wins over the environment
    code, _, _ = run(capsys, "info", "Z12", "--max-order", "100")
    assert code == 0


def test_zmod_guard_before_allocation(capsys, monkeypatch):
    def refuse(m):
        raise AssertionError("Z(m) tables allocated past the order guard")

    monkeypatch.delenv("DELTA_RING_MAX_ORDER", raising=False)
    monkeypatch.setattr(dsl, "_zmod_tables", refuse)
    code, _, err = run(capsys, "info", "Z5000")
    assert code == 2 and "Z5000: order would reach at least 5000, past the guard 4096" in err


def test_no_guard_admits_an_order_past_the_table_dtype(capsys, monkeypatch):
    # tables hold uint16 element indices, so an order above 2^16 is refused
    # before allocation under any --max-order or DELTA_RING_MAX_ORDER
    def refuse(m):
        raise AssertionError("Z(m) tables allocated past 2^16")

    monkeypatch.setattr(dsl, "_zmod_tables", refuse)
    monkeypatch.setenv("DELTA_RING_MAX_ORDER", "1000000")
    for extra in ((), ("--max-order", "1000000")):
        code, _, err = run(capsys, "info", "Z65537", *extra)
        assert code == 2
        assert "Z65537: order would reach at least 65537, past the guard 65536" in err


def test_verify_max_order_64_matches_golden(capsys, monkeypatch):
    # the scope under --max-order is taken from the expressions' orders,
    # before any ring is built; the report is pinned as it was when the
    # scope came from building every catalog ring
    monkeypatch.delenv("DELTA_RING_THREADS", raising=False)
    code, out, _ = run(capsys, "verify", "all", "--json", "--max-order", "64")
    golden = (Path(__file__).parent / "golden" / "verify_max_order_64.json").read_text()
    assert code == 0 and out == golden


def test_verify_max_order_that_keeps_the_catalog_reports_as_without_it(capsys, monkeypatch):
    # the largest catalog order is 729; a guard at or above it drops no
    # catalog ring, so no check may lose the instances it takes from outside
    # the catalog (T3.26, T3.1 and T4.10 take some)
    monkeypatch.delenv("DELTA_RING_THREADS", raising=False)
    monkeypatch.delenv("DELTA_RING_MAX_ORDER", raising=False)
    code, plain, _ = run(capsys, "verify", "all", "--json")
    assert code == 0
    for guard in ("4096", "1024", "729"):
        guarded = run(capsys, "verify", "all", "--json", "--max-order", guard)
        assert guarded == (0, plain, ""), guard


# the 31 rings of the benchmark's inspect pool (orders 256-2048, none in the
# catalog), then the rings the product oracles of test_constructions check
POOL_EXPRS = [
    "Prod(Z16,Z16)", "Triv(Z16,Z16)", "GR(Z16,C2)", "GR(Z4,C4)", "GR(Z4,V4)", "M(2,Z4)",
    "FM(2,Z4,s=0)", "GR(GF(4),C4)", "TruncSkew(GF(4),frob,4)", "DT(GF(4),GF(4))", "T(2,Z7)",
    "GR(Z7,C3)", "Prod(Z8,Z8,Z8)", "T(2,Z8)", "T(2,GF(8))", "GR(GF(8),C3)",
    "TruncSkew(GF(8),frob,3)", "Triv(Z25,Z25)", "M(2,Z5)", "GR(Z5,C4)", "TruncSkew(Z5,id,4)",
    "Prod(Z27,Z27)", "T(2,Z9)", "T(2,GF(9))", "GR(GF(9),C3)", "T(2,Z10)", "Prod(Z32,Z32)",
    "GR(GF(4),C5)", "M(2,Z6)", "T(2,Z12)", "Prod(Z32,Z64)",
    "GF(4)", "GF(8)", "GF(9)", "FM(3,Z2,s=0)", "K(Z3,s=1)", "K(GF(4),s=1)", "GR(Z3,V4)",
    "TruncSkew(GF(9),frob,2)", "FM(2,Z3,s=1)",
]


def _assert_info_hashes(capsys, golden_name: str, exprs: list[str]) -> None:
    golden = json.loads((Path(__file__).parent / "golden" / golden_name).read_text())
    assert list(golden) == exprs
    for expr in exprs:
        got = {}
        for flag in ("--json", "--dump"):
            code, out, _ = run(capsys, "info", expr, flag)
            assert code == 0, (expr, flag)
            got[flag[2:]] = hashlib.sha256(out.encode()).hexdigest()
        assert got == golden[expr], expr


def test_pool_outputs_match_golden(capsys, monkeypatch):
    # `info --json` and `info --dump` past the catalog's rings, hashed: how
    # the constructions fill their tables must leave these bytes alone
    monkeypatch.delenv("DELTA_RING_MAX_ORDER", raising=False)
    _assert_info_hashes(capsys, "pool_outputs.json", POOL_EXPRS)


def test_catalog_info_matches_golden(capsys, monkeypatch):
    # `info --json` and `info --dump` of every catalog ring, hashed: the
    # element sets, class verdicts and dumps of the whole catalog
    monkeypatch.delenv("DELTA_RING_MAX_ORDER", raising=False)
    _assert_info_hashes(capsys, "catalog_info.json", [expr for expr, _ in dsl.catalog()])


def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DELTA_RING_MAX_ORDER", "DELTA_RING_THREADS")}
    src = str(Path(deltaring.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# runs `cli.main` in a fresh interpreter and prints its wall time after the
# command's own output; interpreter start and imports are left out of the
# time, since they do not depend on the expression
_TIMED_MAIN = """\
import sys, time
from deltaring import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - start)
raise SystemExit(code)
"""


@pytest.mark.parametrize("expr", ["T(2,Z9)", "M(2,Z5)", "Prod(Z27,Z27)"])
def test_info_payload_holds_its_tables_and_little_else(expr, computed):
    # every pass of the payload that reduces a table runs in row blocks, so
    # on a fresh memo no temporary comes near the size of a table
    R = core._relabel(dsl.build_str(expr), expr)
    assert 625 <= R.order <= 729
    assert traced_peak(cli._info_payload, R) < R.order ** 2 * 4 / 2
    keys = {key for label, key in computed if label == expr}
    assert {"unit_mask", "jac_mask", "delta_mask", "idem_reach", "idem_commutant"} <= keys


def test_cli_import_leaves_out_the_theorem_harness():
    # info, check and classes never run the suite; only verify and search
    # import the harness and its thread pool
    probe = ("import sys, deltaring.cli; "
             "print(sorted(m for m in ('deltaring.harness', 'concurrent.futures') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_guard_rejects_huge_expressions_fast_and_without_traceback():
    for argv, reach, guard in ((["M(1500,Z3)"], 6561, 4096),
                               (["GR(M(1500,Z3),C2)"], 6561, 4096),
                               (["TruncSkew(Z3,id,300000)"], 6561, 4096),
                               (["Quot(Z12,6)", "--max-order", "8"], 12, 8),
                               (["Corner(M(2,Z2),8)", "--max-order", "8"], 16, 8)):
        proc = subprocess.run([sys.executable, "-c", _TIMED_MAIN, "info", *argv],
                              capture_output=True, text=True, env=_cli_env(), timeout=120)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr == (f"error: {argv[0]}: order would reach at least {reach}, "
                               f"past the guard {guard}\n")
        assert float(proc.stdout) < 0.5, argv


# the start of a child whose address space may grow by at most 512 MB past
# what its imports took, so that an input asking for more memory fails with
# MemoryError in the child instead of exhausting the machine
_LIMITED = """\
import resource, sys, time
from deltaring import cli, dsl
used = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
soft, hard = used + (512 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    soft = min(soft, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
"""
# Triv(R) prints as Triv(R,R), so 40 nested levels print 2^40 copies of Z2
_TRIV_40 = "Triv(" * 40 + "Z2" + ")" * 40


def test_guard_refuses_a_doubling_form_before_printing_it():
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED + "raise SystemExit(cli.main(sys.argv[1:]))",
         "info", _TRIV_40], capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert len(proc.stderr) < 1024 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: Triv(Triv(")
    assert proc.stderr.endswith("...: order would reach at least 65536, past the guard 4096\n")


def test_repeated_base_is_compared_as_a_node_not_as_printed_text():
    probe = _LIMITED + (f"T = {_TRIV_40!r}\n"
                        "start = time.perf_counter()\n"
                        "e = dsl.parse(f'Triv({T},{T})')\n"
                        "print(time.perf_counter() - start, e.base == dsl.parse(T))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    elapsed, same = proc.stdout.split()
    assert float(elapsed) < 0.5 and same == "True"


def test_too_deep_nesting_exits_2_without_traceback(capsys):
    deepest = "Prod(" * dsl.MAX_NESTING + "Z2" + ")" * dsl.MAX_NESTING
    code, out, _ = run(capsys, "info", deepest, "--json")
    assert code == 0 and json.loads(out)["order"] == 2
    # one level more, and the M(2, chain whose parse once overflowed the stack
    for text in ("Prod(" + deepest + ")", "M(2," * 600 + "Z2" + ")" * 600):
        proc = subprocess.run([sys.executable, "-m", "deltaring.cli", "info", text],
                              capture_output=True, text=True, env=_cli_env(), timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: syntax error at position ")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


def test_search_unknown_class_with_empty_pool(capsys):
    code, _, err = run(capsys, "search", "--include", "no-such-class", "--max-order", "1")
    assert code == 2 and "unknown ring class 'no-such-class'" in err


def test_closed_stdout_exits_quietly():
    # the reader leaves after its first read, as `deltaring ... | head -c 100`
    # does; the dump is larger than a pipe buffer, so the writer sees it go
    with subprocess.Popen([sys.executable, "-m", "deltaring.cli", "info", "Z300", "--dump"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")


def test_verify_all_cold_runs_identical_across_thread_counts():
    # fresh interpreters, so no run reads verdicts memoized by another
    procs = [subprocess.Popen([sys.executable, "-m", "deltaring.cli", "verify", "all",
                               "--json", "--threads", str(t)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
             for t in (1, 2, 4)]
    try:
        outputs = [p.communicate(timeout=300) for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    assert [p.returncode for p in procs] == [0, 0, 0], [err for _, err in outputs]
    first = outputs[0][0]
    assert json.loads(first)["verdict"] is True
    assert all(out == first for out, _ in outputs)


def test_verify_max_order_64_on_workers_matches_golden():
    # a fresh interpreter: the workers see only the scope list the parent
    # built from --max-order, inherited when they fork
    proc = subprocess.run([sys.executable, "-m", "deltaring.cli", "verify", "all", "--json",
                           "--max-order", "64", "--threads", "2"],
                          capture_output=True, text=True, env=_cli_env(), timeout=300)
    golden = (Path(__file__).parent / "golden" / "verify_max_order_64.json").read_text()
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", golden)


_README_MODULES = ("core", "dsl", "constructions", "predicates", "subsets", "harness",
                   "cli", "schemas", "errors", "report")


def test_readme_names_resolve():
    # every backticked `module.name` of the package that README.md or the
    # package's own source mentions is an attribute of that module, and
    # every backticked bare `_private` name is an attribute of some module
    # of the package, so a rename or a deletion cannot leave the prose
    # pointing at code that is gone
    root = Path(__file__).parent.parent
    modules = [importlib.import_module(f"deltaring.{m}") for m in _README_MODULES]
    dotted = re.compile(r"`(" + "|".join(_README_MODULES) + r")\.([A-Za-z_][\w.]*)")
    checked = 0
    for path in (root / "README.md", *sorted((root / "src" / "deltaring").glob("*.py"))):
        text = path.read_text()
        for module, attr in dotted.findall(text):
            obj = importlib.import_module(f"deltaring.{module}")
            for part in attr.rstrip(".").split("."):
                assert hasattr(obj, part), f"{path.name} names {module}.{attr}, which is gone"
                obj = getattr(obj, part)
            checked += 1
        for name in re.findall(r"`(_[A-Za-z]\w*)`", text):
            assert any(hasattr(m, name) for m in modules), \
                f"{path.name} names {name}, which is gone"
            checked += 1
    assert checked
