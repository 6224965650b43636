from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from deltaring import core, dsl, harness, subsets
from deltaring.errors import (AxiomViolation, ExprSyntaxError, HomViolation, UnknownCheckId,
                              UnknownClass)

import oracles
from conftest import traced_peak
from oracles import members


GOLDEN = Path(__file__).parent / "golden"


def rings(*exprs):
    return [dsl.build_str(e) for e in exprs]


def test_run_check_t38_fixed_instances():
    result = harness.run_check("T3.8")
    assert result.verdict and result.scope_size == 2

    only_one = harness.run_check("T3.8", rings("M(2,Z2)"))
    assert only_one.verdict and only_one.scope_size == 1


def test_run_check_t28_on_sample():
    result = harness.run_check("T2.8", rings("Z2", "Z3", "Z4", "Z6", "Z8",
                                             "Z9", "Z12", "GF(4)", "M(2,Z2)"))
    assert result.verdict and result.scope_size == 9


def test_run_check_t316_example():
    result = harness.run_check("T3.16", rings("Z4"))
    assert result.verdict


def test_unknown_check_id():
    with pytest.raises(UnknownCheckId):
        harness.run_check("T99.99")


def test_empty_scope_vacuous_pass_with_warning():
    result = harness.run_check("T2.8", [])
    assert result.verdict and result.scope_size == 0
    assert "vacuous" in result.notes


def test_each_counts_only_the_rings_where_holds():
    # `where` drops the odd orders before `test` sees them, and the dropped
    # rings do not count towards the scope size
    tested = []

    def test(r):
        tested.append(r.label)
        return [harness._counterexample(r, "even order")]

    run = harness._each(test, where=lambda r: r.order % 2 == 0, notes="even orders")
    size, bad, notes = run(rings("Z2", "Z3", "Z4", "Z9", "Z6"))
    assert (size, notes) == (3, "even orders")
    assert tested == ["Z2", "Z4", "Z6"]
    assert [c["ring"] for c in bad] == ["Z2", "Z4", "Z6"]


def test_each_filters_instances_by_label_then_applies_where_to_expressions():
    # instances outside the given rings are dropped by label; `where` sees
    # the parsed expressions that remain
    seen = []

    def where(expr):
        seen.append(expr)
        return expr.group != "C2"

    run = harness._each(lambda expr: [harness._counterexample(dsl.build(expr), "kept")],
                        where, ("GR(Z2,C2)", "GR(Z2,C3)", "GR(Z3,C2)", "GR(Z3,C3)"))
    size, bad, _ = run(rings("Z4", "GR(Z3,C2)", "GR(Z2,C3)", "GR(Z3,C3)"))
    assert all(isinstance(expr, dsl.GroupRing) for expr in seen)
    assert [dsl.print_expr(expr) for expr in seen] == ["GR(Z2,C3)", "GR(Z3,C2)", "GR(Z3,C3)"]
    assert size == 2 and [c["ring"] for c in bad] == ["GR(Z2,C3)", "GR(Z3,C3)"]
    assert harness._each(lambda expr: [], instances=("GR(Z2,C2)", "Z5"))(None)[0] == 2


def test_each_reports_every_counterexample_of_a_ring_sorted(monkeypatch):
    # two counterexamples for one ring both reach the report, and run_check
    # sorts them by ring label, keeping each ring's own order
    def test(r):
        if r.order % 3:
            return []
        return [harness._counterexample(r, "first"), harness._counterexample(r, "second")]

    monkeypatch.setitem(harness.CHECKS, "T-each", ("statement", harness._each(test)))
    result = harness.run_check("T-each", rings("Z9", "Z4", "Z6", "Z12"))
    assert not result.verdict and result.scope_size == 4
    assert [(c["ring"], c["notes"]) for c in result.counterexamples] == [
        ("Z12", "first"), ("Z12", "second"), ("Z6", "first"), ("Z6", "second"),
        ("Z9", "first"), ("Z9", "second")]


def test_each_with_an_empty_scope_is_a_vacuous_pass(monkeypatch):
    def test(item):
        raise AssertionError("nothing is in scope")

    monkeypatch.setitem(harness.CHECKS, "T-none", (
        "statement", harness._each(test, where=lambda r: r.order > 100, notes="large")))
    monkeypatch.setitem(harness.CHECKS, "T-no-instances", (
        "statement", harness._each(test, instances=("M(2,Z2)",))))
    for check_id, notes in (("T-none", "large; warning: empty scope, vacuous pass"),
                            ("T-no-instances", "warning: empty scope, vacuous pass")):
        result = harness.run_check(check_id, rings("Z2", "Z4"))
        assert result.verdict and result.scope_size == 0 and result.counterexamples == []
        assert result.notes == notes


def test_run_check_deterministic_json():
    a = harness.run_check("T3.5", rings("Z12", "Z16", "T(2,Z2)")).to_json()
    b = harness.run_check("T3.5", rings("Z12", "Z16", "T(2,Z2)")).to_json()
    assert a == b
    assert a["runtime_ms"] == 0  # timings are opt-in so reports stay stable


def test_timings_opt_in():
    result = harness.run_check("T3.8", include_timings=True)
    assert result.runtime_ms >= 0


def test_ideals_inside_radical(zmod):
    Z16 = dsl.build_str("Z16")
    ideals = harness.ideals_inside_radical(Z16)
    # chains 0 < 8Z < 4Z < 2Z inside J(Z16) = 2Z
    sizes = sorted(int(i.sum()) for i in ideals)
    assert sizes == [1, 2, 4, 8]
    for ideal in ideals:
        assert core.is_ideal(Z16, ideal)
        assert set(members(ideal)) <= set(members(subsets.jacobson_mask(Z16)))


@pytest.mark.parametrize("expr", ["Z16", "K(Z4,s=0)", "Prod(Z8,Z27)", "FM(2,Z4,s=2)",
                                  "T(2,Z4)", "Z64", "DT(Z3,Z3)", "K(Z4,s=2)"])
def test_ideals_inside_radical_matches_closure_lattice(expr):
    R = dsl.build_str(expr)
    got = [members(ideal) for ideal in harness.ideals_inside_radical(R)]
    want = [members(ideal)
            for ideal in oracles.closure_lattice_ideals(R, subsets.jacobson_mask(R))]
    assert got == want


@pytest.mark.parametrize("expr", ["Z64", "DT(Z3,Z3)", "K(Z4,s=2)", "T(2,Z4)"])
def test_ideals_inside_radical_closes_once_per_unit_orbit(expr, monkeypatch):
    R = dsl.build_str(expr)
    jac = subsets.jacobson_mask(R)
    orbits = oracles.naive_unit_orbits(R, jac)
    assert len(orbits) < jac.sum()          # orbits merge, so closures are skipped
    real = core.ideal_generated
    seeds = []

    def counted(ring, gens):
        seeds.append(list(gens))
        return real(ring, gens)

    subsets.unit_mask(R)
    monkeypatch.setattr(core, "ideal_generated", counted)
    harness.ideals_inside_radical(R)
    # one closure per orbit, seeded with the orbit's smallest member
    assert seeds == [[orbit[0]] for orbit in orbits]


def test_projection_kernel_equals_ideal_over_full_lattices():
    for expr in ("Z12", "Z16", "Z30", "GF(8)", "T(2,Z2)", "M(2,Z2)",
                 "GR(Z2,C2)", "Prod(Z2,Z2,Z2)", "TruncSkew(Z3,id,2)"):
        R = dsl.build_str(expr)
        for ideal in oracles.closure_lattice_ideals(R):
            if ideal.all():
                continue
            quotient, proj = core.quotient_ring(R, ideal)
            assert proj.is_surjective, expr
            assert np.array_equal(proj.kernel(), ideal), expr
            assert quotient.order * ideal.sum() == R.order, expr


def test_search_classes_examples():
    found = harness.search_classes(["2-delta-u"], ["delta-u"], max_order=16)
    assert "Z3" in found
    empty = harness.search_classes(["delta-u"], ["uj"], max_order=64)
    assert empty == []
    with pytest.raises(UnknownClass):
        harness.search_classes(["no-such-class"], [])


def test_search_sorted_by_order_then_label():
    found = harness.search_classes(["2-delta-u"], ["delta-u"], max_order=32)
    orders = [dsl.build_str(label).order for label in found]  # labels are expressions
    assert orders == sorted(orders)


def test_oracle_check_detects_sabotage(monkeypatch):
    ring_list = rings("Z8", "Z12")
    result = harness.run_check("T-oracle", ring_list)
    assert result.verdict

    import deltaring.subsets as subsets_mod
    real = subsets_mod.delta_mask

    def corrupted(ring):
        out = real(ring)
        if ring.label == "Z12":
            out = out.copy()
            out[1] = True  # claim 1 is in the delta set
        return out

    monkeypatch.setattr(subsets_mod, "delta_mask", corrupted)
    bad = harness.run_check("T-oracle", ring_list)
    assert not bad.verdict
    assert bad.counterexamples[0]["ring"] == "Z12"


@pytest.mark.parametrize("check_id", list(harness.CHECKS))
def test_subring_checks_copy_no_catalog_tables(check_id, monkeypatch):
    # every check, run on fresh memos of the catalog rings, traces less than
    # 2 MiB.  T-oracle's unit subrings and T3.7's corners at the identity are
    # the whole ring for most of the catalog; they share its tables instead
    # of copying them (24 MiB and 4.6 MiB traced when copied)
    fresh = [core._relabel(R, R.label) for R in harness.catalog_rings()]
    result, runs, memo = [], [0], subsets._memo

    def counted(ring, key, compute, shared=True):     # a list of each run would be traced
        def run():
            runs[0] += 1
            return compute()
        return memo(ring, key, run, shared)

    monkeypatch.setattr(subsets, "_memo", counted)
    assert traced_peak(lambda: result.append(harness.run_check(check_id, fresh))) < 2 << 20
    assert result[0].verdict
    if check_id in ("T-oracle", "T3.7"):
        assert result[0].scope_size > 50 and runs[0] > result[0].scope_size


def test_mutation_sensitivity_single_cells(zmod):
    # corrupting any single table cell of a small catalog ring must be caught
    for expr in ("Z6", "GF(4)", "T(2,Z2)"):
        R = dsl.build_str(expr)
        n = R.order
        for table_name in ("add", "mul"):
            table = getattr(R, table_name)
            for i in range(n):
                for j in range(n):
                    corrupt = np.array(table)
                    corrupt[i, j] = (corrupt[i, j] + 1) % n
                    add = corrupt if table_name == "add" else R.add
                    mul = corrupt if table_name == "mul" else R.mul
                    with pytest.raises(core.AxiomViolation):
                        core.validate_ring(add, mul, R.zero, R.one)


def test_run_all_subset_and_summary():
    sample = rings("Z2", "Z3", "Z4", "Z6", "Z9", "GF(4)", "M(2,Z2)", "T(2,Z2)")
    results = harness.run_all(sample)
    assert all(r.verdict for r in results)
    text = harness.summary(results)
    assert f"{len(results)}/{len(results)} checks passed" in text


def test_run_all_parallel_matches_serial():
    sample = rings("Z2", "Z4", "Z6", "Z9", "GF(4)", "T(2,Z2)")
    serial = harness.results_to_json(harness.run_all(sample, threads=1))
    parallel = harness.results_to_json(harness.run_all(sample, threads=4))
    assert serial == parallel


def test_verify_all_report_matches_golden():
    # the whole-catalog report, byte for byte as the copied per-check
    # runners wrote it before the combinators replaced them
    golden = (GOLDEN / "verify_all.json").read_text()
    assert harness.results_to_json(harness.run_all()) + "\n" == golden


def test_catalog_labels_pinned():
    golden = json.loads((GOLDEN / "catalog_labels.json").read_text())
    assert [label for label, _ in dsl.catalog()] == golden


def test_agree_reports_rings_where_forms_differ():
    scope, bad, notes = harness._agree(("boolean", "2-delta-u"))(rings("Z2", "Z3"))
    assert (scope, notes) == (2, "")
    assert bad == [{"ring": "Z3",
                    "notes": "equivalence broken: {'boolean': False, '2-delta-u': True}",
                    "witness": []}]

    run = harness._agree(("regular+reduced", "tripotent"),
                         (lambda r: r.order < 4, "order at least 4"), "n")
    scope, bad, notes = run(rings("Z2", "Z3", "Z4"))
    assert (scope, notes) == (3, "n")
    assert bad == [{"ring": "Z4", "notes": "order at least 4", "witness": []}]


def test_transfer_reports_constructions_that_differ_from_parts():
    run = harness._transfer(["M(2,Z2)"], "n")
    assert run(rings("M(2,Z2)")) == (1, [{"ring": "M(2,Z2)",
                                          "notes": "construction=False, parts=True",
                                          "witness": []}], "n")
    assert run(rings("Z2")) == (0, [], "n")
    # M(2,Z2) is not 2-delta-u, so the "only if" half holds
    assert harness._transfer(["M(2,Z2)"], "", one_way=True)(rings("M(2,Z2)"))[1] == []
    side = harness._transfer(["Prod(Z2,Z3)"], "", side=lambda expr, built, parts:
                             f"{built.label} from {[p.label for p in parts]}")
    assert side(None)[1] == [{"ring": "Prod(Z2,Z3)", "notes": "Prod(Z2,Z3) from ['Z2', 'Z3']",
                              "witness": []}]


def test_cold_run_all_builds_each_ring_once_under_threads(monkeypatch, tmp_path):
    # forked workers inherit both wrappers and append to the same log: one
    # line per ring validation (process id and label), and one when the
    # worker pool is made, before any worker starts
    log = tmp_path / "validations.log"

    def note(label):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\t{label}\n")

    real = core._validated_ring

    def logged(*args):
        note(args[4])
        return real(*args)

    class NotedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            note("<pool>")
            super().__init__(*args, **kwargs)

    def cold_rows(run):
        dsl.clear_build_cache()
        harness.catalog_rings.cache_clear()
        log.write_text("")
        run()
        return [tuple(line.split("\t")) for line in log.read_text().splitlines()]

    monkeypatch.setattr(core, "_validated_ring", logged)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NotedPool)
    parent = str(os.getpid())
    scope = cold_rows(harness.catalog_rings)
    assert scope and len(set(scope)) == len(scope)
    for threads in (1, 2):
        rows = cold_rows(lambda: harness.run_all(threads=threads))
        # no process validates any ring twice
        assert len(set(rows)) == len(rows), threads
        if threads == 1:
            assert (parent, "<pool>") not in rows
            continue
        # the scope is validated in the parent, each ring once, before the
        # pool; no worker validates a scope ring again
        pool_at = rows.index((parent, "<pool>"))
        assert rows[:pool_at] == scope
        assert not {label for _, label in rows[pool_at + 1:]} & {label for _, label in scope}
        assert {pid for pid, _ in rows[pool_at + 1:]} - {parent}


def test_run_all_caps_workers_at_the_check_count(monkeypatch):
    made = []

    class InProcessPool:
        # records its size and runs each submission at once, in this process
        def __init__(self, max_workers, mp_context=None):
            made.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    sample = rings("Z2", "Z4", "GF(4)")
    serial = harness.results_to_json(harness.run_all(sample))
    assert made == []
    assert harness.results_to_json(harness.run_all(sample, threads=10_000)) == serial
    assert made == [len(harness.check_ids())]


def test_run_all_submits_the_longest_checks_first(monkeypatch):
    submitted = []

    class InProcessPool:
        # records the submitted check ids and runs each at once, in this process
        def __init__(self, max_workers, mp_context=None):
            pass

        def submit(self, fn, check_id):
            submitted.append(check_id)
            future = concurrent.futures.Future()
            future.set_result(fn(check_id))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    results = harness.run_all(rings("Z2", "Z4", "GF(4)"), threads=2)
    longest = list(harness._LONGEST)
    assert submitted[:len(longest)] == longest
    assert sorted(submitted) == sorted(harness.check_ids())
    assert [r.check_id for r in results] == harness.check_ids()


def test_run_all_leaves_no_worker_running():
    sample = rings("Z2", "Z4", "GF(4)")
    assert all(r.verdict for r in harness.run_all(sample, threads=2))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [AxiomViolation("mul-identity", (1, 2)),
                                   HomViolation("coset", (3, 4)),
                                   ExprSyntaxError(5, "')'")],
                         ids=lambda e: type(e).__name__)
def test_run_all_passes_a_worker_error_on_intact(error, monkeypatch):
    def broken(rings):
        raise error

    monkeypatch.setitem(harness.CHECKS, "T3.8", (harness.CHECKS["T3.8"][0], broken))
    with pytest.raises(type(error)) as raised:
        harness.run_all(rings("Z2", "Z4"), threads=2)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert vars(raised.value) == vars(error)
    assert multiprocessing.active_children() == []
