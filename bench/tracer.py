"""Span recorder installed around deltaring's public boundaries.

The recorder lives in the benchmark, not in the program: `install` swaps
each instrumented function for a wrapper, in its home module and in every
deltaring module that imported it by name (`dsl.validate_ring`,
`harness.check_class`, ...), and in the class registry.  Nothing is
installed unless a traced run asks for it.

Spans are aggregated as they close, per thread, so memory stays flat on
runs with tens of thousands of calls.  For each span name the recorder keeps:

- calls:     closed spans of that name;
- self_ns:   span time minus the time covered by its child spans;
- incl_ns:   span time, counted only for spans with no enclosing span of
             the same name or tag (recursion is not double counted);
- hits:      calls that the memo answered (see `install`);
- errors:    calls that raised.

Top-level spans (the launcher's import, install and main phases) are kept
one by one with their start and end times.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

SMALL_ORDER_MAX = 128

_now = time.perf_counter_ns


class Recorder:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self.top: list[tuple[str, int, int]] = []
        self.extra: dict[str, int] = {}

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            # stack of open frames, aggregates by name, active counts by name/tag
            st = ([], {}, {})
            with self._lock:
                self._tables.append(st[1])
            self._local.st = st
        return st

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.extra[key] = self.extra.get(key, 0) + amount

    @contextlib.contextmanager
    def top_span(self, name: str):
        t0 = _now()
        try:
            yield
        finally:
            self.top.append((name, t0, _now()))

    def wrap(self, fn, name_of, probe=None, on_result=None):
        """Wrapper recording one span per call.

        `name_of(args, kwargs)` gives (name, tags); `probe(args, kwargs)`
        returns a callable that, after the call, tells whether it was a memo
        hit (None: judge by the absence of child spans);
        `on_result(result)` may count what the call returned.
        """
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, agg, active = state()
            name, tags = name_of(args, kwargs)
            check = probe(args, kwargs) if probe is not None else None
            frame = [0, 0]                     # child time, child spans
            for key in (name,) + tags:
                active[key] = active.get(key, 0) + 1
            stack.append(frame)
            failed = False
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dt = _now() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += 1
                hit = frame[1] == 0 if check is None else check()
                _close(agg, active, name, dt, dt - frame[0], hit, failed)
                for tag in tags:
                    _close(agg, active, tag, dt, 0, False, failed, count=False)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def aggregates(self) -> dict[str, dict[str, int]]:
        merged: dict[str, dict[str, int]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in table.items():
                out = merged.setdefault(name, dict.fromkeys(row, 0))
                for k, v in row.items():
                    out[k] += v
        return merged


def _close(agg, active, key, dt, self_dt, hit, failed, count=True):
    row = agg.get(key)
    if row is None:
        row = agg[key] = {"calls": 0, "self_ns": 0, "incl_ns": 0, "hits": 0, "errors": 0}
    if count:
        row["calls"] += 1
        row["self_ns"] += self_dt
        row["hits"] += bool(hit)
    row["errors"] += failed
    if active[key] == 1:
        row["incl_ns"] += dt
    active[key] -= 1


# ---------------------------------------------------------------------------
# instrumented boundaries


def _fixed(name, *tags):
    pair = (name, tuple(tags))
    return lambda args, kwargs: pair


def _validate_name(args, kwargs):
    table = args[0] if args else kwargs["add"]
    bucket = "small" if len(table) <= SMALL_ORDER_MAX else "large"
    return f"core.validate.{bucket}", ()


def _ring_memo_probe(args, kwargs):
    """Memo hit: the ring's memo gained no entry during the call."""
    memo = getattr(args[0], "_cache", None) if args else None
    if memo is None:
        return lambda: False
    before = len(memo)
    return lambda: len(memo) == before


def _run_check_name(args, kwargs):
    check_id = args[0] if args else kwargs["check_id"]
    return f"harness.run_check.{check_id}", ()


_CONSTRUCTIONS = (
    "direct_product", "matrix_ring", "upper_triangular", "identity_endomorphism",
    "truncated_skew_poly", "trivial_extension", "dt_extension", "formal_triangular",
    "trivial_morita", "generalized_matrix", "formal_matrix", "group_ring",
    "augmentation", "validate_bimodule", "regular_bimodule", "zero_bimodule",
    "validate_group", "cyclic_group", "klein_group", "symmetric3_group", "group_catalog",
)

_SUBSETS = {
    "unit_mask": "units", "units": "units",
    "jacobson_mask": "jacobson", "jacobson_radical": "jacobson",
    "delta_mask": "delta", "delta_set": "delta",
    "prime_radical": "prime_radical",
    "quasinilpotent_mask": "quasinilpotents", "quasinilpotents": "quasinilpotents",
    "radical_quotient": "radical_quotient",
    "unit_subring": "unit_subring", "unit_subring_elements": "unit_subring",
}


def install(rec: Recorder) -> list[str]:
    """Wrap every boundary that exists in the loaded program; return the
    names of boundaries that were not found (reported, never fatal)."""
    import sys

    from deltaring import constructions, core, dsl, harness, predicates, subsets

    replaced: dict[int, tuple] = {}
    missing: list[str] = []

    def patch(module, attr, name_of, probe=None, on_result=None):
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = rec.wrap(fn, name_of, probe, on_result)
        replaced[id(fn)] = (fn, wrapper)

    def on_as_table(args, kwargs):
        if rec._state()[2].get("core.ring_from_json"):
            return "core.ring_from_json.as_table", ()
        return "core.as_table", ()

    patch(core, "validate_ring", _validate_name)
    patch(core, "_as_table", on_as_table)
    for attr in ("ideal_generated", "quotient_ring", "validate_hom", "subring_generated",
                 "induced_subring", "corner_ring", "ring_from_json"):
        patch(core, attr, _fixed(f"core.{attr}"))
    patch(dsl, "parse", _fixed("dsl.parse"))
    patch(dsl, "build", _fixed("dsl.build"))
    for attr in _CONSTRUCTIONS:
        patch(constructions, attr, _fixed("constructions"))
    for attr, set_name in _SUBSETS.items():
        patch(subsets, attr, _fixed(f"subsets.{set_name}"), probe=_ring_memo_probe)
    patch(predicates, "check_class", _fixed("predicates.check_class"))
    patch(harness, "ideals_inside_radical", _fixed("harness.ideals_inside_radical"),
          on_result=lambda ideals: rec.add("harness.ideals_found", len(ideals)))
    patch(harness, "catalog_rings", _fixed("harness.catalog_rings"))
    patch(harness, "run_check", _run_check_name)

    # Category scans are reached through the class registry; semiregular is
    # also tagged on its own because it re-validates R/J.
    registry = getattr(predicates, "CLASS_REGISTRY", {})
    by_fn: dict[int, object] = {}
    for key, (category, fn) in list(registry.items()):
        if id(fn) not in by_fn:
            def name_of(args, kwargs, _cat=category):
                kind = args[1] if len(args) > 1 else kwargs.get("kind", kwargs.get("cls"))
                tags = ("predicates.semiregular",) if kind == "semiregular" else ()
                return f"predicates.{_cat}", tags
            wrapper = rec.wrap(fn, name_of)
            by_fn[id(fn)] = wrapper
            replaced[id(fn)] = (fn, wrapper)
        registry[key] = (category, by_fn[id(fn)])

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "deltaring" or mod_name.startswith("deltaring.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing
