"""In-memory spans and counters around the public functions of each solgenus layer.

The wrappers are installed from the benchmark, at every module binding of
each function (`cli`, `genus`, `ideals`, `forms` and `conjugacy` import names
from each other), and removed again between traced and untraced rounds.
Nothing in `src/` is edited.  A span is (id, name, start, end, parent id,
item id); a layer's self time is its spans' time minus the time of their
direct child spans.
"""
from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function, span name); the three renderers share one span name
LAYERS = (
    ("solgenus.orders", "disc_from_int", "orders.disc_from_int"),
    ("solgenus.forms", "class_set", "forms.class_set"),
    ("solgenus.ideals", "lm_representatives", "ideals.lm_representatives"),
    ("solgenus.conjugacy", "are_conjugate_gl2z", "conjugacy.are_conjugate_gl2z"),
    ("solgenus.conjugacy", "brute_force_conjugator", "conjugacy.brute_force_conjugator"),
    ("solgenus.conjugacy", "are_conjugate_mod_m", "conjugacy.are_conjugate_mod_m"),
    ("solgenus.genus", "genus", "genus.genus"),
    ("solgenus.cli", "render_json", "cli.render"),
    ("solgenus.cli", "render_rows_csv", "cli.render"),
    ("solgenus.cli", "genus_report_dict", "cli.render"),
)
ROOT = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [name for _, _, name in LAYERS]))

# per-layer metrics: name -> unit; values are per item of the traced rounds
COUNTERS = {
    "orders.disc_from_int.calls": "calls/item",
    "forms.class_set.calls": "calls/item",
    "forms.class_set.distinct": "calls/item",
    "forms.reduced_forms": "forms/item",
    "forms.classes": "classes/item",
    "ideals.lm_representatives.calls": "calls/item",
    "conjugacy.are_conjugate_gl2z.calls": "calls/item",
    "conjugacy.are_conjugate_gl2z.witnesses": "witnesses/item",
    "conjugacy.brute_force_conjugator.calls": "calls/item",
    "conjugacy.brute_force_conjugator.cells": "cells/item",
    "conjugacy.are_conjugate_mod_m.calls": "calls/item",
    "conjugacy.modular_cells": "cells/item",
    "genus.genus.calls": "calls/item",
}


def _prime_powers(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    return out + ([m] if m > 1 else [])


def _class_set_counts(tracer: "Tracer", args, kwargs, result) -> None:
    disc = args[0] if args else kwargs["disc"]
    mode = args[1] if len(args) > 1 else kwargs.get("mode")
    key = (getattr(disc, "D", disc), mode)
    if key in tracer.item_keys:
        return
    tracer.item_keys.add(key)
    tracer.counts["forms.class_set.distinct"] += 1
    tracer.counts["forms.classes"] += len(result.reps)
    tracer.counts["forms.reduced_forms"] += sum(len(m) for m in result.class_members)


def _witness_counts(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["conjugacy.are_conjugate_gl2z.witnesses"] += result is not None


def _brute_counts(tracer: "Tracer", args, kwargs, result) -> None:
    # computed, not counted: the scan evaluates one (2b+1)^3 slab per value of
    # p11 up to the first witness
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    side = 2 * bound + 1
    slabs = side if result.witness is None else result.witness.P.a + bound + 1
    tracer.counts["conjugacy.brute_force_conjugator.cells"] += slabs * side**3


def _modular_counts(tracer: "Tracer", args, kwargs, result) -> None:
    # computed: one q^4 grid per prime-power part q of m (the scan's cache may serve some)
    m = args[2] if len(args) > 2 else kwargs["m"]
    tracer.counts["conjugacy.modular_cells"] += sum(q**4 for q in _prime_powers(m))


HOOKS = {
    "forms.class_set": _class_set_counts,
    "conjugacy.are_conjugate_gl2z": _witness_counts,
    "conjugacy.brute_force_conjugator": _brute_counts,
    "conjugacy.are_conjugate_mod_m": _modular_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stack: list[int] = [0]  # 0: no parent
        self.counts: dict[str, int] = defaultdict(int)
        self.item = 0
        self.item_keys: set = set()
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent, self.item))

    def begin_item(self, item: int) -> None:
        self.item = item
        self.item_keys = set()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, hook = self, HOOKS.get(name)
        calls = f"{name}.calls"

        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every solgenus module attribute that is one of the layer functions."""
        modules = [m for k, m in list(sys.modules.items()) if k == "solgenus" or k.startswith("solgenus.")]
        for modname, fname, span in LAYERS:
            fn = getattr(importlib.import_module(modname), fname, None)
            if fn is None:
                if f"{modname}.{fname}" not in self.missing:
                    self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(span, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _item in self.spans:
            child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for sid, name, start, end, _parent, _item in self.spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
        return total, own

    def metrics(self, items: int, overhead_pct: float) -> dict[str, dict]:
        total, own = self.layer_times()
        out = {name: {"value": self.counts.get(name, 0) / items, "unit": unit} for name, unit in COUNTERS.items()}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = {"value": total.get(name, 0.0) / items, "unit": "s/item"}
            out[f"{name}.self_s"] = {"value": own.get(name, 0.0) / items, "unit": "s/item"}
        out["trace.spans"] = {"value": len(self.spans) / items, "unit": "spans/item"}
        out["trace.overhead"] = {"value": overhead_pct, "unit": "%"}
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
