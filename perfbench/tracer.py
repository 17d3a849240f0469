"""Outside-in tracer: wraps the package's public functions without editing them.

The package binds names with `from .x import y`, so a function has one binding
per importing module. install() replaces every binding of every wrapped
function (and the methods CycleType.power and both __post_init__ hooks) with
one shared wrapper, and uninstall() puts the originals back.

Each wrapped call is a span (name, start, end, parent, operation id). Exact
per-name aggregates are kept for every call: calls, inclusive time (outermost
activation only, so recursion is not double counted) and self time (the
span's duration minus its child spans). Spans themselves are kept in memory
only down to SPAN_DEPTH below the operation span, up to SPAN_CAP of them, and
written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

LAYERS = ("partitions", "characters_sn", "characters_an", "spectral", "classify", "specht", "bounds", "cli")
SPAN_DEPTH = 2
SPAN_CAP = 300_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self._active: list[int] = []
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.memo_hits = 0
        self._op_names: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        self.names.append(name)
        for col, zero in ((self.calls, 0), (self.incl, 0.0), (self.self_s, 0.0), (self._active, 0)):
            col.append(zero)
        return len(self.names) - 1

    def _enter(self, nid: int) -> list:
        stack = self._stack
        idx = -1
        if len(stack) <= SPAN_DEPTH and len(self.span_name) < SPAN_CAP:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        self._active[nid] += 1
        frame = [nid, 0.0, 0.0, idx]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        nid, start, child, idx = frame
        self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self._active[nid] -= 1
        if not self._active[nid]:
            self.incl[nid] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end

    def wrap(self, name: str, fn, memo: dict | None = None):
        nid = self._nid(name)
        enter, exit_ = self._enter, self._exit
        if memo is None:
            def traced(*args, **kwargs):
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        else:
            # a call that adds no memo entry was answered from the memo
            def traced(*args, **kwargs):
                before = len(memo)
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
                    if len(memo) == before:
                        self.memo_hits += 1
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def begin_op(self, name: str) -> list:
        """Open the root span of one benchmark operation; close it with end_op."""
        self.op_id += 1
        nid = self._op_names.get(name)
        if nid is None:
            nid = self._op_names[name] = self._nid(name)
        return self._enter(nid)

    def end_op(self, frame: list) -> None:
        self._exit(frame)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"snchar.{layer}") for layer in LAYERS}
        memo = getattr(mods["characters_sn"], "_MN_CACHE", None)
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if isinstance(obj, type) or not callable(obj) or id(obj) in wrappers:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # wrapped under the module that defines it
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, memo if name == "characters_sn.chi" else None)
                originals[id(obj)] = obj
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "snchar" or mod_name.startswith("snchar.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and originals[id(val)] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        parts = mods["partitions"]
        for cls, meth in ((parts.Partition, "__post_init__"), (parts.CycleType, "__post_init__"),
                          (parts.CycleType, "power")):
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"partitions.{cls.__name__}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[i], "incl_s": self.incl[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)}

    def dump(self, path: str) -> int:
        """Write the kept spans as gzip'd JSON; returns how many were kept."""
        rows = [[self.span_name[i], self.span_parent[i], self.span_op[i],
                 round(self.span_start[i], 7), round(self.span_end[i], 7)]
                for i in range(len(self.span_name))]
        doc = {"columns": ["name", "parent", "op", "start", "end"], "names": self.names,
               "span_depth": SPAN_DEPTH, "span_cap": SPAN_CAP, "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(rows)
