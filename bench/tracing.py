"""Run-time span tracing of sigmaprod's public functions, from outside ``src/``.

``install`` wraps the functions each layer exposes and rebinds every module
attribute that refers to them, so calls made through a name imported with
``from .clopen import box_intersect`` are traced too.  Spans are kept in
memory in compact arrays (name, parent, request, start, end) and written out
by ``write``; self time (a span's duration minus its children's) is
accumulated as spans close, so the totals stay exact even beyond the span cap.
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

SPAN_CAP = 1_000_000
ROOT = "request"

LAYERS = ("cli", "ground", "clopen", "classification", "uec", "averaging", "deltasystem")

# (module, attribute, span name); several functions may share one span name
FUNCTIONS = (
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "render", "cli.render"),
    ("ground", "point_in_ambient", "ground.point_in_ambient"),
    ("ground", "parse_point", "ground.parse"),
    ("ground", "parse_tau", "ground.parse"),
    ("ground", "parse_descriptor", "ground.parse"),
    ("clopen", "box_intersect", "clopen.box_intersect"),
    ("clopen", "box_is_empty", "clopen.box_is_empty"),
    ("clopen", "box_contains", "clopen.box_contains"),
    ("clopen", "box_subset", "clopen.box_subset"),
    ("clopen", "box_reduce", "clopen.box_reduce"),
    ("clopen", "parse_box", "clopen.parse_box"),
    ("clopen", "preimage_under_union", "clopen.preimage_under_union"),
    ("classification", "classify", "classification.classify"),
    ("classification", "cb_invariants", "classification.cb_invariants"),
    ("classification", "decompose_absorb_small", "classification.decompose"),
    ("classification", "decompose_classif_k", "classification.decompose"),
    ("classification", "check_pairwise_disjoint", "classification.check_pairwise_disjoint"),
    ("classification", "check_sample_membership", "classification.check_sample_membership"),
    ("classification", "limit_neighborhood_boxes", "classification.limit_neighborhood_boxes"),
    ("classification", "check_limit_cofinite", "classification.check_limit_cofinite"),
    ("classification", "decomposition_to_json", "classification.decomposition_to_json"),
    ("uec", "phi_preimage", "uec.phi_preimage"),
    ("uec", "best_phi_preimage", "uec.best_phi_preimage"),
    ("uec", "phi", "uec.phi"),
    ("uec", "pipeline_check", "uec.pipeline_check"),
    ("averaging", "build_operator", "averaging.build_operator"),
    ("averaging", "operator_to_json", "averaging.operator_to_json"),
    ("deltasystem", "extract_delta_system", "deltasystem.extract_delta_system"),
    ("deltasystem", "_extract_exact", "deltasystem.extract_exact"),
    ("deltasystem", "_er_extract", "deltasystem.extract_greedy"),
    ("deltasystem", "common_point_witness", "deltasystem.common_point_witness"),
)

METHODS = (
    ("averaging", "AveragingOperator", "check", "averaging.check"),
    ("averaging", "AveragingOperator", "apply", "averaging.apply"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.self_ns: list = []
        self.incl_ns: list = []
        self.calls: list = []
        self.counters = {"boxes_built": 0, "disjoint_boxes": 0, "disjoint_pairs": 0,
                         "membership_contains": 0, "membership_samples": 0,
                         "preimage_solutions": 0, "best_candidates": 0, "in_best": 0}
        self.request = 0
        self.child_ns: list = []   # open spans: time covered by their children
        self.open_idx: list = []   # open spans: index in the span arrays, or -1
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_request = array("I")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self._undo: list = []
        self._root = self.wrap(lambda fn: fn(), ROOT)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.calls.append(0)
        return self.ids[name]

    def wrap(self, fn, name: str, enter=None, leave=None):
        nid = self._id(name)
        clock = time.perf_counter_ns
        child_ns, open_idx = self.child_ns, self.open_idx
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        self_ns, incl_ns, calls = self.self_ns, self.incl_ns, self.calls
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter(args) if enter else None
            t0 = clock()
            if len(starts) < SPAN_CAP:
                idx = len(starts)
                names.append(nid)
                parents.append(open_idx[-1] if open_idx else -1)
                requests.append(tracer.request)
                starts.append(t0)
                ends.append(t0)
            else:
                idx = -1
                tracer.dropped += 1
            open_idx.append(idx)
            child_ns.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                self_ns[nid] += dur - child_ns.pop()
                incl_ns[nid] += dur
                calls[nid] += 1
                open_idx.pop()
                if child_ns:
                    child_ns[-1] += dur
                if idx >= 0:
                    ends[idx] = t1
            if leave:
                leave(token, args, result)
            return result

        return traced

    def run(self, fn):
        """Run one request under a root span; its self time is uninstrumented time."""
        self.request += 1
        return self._root(fn)

    # -- installation -------------------------------------------------------

    def _rebind(self, orig, new):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("sigmaprod"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append(functools.partial(setattr, mod, key, orig))

    def install(self, lib):
        c = self.counters
        contains = self._id("clopen.box_contains")

        def disjoint_leave(boxes_before, args, result):
            pieces = len(args[0].pieces)
            c["disjoint_boxes"] += c["boxes_built"] - boxes_before
            c["disjoint_pairs"] += pieces * (pieces - 1) // 2

        def membership_leave(contains_before, args, result):
            c["membership_contains"] += self.calls[contains] - contains_before
            c["membership_samples"] += args[1]

        def best_enter(args):
            c["in_best"] += 1

        def best_leave(token, args, result):
            c["in_best"] -= 1

        def preimage_leave(token, args, result):
            c["preimage_solutions"] += len(result)
            if c["in_best"]:
                c["best_candidates"] += len(result)

        # (enter, leave) around a function: enter's return value reaches leave
        hooks = {
            "check_pairwise_disjoint": (lambda args: c["boxes_built"], disjoint_leave),
            "check_sample_membership": (lambda args: self.calls[contains], membership_leave),
            "best_phi_preimage": (best_enter, best_leave),
            "phi_preimage": (None, preimage_leave),
        }
        for module, attr, name in FUNCTIONS:
            orig = getattr(getattr(lib, module), attr)
            enter, leave = hooks.get(attr, (None, None))
            self._rebind(orig, self.wrap(orig, name, enter, leave))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(getattr(lib, module), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(orig, name))
            self._undo.append(functools.partial(setattr, cls, attr, orig))
        handlers = lib.cli._HANDLERS
        for key, fn in list(handlers.items()):
            handlers[key] = self.wrap(fn, "cli.handler")
            self._undo.append(functools.partial(handlers.__setitem__, key, fn))
        box_cls = lib.clopen.BasicBox
        post_init = box_cls.__post_init__

        def counted(box):
            c["boxes_built"] += 1
            post_init(box)

        box_cls.__post_init__ = counted
        self._undo.append(functools.partial(setattr, box_cls, "__post_init__", post_init))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.self_ns[self.ids[name]] / 1e9 if name in self.ids else 0.0

    def incl_s(self, name: str) -> float:
        return self.incl_ns[self.ids[name]] / 1e9 if name in self.ids else 0.0

    def n_calls(self, name: str) -> int:
        return self.calls[self.ids[name]] if name in self.ids else 0

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(n) for n in self.names if n.startswith(layer + "."))

    def write(self, path: Path, header: dict):
        """Spans as a JSON header plus the five arrays, one after another, in binary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.span_parent, self.span_request,
                  self.span_start, self.span_end)
        meta = {**header, "names": self.names, "spans": len(self.span_start),
                "dropped": self.dropped,
                "layout": [[a.typecode, a.itemsize] for a in arrays],
                "fields": ["name", "parent", "request", "start_ns", "end_ns"]}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
        with path.open("wb") as fh:
            for a in arrays:
                a.tofile(fh)
