"""Per-function call counts and self time, recorded from outside fanoweb.

install() replaces each listed public function in every loaded fanoweb.*
namespace that binds it with a wrapper. A wrapper's self time is the CPU time
of its thread during the call minus that spent in wrapped functions it
called. Nothing in the
program is edited; a function the program no longer has is reported as
absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import thread_time_ns

FUNCTIONS = {
    "lattice": ("saturate_span", "in_span", "quotient_projection", "smith_normal_form"),
    "polytopes": ("hull", "lattice_points", "in_class", "classify", "normal_form", "primitive_points"),
    "genset": ("fiber_structure_for", "fiber_structures", "mori_fiber_structures",
               "polytope_reduction", "positively_spans"),
    "links": ("validate_link", "validate_sequence", "enumerate_links", "conjugate", "sequence_panels"),
    "web": ("connect", "verify_certificate", "mmp_reduce", "to_standard_form", "match_standard",
            "factor_unimodular", "bfs_connect", "enumerate_class_polygons", "enumerate_fano"),
    "jsonio": ("certificate_to_json", "certificate_from_json", "polytope_from_json"),
    "cli": ("main",),
}

NAMES = tuple(f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_ns = dict.fromkeys(NAMES, 0)
        self.absent = []
        self.valid_links = 0
        self.lattice_cells = 0
        self._stack = [0]

    def _wrap(self, name, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0)
            t0 = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = thread_time_ns() - t0
                self_ns[name] += dt - stack.pop()
                stack[-1] += dt
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        if name == "links.validate_link":
            self.valid_links += bool(getattr(result, "ok", False))
        elif name == "polytopes.lattice_points" and args:
            cells = 1
            for axis in zip(*args[0].vertices):
                cells *= max(axis) - min(axis) + 1
            self.lattice_cells += cells

    def install(self):
        for module, fns in FUNCTIONS.items():
            try:
                mod = importlib.import_module(f"fanoweb.{module}")
            except ImportError:
                self.absent.extend(f"{module}.{f}" for f in fns)
                continue
            for f in fns:
                orig = getattr(mod, f, None)
                if orig is None:
                    self.absent.append(f"{module}.{f}")
                    continue
                wrapper = self._wrap(f"{module}.{f}", orig)
                for name, loaded in list(sys.modules.items()):
                    if loaded is None or not (name == "fanoweb" or name.startswith("fanoweb.")):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is orig:
                            setattr(loaded, attr, wrapper)

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "absent": list(self.absent),
            "valid_links": self.valid_links,
            "lattice_cells": self.lattice_cells,
        }
