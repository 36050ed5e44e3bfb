"""Spans and counts around the public functions of each kernel layer.

The kernel modules import each other's functions by name
(``from .syntax import alpha_eq``), so a wrapper installed only in the
home module would miss those callers.  ``install`` therefore rebinds every
``cattsa.*`` module attribute that is one of the listed functions, with a
wrapper that knows the module it was called through.

A span is opened per call; a call made while the innermost open span
belongs to the same function (direct recursion) joins that span.  A
layer's self time is the time of its spans minus the time of their child
spans.  Names missing from a home module are reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "parser": ("cattsa.parser", ("parse", "parse_telescope")),
    "cli": ("cattsa.cli", ("elaborate_file", "elaborate_decl")),
    "typecheck": ("cattsa.typecheck", (
        "check_ctx", "check_type", "check_term", "infer_term", "infer_report",
    )),
    "reduction": ("cattsa.reduction", ("normalize", "def_eq", "step_candidates")),
    "insertion": ("cattsa.insertion", ("insert_ctx", "insert_sub")),
    "pasting": ("cattsa.pasting", (
        "check_pd", "is_pasting", "is_unbiased", "maximal_vars", "unbiased_type",
        "boundary_ctx",
    )),
    "trees": ("cattsa.trees", (
        "ctx_to_tree", "branching_height", "linear_height", "is_linear",
    )),
    "syntax": ("cattsa.syntax", ("alpha_eq", "support", "term_boundary", "compose_sub")),
}


def _kernel_modules():
    for home, _ in LAYERS.values():
        try:
            importlib.import_module(home)
        except ModuleNotFoundError:
            pass  # its names are reported as absent
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cattsa" or name.startswith("cattsa."))]


def _rebind(make_wrapper) -> tuple[list, list[str]]:
    """Replace each listed function in every kernel module by
    make_wrapper(layer, name, site, original); return the undo list and
    the absent names."""
    modules = _kernel_modules()
    originals: dict[int, tuple[str, str]] = {}
    absent: list[str] = []
    for layer, (home, names) in LAYERS.items():
        mod = sys.modules.get(home)
        for name in names:
            fn = getattr(mod, name, None) if mod is not None else None
            if fn is None:
                absent.append(f"{home}.{name}")
            else:
                originals[id(fn)] = (layer, name)
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value)) if callable(value) else None
            if hit is None:
                continue
            layer, name = hit
            setattr(mod, attr, make_wrapper(layer, name, mod.__name__, value))
            undo.append((mod, attr, value))
    return undo, absent


def _restore(undo) -> None:
    for mod, attr, value in undo:
        setattr(mod, attr, value)


class Tracer:
    """Per-layer self time and call counts from spans at layer boundaries."""

    def __init__(self) -> None:
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.calls: dict[str, int] = {}  # "layer.function" -> spans
        self.site_calls: dict[str, int] = {}  # "module:function" -> spans
        self.absent: list[str] = []
        self._stack: list[list] = []  # [original function, child ns]
        self._undo: list = []

    def install(self) -> None:
        self._undo, self.absent = _rebind(self._wrap)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def _wrap(self, layer: str, name: str, site: str, orig):
        stack = self._stack
        self_ns, calls, site_calls = self.self_ns, self.calls, self.site_calls
        key = f"{layer}.{name}"
        site_key = f"{site}:{name}"

        def span(*args, **kwargs):
            if stack and stack[-1][0] is orig:
                return orig(*args, **kwargs)
            frame = [orig, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                self_ns[layer] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                calls[key] = calls.get(key, 0) + 1
                site_calls[site_key] = site_calls.get(site_key, 0) + 1

        span.__wrapped__ = orig
        return span

    def summary(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "site_calls": dict(self.site_calls),
            "absent": list(self.absent),
        }


class StepCounter:
    """Counts reduction steps and normal-form nodes through ``normalize``.

    Every call gets a ``trace=`` list (the caller's own, when it passed
    one), and the steps are the lines appended to it.  This renders each
    step, so it runs in a pass of its own and is never timed.
    """

    def __init__(self, node_count) -> None:
        self.steps = 0
        self.nf_nodes = 0
        self.normalize_calls = 0
        self.absent: list[str] = []
        self._node_count = node_count
        self._undo: list = []

    def install(self) -> None:
        def make(layer, name, site, orig):
            if name != "normalize":
                return orig

            def counted(ctx, item, *args, trace=None, **kwargs):
                lines = [] if trace is None else trace
                before = len(lines)
                out = orig(ctx, item, *args, trace=lines, **kwargs)
                self.steps += len(lines) - before
                self.nf_nodes += self._node_count(out)
                self.normalize_calls += 1
                return out

            counted.__wrapped__ = orig
            return counted

        self._undo, absent = _rebind(make)
        self.absent = [a for a in absent if a.endswith(".normalize")]

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def summary(self) -> dict:
        return {
            "steps": self.steps,
            "nf_nodes": self.nf_nodes,
            "normalize_calls": self.normalize_calls,
            "absent": list(self.absent),
        }


def merge(total: dict, part: dict) -> dict:
    """Add the numbers of one summary into another, key by key."""
    for key, value in part.items():
        if isinstance(value, dict):
            merge(total.setdefault(key, {}), value)
        elif isinstance(value, list):
            seen = total.setdefault(key, [])
            seen.extend(v for v in value if v not in seen)
        else:
            total[key] = total.get(key, 0) + value
    return total
