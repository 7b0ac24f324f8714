"""In-memory span tracer for the hartreelab benchmark.

The tracer wraps functions from the outside: every public function of
each ``hartreelab`` module and the transform entry points of
``numpy.fft`` and ``scipy.fft``.  No file of the package is touched.
A span records its name, its parent span, its start and its end; the
spans stay in a list and are summarised when the run ends.

FFT counts are taken at the entry points: one call to ``np.fft.fftn``
on a 512x512 array is one call, however many 1-D passes it makes
inside.  A transform called from inside another traced transform is
not counted again.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

FFT_FUNCS = {
    # name: (kind, default axes); kind says which side is real-space
    # data for the flop count: "c2c" the output, "r2c" the input,
    # "c2r" the output.
    "fft": ("c2c", -1), "ifft": ("c2c", -1),
    "fft2": ("c2c", (-2, -1)), "ifft2": ("c2c", (-2, -1)),
    "fftn": ("c2c", None), "ifftn": ("c2c", None),
    "rfft": ("r2c", -1), "ihfft": ("r2c", -1),
    "rfft2": ("r2c", (-2, -1)), "ihfft2": ("r2c", (-2, -1)),
    "rfftn": ("r2c", None), "ihfftn": ("r2c", None),
    "irfft": ("c2r", -1), "hfft": ("c2r", -1),
    "irfft2": ("c2r", (-2, -1)), "hfft2": ("c2r", (-2, -1)),
    "irfftn": ("c2r", None), "hfftn": ("c2r", None),
}
FFT_MODULES = ("numpy.fft", "scipy.fft")
HOOK_SPAN = "trace.hooks"


class Tracer:
    """Collects nested spans; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counters = {}
        self.distinct = {}

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def see(self, key, item):
        """Record the identity of one call's work, for a useful-work ratio."""
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(args, kwargs, result)``
        runs after the span closes, inside a span of its own so its cost
        is charged to neither the callee nor the caller."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if hook is not None:
                hidx = len(spans)
                spans.append([HOOK_SPAN, stack[-1] if stack else -1, clock(), None])
                hook(args, kwargs, result)
                spans[hidx][3] = clock()
            return result

        return traced


def summarize(spans):
    """Aggregate spans by name.

    Returns ``(table, root_s)``.  ``table[name]`` holds ``calls``, ``s``
    (inclusive time; a recursive re-entry is not counted twice),
    ``self_s`` (duration minus the part covered by child spans) and
    ``fft_calls`` (outermost FFT spans below it).  The row ``"fft"``
    sums the outermost FFT spans.  ``root_s`` is the summed duration of
    the spans that have no parent.
    """
    child_s = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "fft_calls": 0})
    root_s = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        ancestors = _ancestor_names(spans, parent)
        row = table[name]
        row["calls"] += 1
        row["self_s"] += dur - child_s[i]
        if name not in ancestors:
            row["s"] += dur
        if parent < 0:
            root_s += dur
        if name.startswith("fft.") and not any(a.startswith("fft.") for a in ancestors):
            table["fft"]["calls"] += 1
            table["fft"]["s"] += dur
            for a in set(ancestors):
                table[a]["fft_calls"] += 1
    return dict(table), root_s


def _ancestor_names(spans, parent):
    names = []
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][1]
    return names


def check_nesting(spans):
    """Every span closed and lying inside its parent's interval."""
    for _, parent, start, end in spans:
        if end is None or end < start:
            return False
        if parent >= 0 and not spans[parent][2] <= start <= end <= spans[parent][3]:
            return False
    return True


# ---------------------------------------------------------------------------
# installation


def _input(args, kwargs):
    return args[0] if args else kwargs.get("x", kwargs.get("a"))


def _transform_size(kind, default_axes, args, kwargs, result):
    """(points per transform, number of transforms) for one call."""
    x = _input(args, kwargs)
    real_side = result if kind in ("c2c", "c2r") else x
    shape = getattr(real_side, "shape", ())
    nd = len(shape)
    if isinstance(default_axes, int):
        axes = kwargs.get("axis", args[2] if len(args) > 2 else default_axes)
        axes = (axes,)
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
        if axes is None:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = range(nd - len(s), nd) if s is not None else range(nd)
    per = math.prod(shape[a] for a in axes) if nd else 1
    total = math.prod(shape) if nd else 1
    return per, total // max(per, 1)


def _fft_hook(tracer, kind, default_axes):
    def hook(args, kwargs, result):
        per, batch = _transform_size(kind, default_axes, args, kwargs, result)
        flops = 5.0 * per * math.log2(per) * batch if per > 1 else 0.0
        tracer.count("fft.flops_computed", flops if kind == "c2c" else flops / 2)
        tracer.count(
            "fft.bytes_computed",
            getattr(_input(args, kwargs), "nbytes", 0) + getattr(result, "nbytes", 0),
        )
    return hook


def install_fft(tracer):
    """Wrap the transform entry points of numpy.fft and scipy.fft.

    Call before ``hartreelab`` is imported, so a ``from numpy.fft import
    fftn`` inside the package binds the wrapper.  Returns the list of
    (namespace, attribute, original) needed to undo the patch.
    """
    undo = []
    for modname in FFT_MODULES:
        __import__(modname)
        mod = sys.modules[modname]
        short = modname.split(".")[0]
        for fname, (kind, axes) in FFT_FUNCS.items():
            orig = getattr(mod, fname, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(f"fft.{short}.{fname}", orig, _fft_hook(tracer, kind, axes))
            setattr(mod, fname, wrapped)
            undo.append((mod, fname, orig))
    return undo


def _layer_hooks(tracer):
    """Counters taken at the boundary of particular layers."""

    def snapshot(args, kwargs, result):
        family, t, spec = _bound(("family", "t", "spec"), args, kwargs)
        tracer.see("wkb.snapshot", (id(family), float(t), spec))

    def multiplier_grid(args, kwargs, result):
        spec, grid = _bound(("spec", "grid"), args, kwargs)
        tracer.see("kernel.multiplier_grid", (spec, grid))

    def evolve(args, kwargs, result):
        _, _, params, samples = _bound(("u0", "spec", "params", "samples"), args, kwargs)
        tracer.count("solver.evolve.steps", scheduled_steps(params, samples))

    def persist(args, kwargs, result):
        tracer.count("harness.persist.bytes", sum(p.stat().st_size for p in result.values()))

    return {
        "wkb.snapshot": snapshot,
        "kernel.multiplier_grid": multiplier_grid,
        "solver.evolve": evolve,
        "harness.persist": persist,
    }


def _bound(names, args, kwargs):
    """The named leading parameters of a call, positional or keyword."""
    return tuple(args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names))


def scheduled_steps(params, samples):
    """Strang steps the call's schedule asks for.

    Each gap between consecutive sample times (starting at 0) is cut into
    the fewest equal steps no longer than min(dt, dt_factor * eps).  The
    count depends on the arguments only, so it stays put when the
    stepping loop is rewritten.
    """
    dt_request = min(params.dt, params.dt_factor * params.eps)
    steps, t_prev = 0, 0.0
    for t in sorted({float(s) for s in samples}):
        if t == 0.0:
            continue
        steps += max(1, math.ceil((t - t_prev) / dt_request - 1e-12))
        t_prev = t
    return steps


def install_hartreelab(tracer):
    """Wrap every public function defined in each loaded hartreelab module.

    A function imported by name into another module (``harness.snapshot``
    next to ``wkb.snapshot``) is replaced in every namespace that holds
    it, the package itself included.  Returns the undo list.
    """
    pkg = sys.modules["hartreelab"]
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("hartreelab.")]
    hooks = _layer_hooks(tracer)
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                span = f"{short}.{name}"
                wrapped[obj] = tracer.wrap(span, obj, hooks.get(span))
    undo = []
    for ns in [pkg, *modules]:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, name, wrapped[obj])
                undo.append((ns, name, obj))
    return undo


def uninstall(undo):
    for ns, name, orig in reversed(undo):
        setattr(ns, name, orig)
