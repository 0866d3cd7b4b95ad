"""Span timing by wrapping module attributes from outside the program.

``Tracer.installed()`` replaces each listed function or method with a wrapper
that records calls, inclusive time and self time (inclusive minus the time of
wrapped callees), then restores every original attribute on exit. The program
calls its layers through module attributes (``ad.matmul``, ``kernels.relu``,
``tr.train_step`` ...), so a wrapper set on the module is what the program
runs. Nothing is patched outside ``installed()``.

Optional hooks record counts (tape nodes, rows, bytes) once the wrapped call
has returned; their time is kept out of every span's self time and lands in
the benchmark's own share.
"""

import contextlib
import functools
import importlib
import time


class SpanStats:
    __slots__ = ("calls", "incl", "self_s", "samples")

    def __init__(self, keep_samples):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.samples = [] if keep_samples else None


class Tracer:
    """Per-span statistics plus named counters, filled while installed."""

    def __init__(self, targets, hooks=None, sampled=()):
        # targets: span names "module.attr" or "module.Class.method"
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.stats = {name: SpanStats(name in sampled) for name in self.targets}
        self.counters = {}
        self.missing = []
        self._stack = []  # [span name, time spent in wrapped callees]
        self._patched = []
        self._originals = {}

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def parent(self):
        """Name of the innermost open span, or None at the top level."""
        return self._stack[-1][0] if self._stack else None

    def _resolve(self, name):
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"adadrug.{module_name}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        return owner, path[-1]

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.incl += dt
                stats.self_s += dt - frame[1]
                if stats.samples is not None:
                    stats.samples.append(dt)
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                h0 = clock()
                hook(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore all originals on exit."""
        try:
            for name in self.targets:
                try:
                    owner, attr = self._resolve(name)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    # a later version of the program may drop a function or
                    # module; its span then reads zero instead of breaking the run
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                self._originals.setdefault(name, original)
                setattr(owner, attr, self._wrap(name, original))
                self._patched.append((owner, attr, original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def originals_restored(self):
        """True when every wrapped attribute is the original object again."""
        for name, original in self._originals.items():
            owner, attr = self._resolve(name)
            if vars(owner).get(attr) is not original:
                return False
        return True
