"""Call tracing from outside the library.

``Tracer.install`` replaces every public function of the six sytkit modules
with a wrapper, both where it is defined and wherever another module (or
the package) imported it by name, so ``verify.inner_translate`` and
``tableau.inner_translate`` are the same traced function.  Names are the
defining module's, as in ``tableau.check_standard``.

For every function the tracer counts calls and sums inclusive and self
time (self time is the call's span minus its traced children).  It keeps a
span (name, start, end, parent, first int argument) for each top-level
call, the ones the benchmark makes, and for every ``weakorder.build_poset``
wherever it happens; the calls below those are aggregated, since the
batteries make millions of them.  Each top-level span also records the time
its poset builds took, so a check's time can be split from its builds.
"""

from __future__ import annotations

import inspect
import time

MODULES = ("permutation", "tableau", "knuthclass", "weakorder", "hopf", "verify")
BUILD = "weakorder.build_poset"

# sizes of answers worth counting: words per class and shuffle words
RESULT_SIZES = {
    "knuthclass.knuth_class": lambda answer: len(answer.words),
    "permutation.interleavings": len,
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.sizes: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent, arg, build s]
        self._stack: list[list] = []  # [child s, span index]
        self._epoch = time.perf_counter()

    def install(self, package) -> None:
        """Wrap the public functions of the package's six modules in place."""
        modules = [getattr(package, name) for name in MODULES]
        wrapped = {}
        for module in modules:
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    label = module.__name__.rsplit(".", 1)[-1] + "." + name
                    wrapped[id(obj)] = self._wrap(label, obj)
        for namespace in [package, *modules]:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrapped:
                    setattr(namespace, name, wrapped[id(obj)])

    def _wrap(self, label, fn):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        sized = RESULT_SIZES.get(label)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        is_build = label == BUILD
        open_calls = [0]  # recursion depth of this function

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = -1
            if not stack or is_build:
                span = len(spans)
                arg = args[0] if args and type(args[0]) is int else None
                parent = stack[0][1] if stack else -1
                spans.append([label, 0.0, 0.0, parent, arg, 0.0])
            frame = [0.0, span]
            stack.append(frame)
            open_calls[0] += 1
            start = clock()
            try:
                answer = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_calls[0] -= 1
                stat[0] += 1
                stat[2] += elapsed - frame[0]
                if not open_calls[0]:
                    stat[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span >= 0:
                    record = spans[span]
                    record[1] = start - self._epoch
                    record[2] = record[1] + elapsed
                if is_build and stack:
                    spans[stack[0][1]][5] += elapsed
            if sized is not None:
                self.sizes[label] = self.sizes.get(label, 0) + sized(answer)
            return answer

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {
            "functions": {k: v for k, v in sorted(self.stats.items()) if v[0]},
            "sizes": self.sizes,
            "spans": self.spans,
        }
