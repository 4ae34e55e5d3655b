"""In-memory spans around the calls into tourrank's layers.

Each public function is wrapped at the module attribute its caller looks
up: ``tourrank.ranking.build_pairwise`` is the name ``compare_methods``
calls, ``tourrank.cli.load_reviews`` the one the CLI calls. The benchmark
itself calls ``tourrank.dataset.load_reviews``, ``tourrank.ranking.
compare_methods`` and ``tourrank.cli.main`` through their modules, so those
attributes are wrapped too. Nothing inside the program is edited.

A span is (name, operation id, parent span, start ns, end ns, raised). The
benchmark opens one root span named ``op`` per operation; a span's self time
is its duration minus that of its children, and the root's self time is the
part of the operation no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

ROOT = "op"

#: span name -> modules whose attribute of that function name is a call site
SITES = {
    "cli.main": ("tourrank.cli",),
    "dataset.load_reviews": ("tourrank.dataset", "tourrank.cli"),
    "dataset.category_means": ("tourrank.ranking", "tourrank.cli"),
    "dataset.normalize": ("tourrank.ranking", "tourrank.cli"),
    "ahp.build_pairwise": ("tourrank.ranking", "tourrank.cli"),
    "ahp.evaluate_consistency": ("tourrank.ranking", "tourrank.cli"),
    "fuzzy.build_fuzzy_pairwise": ("tourrank.ranking",),
    "fuzzy.synthetic_extents": ("tourrank.ranking",),
    "fuzzy.fuzzy_weights": ("tourrank.ranking",),
    "ranking.compare_methods": ("tourrank.ranking", "tourrank.cli"),
}


class Tracer:
    """Records spans while installed; ``remove`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple] = []

    def install(self) -> None:
        for name, modules in SITES.items():
            attr = name.split(".", 1)[1]
            for module_name in modules:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(name, fn))
                    self._undo.append((module, attr, fn))

    def remove(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._op, parent, time.perf_counter_ns(), 0, False])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.spans[index][5] = True
                raise
            finally:
                self._close(index)

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one operation; yields the span so its duration can be read."""
        self._op = op_id
        index = self._open(ROOT)
        try:
            yield self.spans[index]
        finally:
            self._close(index)
            self._op = None


@dataclass
class Layer:
    """Totals of one span name over a set of operations."""

    calls: int = 0
    raised: int = 0
    total_ns: int = 0
    self_ns: int = 0


def summarize(spans: list[list], ops) -> dict[str, Layer]:
    """Per span name: calls, raised, total and self time over the given operations."""
    ops = set(ops)
    child_ns = [0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    layers: dict[str, Layer] = {}
    for index, (name, op, _, start, end, raised) in enumerate(spans):
        if op not in ops:
            continue
        layer = layers.setdefault(name, Layer())
        layer.calls += 1
        layer.raised += raised
        layer.total_ns += end - start
        layer.self_ns += end - start - child_ns[index]
    return layers
