"""Spans around camsig's public calls, recorded from outside the package.

A span is (id, layer, item, start, end, parent, thread). Public calls are
timed through `Tracer.call`; the nested layers that no public call
exposes are timed by replacing a module attribute for the duration of the
traced run:

  camsig.segmentation.fit_rigid  -> "rigidfit.fit"   (inside extract_static)
  camsig.preview.splat_zbuffer   -> "preview.splat"  (inside render_preview,
                                                      on its worker threads)
  camsig.signal.pack_tensor      -> "signal.pack"    (inside build_inference_signal)

Spans stay in memory and are written once, when the run ends. Layers in
TRACEMALLOC_LAYERS also get the tracemalloc peak of their call; the
end-to-end run never starts tracemalloc.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

TRACEMALLOC_LAYERS = ("signal.transport", "signal.pack", "io.write")

NESTED = (
    ("camsig.segmentation", "fit_rigid", "rigidfit.fit"),
    ("camsig.preview", "splat_zbuffer", "preview.splat"),
    ("camsig.signal", "pack_tensor", "signal.pack"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # counts of the item being traced
        self.alloc_peak: dict = {}  # layer -> max tracemalloc peak, bytes
        self.item = None
        self._open = (None, None)  # (id, layer) of the open public-call span
        self._ids = itertools.count()
        self._lock = threading.Lock()  # guards the counters across render threads

    def _append(self, span_id, layer, start, end, parent):
        # Render threads append too; a single list.append is atomic.
        self.spans.append((span_id, layer, self.item, start, end, parent, threading.get_ident()))

    def call(self, layer, fn, *args, **kwargs):
        """Run one public call as a span; nested spans get it as parent."""
        span_id = next(self._ids)
        self._open = (span_id, layer)
        traced = layer in TRACEMALLOC_LAYERS
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if traced:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[layer] = max(self.alloc_peak.get(layer, 0), peak)
            self._open = (None, None)
            self._append(span_id, layer, start, end, None)

    def _wrap(self, layer, fn):
        def wrapper(*args, **kwargs):
            parent, parent_layer = self._open
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self._append(next(self._ids), layer, start, time.perf_counter(), parent)
            if layer == "rigidfit.fit":
                with self._lock:
                    self.counts["rigidfit.fits"] += 1
                    self.counts["rigidfit.iterations"] += result.iterations
                    self.counts["rigidfit.converged"] += int(result.converged)
            elif layer == "preview.splat" and parent_layer == "preview.render":
                with self._lock:
                    self.counts["preview.splats"] += len(args[0])
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace the nested entry points with span-recording wrappers."""
        saved = []
        for module_name, attr, layer in NESTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def take_counts(self) -> dict:
        counts, self.counts = dict(self.counts), Counter()
        return counts

    def layer_seconds(self, item) -> dict:
        """Per-layer busy seconds of one traced item.

        Nested spans are split from their parent: `signal.transport` excludes
        the `signal.pack` it calls, and `segmentation.self` is the extraction
        minus its fits. `preview.render.children` is the splat time of the
        threaded render, summed over its threads.
        """
        spans = [s for s in self.spans if s[2] == item]
        by_id = {s[0]: s for s in spans}
        total = Counter()
        for _, layer, _, start, end, parent, _ in spans:
            total[layer] += end - start
            if parent is not None:
                total[f"{by_id[parent][1]}.children"] += end - start
        total["segmentation.self"] = (
            total["segmentation.extract"] - total["segmentation.extract.children"]
        )
        total["signal.transport"] -= total["signal.transport.children"]
        return total

    def write(self, path):
        names = ("id", "layer", "item", "start", "end", "parent", "thread")
        with open(path, "w") as fh:
            json.dump([dict(zip(names, s)) for s in self.spans], fh)
