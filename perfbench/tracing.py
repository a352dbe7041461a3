"""In-memory span tracing around lsast's public functions.

Probes replace a function at the binding its caller looks up (for example
`lsast.pipeline.filter_findings_for_file`, which `run_scan` calls through its
module globals) and restore it afterwards; lsast itself is not changed.
Each span is (id, name, start, end, parent id, target, phase). The parent is
the innermost open span of the same thread, and the target is the path of
the `run_scan` call that encloses it.

A span name is "<layer>.<operation>". A layer's time is the time inside its
outermost spans minus the time in nested spans of other layers, so model
calls are not charged to the retrieval code that waits for them.
"""

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.phase_runs: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def begin(self, phase: str):
        """Start one repetition of a phase (a setup, a scan pass, an eval round)."""
        self.phase = phase
        self.phase_runs[phase] += 1

    def wrap(self, name: str, fn, sets_target: bool = False, observe=None):
        """Return `fn` recording one span per call.

        `observe(args, result)` runs after a successful call, inside the
        span, to count work at the boundary where it happens.
        """
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            outer_target = getattr(local, "target", None)
            span_id = next(tracer._ids)
            local.current = span_id
            if sets_target:
                local.target = str(args[0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                end = time.perf_counter()
                tracer.spans.append(
                    (span_id, name, start, end, parent, getattr(local, "target", None), tracer.phase)
                )
                local.current = parent
                local.target = outer_target

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attribute: str, name: str, sets_target: bool = False, observe=None):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, sets_target, observe))

    def unpatch(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def _children(self) -> dict:
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        return children

    def summarize(self) -> dict:
        """Per (phase, span name): calls, total wall, layer time, own self time.

        Layer time is counted only for spans whose parent belongs to another
        layer, so nested spans of one layer are not counted twice. Own self
        time is the span's duration minus all its direct children.
        """
        children = self._children()
        by_id = {span[0]: span for span in self.spans}
        out: dict = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "layer_s": 0.0, "self_s": 0.0})

        def foreign_time(span_id, layer):
            total = 0.0
            for child in children.get(span_id, ()):
                if child[1].split(".", 1)[0] == layer:
                    total += foreign_time(child[0], layer)
                else:
                    total += child[3] - child[2]
            return total

        for span in self.spans:
            span_id, name, start, end, parent, _, phase = span
            layer = name.split(".", 1)[0]
            entry = out[(phase, name)]
            entry["calls"] += 1
            entry["wall_s"] += end - start
            entry["self_s"] += (end - start) - sum(c[3] - c[2] for c in children.get(span_id, ()))
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[1].split(".", 1)[0] != layer:
                entry["layer_s"] += (end - start) - foreign_time(span_id, layer)
        return out

    def derive_hits(self, phase: str) -> tuple[int, int]:
        """(hits, calls) of index.derive in `phase`; a hit made no model call."""
        children = self._children()
        calls = hits = 0
        for span in self.spans:
            if span[1] == "index.derive" and span[6] == phase:
                calls += 1
                if not any(c[1].startswith("gateway.") for c in children.get(span[0], ())):
                    hits += 1
        return hits, calls

    def dump(self, path):
        """Write the spans as JSON lines (relative times, for offline analysis)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, target, phase in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "target": target, "phase": phase,
                }) + "\n")


def install_scan_probes(tracer: Tracer, gateway_class, observers: dict):
    """Patch the lsast functions on the scan and eval paths.

    `observers` maps a span name to an observe callback (see Tracer.wrap).
    """
    import lsast.cli as cli
    import lsast.pipeline as pipeline
    from lsast import DerivationCache, OfflineEmbedder, ReportCorpus, VectorIndex

    tracer.patch(pipeline, "run_scan", "pipeline.run_scan", sets_target=True)
    tracer.patch(pipeline, "filter_findings_for_file", "sast.filter", observe=observers.get("sast.filter"))
    tracer.patch(pipeline, "annotate_lines", "annotate.annotate")
    tracer.patch(pipeline, "build_scan_prompt", "prompts.build", observe=observers.get("prompts.build"))
    tracer.patch(pipeline, "parse_scan_response", "gateway.parse")
    tracer.patch(ReportCorpus, "digest", "corpus.digest")
    tracer.patch(VectorIndex, "search", "index.search")
    tracer.patch(VectorIndex, "search_embedded", "index.search_embedded")
    tracer.patch(DerivationCache, "derive", "index.derive")
    tracer.patch(OfflineEmbedder, "embed", "index.embed")
    tracer.patch(gateway_class, "complete", "gateway.complete")
    tracer.patch(cli, "load_scan_directory", "pipeline.load_records")
    for name in ("match_findings", "confusion_from_matching", "truth_from_findings"):
        tracer.patch(cli, name, "evaluation.match")
    for name in ("load_labels", "confusion_from_labels"):
        tracer.patch(cli, name, "evaluation.labels")
    tracer.patch(cli, "evaluate_retrieval", "evaluation.retrieval")
    tracer.patch(cli, "compute_metrics", "evaluation.metrics")
