"""Per-layer tracing from outside the program.

The tracer replaces each traced public function, by object identity, in every
loaded ``hybridmul`` module that binds it (``encoding.booth_pp`` is also bound
as ``datapath.booth_pp`` and ``hybridmul.booth_pp``), and each traced method on
its class.  Every wrapped call appends one span ``(name, start, end, parent,
call_id)`` to an in-memory list; ``Word`` constructions are only counted.
:meth:`Tracer.uninstall` puts every original object back, so an untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, qualified name) of every traced entry point, grouped by layer.
TRACED = (
    ("bitnum", "to_sign_magnitude"),
    ("encoding", "multiply"),
    ("encoding", "unsigned_product"),
    ("encoding", "classify"),
    ("encoding", "hybrid_plan"),
    ("encoding", "execute_plan"),
    ("encoding", "split"),
    ("encoding", "booth_recode"),
    ("encoding", "booth_pp"),
    ("encoding", "conventional_pp"),
    ("encoding", "hybrid_pp"),
    ("datapath", "simulate_stream"),
    ("datapath", "build_pp"),
    ("datapath", "detect_freeze"),
    ("datapath", "ArrayState.evaluate"),
    ("datapath", "ToggleReport.accumulate"),
    ("metrics", "power_estimate"),
    ("metrics", "delay_estimate"),
    ("harness", "gen_inputs"),
    ("harness", "parse_pairs_file"),
    ("harness", "run_campaign"),
    ("harness", "render_json"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TRACED)
WORD_COUNT = "bitnum.Word.count"

PACKAGE = "hybridmul"


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the traced entry points; one instance traces one pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.word_count = 0
        self.call_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.call_id)

        traced.bench_original = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counting_post_init(self, fn):
        tracer = self

        def counted(word):
            tracer.word_count += 1
            fn(word)

        counted.bench_original = fn
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced name that exists; a missing one reads as 0 calls."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        by_short = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for (module, qualname), name in zip(TRACED, SPAN_NAMES):
            home = by_short.get(module)
            if home is None:
                continue
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(home, qualname, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        word = getattr(by_short.get("bitnum"), "Word", None)
        if word is not None and "__post_init__" in word.__dict__:
            self._patch(word, "__post_init__", self._counting_post_init(word.__dict__["__post_init__"]))

    def uninstall(self) -> None:
        """Put back every original object, last patched first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def call_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _call in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _parent, _call), child in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start - child)
    return totals


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,call_id\n")
        for index, (name, start, end, parent, call) in enumerate(spans):
            fh.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{call}\n")
