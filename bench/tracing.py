"""In-memory spans recorded around hlsmm's layer boundaries.

Spans come only from this benchmark's files: the benchmark opens one around
each call it makes into a layer, and :meth:`Tracer.install` swaps the
module-level names that one layer calls in another for wrappers that open a
span and call through.  No code of the library changes.  A hook whose target
no longer exists is reported as missing, so a refactor shows up as lost
coverage instead of a crashed run.

:class:`PieceClock` uses the same hooks in the untraced run, only to cut
each repeat's timeline into pieces at the layer boundaries and to place the
probes that measure the host's speed.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from hlsmm import NumericalError

LAYERS = ("data", "model", "linalg", "solver", "experiments")

# (module, attribute path, span name): names one layer calls in another.
HOOKS = (
    ("hlsmm.solver", "project_rank", "linalg.project_rank"),
    ("hlsmm.experiments", "fit", "solver.fit"),
    ("hlsmm.experiments", "evaluate", "experiments.evaluate"),
    ("hlsmm.experiments", "predict_batch", "model.predict_batch"),
    ("hlsmm.model", "Dataset.subset", "data.subset"),
)


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class FitStats:
    """Counts read from the traces that ``fit`` returns."""

    iterations: int = 0
    halvings: int = 0
    status: Counter = field(default_factory=Counter)
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.run_id = ""
        self.fits = FitStats()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent.span_id if parent else None,
                    self.run_id, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except NumericalError:
            if name == "solver.fit":
                self.fits.status["failed"] += 1
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += span.duration
        if name == "solver.fit":
            self.fits.iterations += result.model.iter
            self.fits.halvings += sum(result.trace.halvings)
            self.fits.status[result.trace.status] += 1
            self.fits.durations.append(span.duration)
        return result

    def install(self) -> None:
        self.missing = install_hooks(self._wrap, self._restore)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def uninstall(self) -> None:
        uninstall_hooks(self._restore)

    def reset(self, run_id: str) -> None:
        """Start a new run: earlier spans are kept, counters restart."""
        self.run_id = run_id
        self.fits = FitStats()

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "name": s.name, "parent": s.parent,
                    "run": s.run_id, "start": s.start, "end": s.end}) + "\n")


class PieceClock:
    """Cuts each timed repeat into pieces at every call into or out of a layer.

    A timestamp is taken when a hooked name (or a call the benchmark makes
    through :meth:`call`) is entered and when it returns.  Repeats of one
    section on the same inputs make the same calls in the same order, so the
    n-th piece of one repeat is the same work as the n-th piece of any other.
    The host changes speed many times a second; :meth:`fastest` keeps each
    piece's fastest repeat, so a piece only reads slow if every repeat of it
    ran slow.

    At the start of a repeat and at every ``probe_every``-th timestamp the
    clock also runs ``probe``, a fixed piece of work outside hlsmm, timed on
    its own and left out of the section's pieces.  The probes sit at the same
    places in every repeat, so the fastest repeat of each probe says how fast
    the host was when the section's pieces around it ran at their fastest.
    """

    def __init__(self, probe, probe_every: int):
        self.probe = probe
        self.probe_every = probe_every
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self.repeats: list[np.ndarray] = []
        self.probe_repeats: list[np.ndarray] = []
        self.missing: list[str] = []
        self._paused = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = install_hooks(self._wrap, self._restore)

    def uninstall(self) -> None:
        uninstall_hooks(self._restore)

    def _wrap(self, name: str, fn):
        def stamped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return stamped

    def call(self, name: str, fn, *args, **kwargs):
        self._stamp()
        try:
            return fn(*args, **kwargs)
        finally:
            self._stamp()

    def _stamp(self) -> None:
        if len(self.stamps) % self.probe_every == 0:
            self._probe()
        self.stamps.append(time.perf_counter() - self._paused)

    def _probe(self) -> None:
        t0 = time.perf_counter()
        self.probe()
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self._paused += dt

    def timed(self, fn, *args):
        """Run one repeat; keep its pieces and return (seconds, value).

        The seconds leave out the time spent in probes.
        """
        self.stamps.clear()
        self.probes = []
        self._paused = 0.0
        self._stamp()
        value = fn(*args)
        self.stamps.append(time.perf_counter() - self._paused)
        self.repeats.append(np.diff(self.stamps))
        self.probe_repeats.append(np.array(self.probes))
        return self.stamps[-1] - self.stamps[0], value

    def fastest(self) -> tuple[float, float] | None:
        """(section seconds, probe seconds), each from the fastest repeats.

        The section is the sum over pieces of each piece's fastest repeat;
        the probe is the mean over probe places of each one's fastest repeat.
        None when no repeat finished or the repeats were not cut alike, that
        is when they did not make the same calls.
        """
        if (len({r.size for r in self.repeats}) != 1
                or len({p.size for p in self.probe_repeats}) != 1):
            return None
        section = float(np.min(self.repeats, axis=0).sum())
        probe_s = float(np.min(self.probe_repeats, axis=0).mean())
        return section, probe_s


def install_hooks(wrap, restore: list) -> list[str]:
    """Wrap every name in HOOKS that still exists; return the missing ones.

    ``wrap(span_name, original)`` makes the replacement; what to put back is
    appended to ``restore``.
    """
    missing = []
    for module_name, attr_path, span_name in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr_path}")
            continue
        setattr(owner, attr, wrap(span_name, original))
        restore.append((owner, attr, original))
    return missing


def uninstall_hooks(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
    restore.clear()


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[layer_of(s.name)] += s.self_s
    return totals


def total_time(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)
