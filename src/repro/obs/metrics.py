"""Metrics primitives: counters, gauges, latency histograms, and a registry.

The engine accumulated rich internal counters over nine PRs — plan-cache
hits, WAL records, buffer-pool residency, ``agg_seconds`` — but each
lived behind its own ad-hoc stats dataclass with no uniform way to export,
aggregate, or alert on them.  This module is the missing substrate:

* :class:`Counter` — a monotonically increasing count (``queries_total``),
* :class:`Gauge` — a value that goes both ways (``buffer_resident_pages``),
* :class:`Histogram` — fixed-bucket latency distribution with cumulative
  bucket counts and linear-interpolation quantile readout (p50/p90/p99),
* :class:`MetricsRegistry` — the namespace that owns every series and
  renders them in the Prometheus text exposition format.

Time discipline mirrors the engine's ``clock.py`` contract: *timestamps*
come from an injectable clock (a :class:`~repro.clock.SimulatedClock` in
deterministic tests), *durations* from an injectable monotonic timer that
defaults to :func:`engine_timer` — the one sanctioned wall-duration source
the hazard lint recognizes (see ``repro.analysis.hazard_lint``, rule
``wall-clock``).  This module deliberately imports nothing from the rest of
the package so the storage layer below ``core`` may depend on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

#: The sanctioned engine duration source: every subsystem that times work
#: (executor seconds, histogram observations, trace spans) reads this one
#: monotonic timer unless a registry injects a deterministic replacement.
engine_timer: Callable[[], float] = time.perf_counter

#: Default latency bucket upper bounds (seconds).  Sub-millisecond statements
#: dominate this engine, so the ladder starts at 100µs and climbs roughly
#: geometrically to 10s; observations beyond the last bound land in +Inf.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The decile-style readout every latency histogram reports.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def format_labels(labels: dict[str, str]) -> str:
    """Render a label set as ``{k="v",...}`` (empty string for no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing series.

    ``inc`` is the native write path; ``set_total`` exists for mirroring an
    external monotonic source (the engine's legacy stats dataclasses) into
    the registry — it clamps downward movement to keep the series honest.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Adopt an externally tracked running total (never moves backward)."""
        if total > self.value:
            self.value = float(total)


class Gauge:
    """A series that can go up and down (sizes, residency, watermarks)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket distribution with quantile estimation.

    Buckets are cumulative at render time (Prometheus ``le`` semantics) but
    stored per-interval; :meth:`quantile` walks the intervals and linearly
    interpolates inside the one containing the requested rank, which is
    exact enough for decile readouts over microsecond-to-second latency
    ladders (and is how Prometheus' own ``histogram_quantile`` works).
    """

    __slots__ = ("bounds", "bucket_counts", "total", "sum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = tuple(float(bound) for bound in buckets)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last slot = +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (0.0 when empty).

        Interpolates linearly inside the bucket holding the target rank;
        ranks landing in the +Inf bucket report the last finite bound (the
        distribution's observable ceiling).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.bounds):
            count = self.bucket_counts[index]
            if cumulative + count >= target:
                if count == 0:
                    return bound
                fraction = (target - cumulative) / count
                return lower + (bound - lower) * fraction
            cumulative += count
            lower = bound
        return self.bounds[-1] if self.bounds else 0.0

    def summary(self) -> dict[str, float]:
        """The standard decile readout: p50/p90/p99 plus count and mean."""
        readout = {
            f"p{int(q * 100)}": self.quantile(q) for q in SUMMARY_QUANTILES
        }
        readout["count"] = float(self.total)
        readout["mean"] = self.sum / self.total if self.total else 0.0
        return readout


#: Metric kinds the registry knows how to create and render.
_KINDS = ("counter", "gauge", "histogram")


@dataclass
class _Family:
    """One named metric family: shared HELP/TYPE, children per label set."""

    name: str
    kind: str
    help: str
    label_names: tuple[str, ...]
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS

    def __post_init__(self):
        self.children: dict[tuple[str, ...], object] = {}

    def child(self, label_values: tuple[str, ...]):
        instance = self.children.get(label_values)
        if instance is None:
            if self.kind == "counter":
                instance = Counter()
            elif self.kind == "gauge":
                instance = Gauge()
            else:
                instance = Histogram(self.buckets)
            self.children[label_values] = instance
        return instance

    def labels_of(self, label_values: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.label_names, label_values))


class MetricsRegistry:
    """The engine-wide metric namespace.

    Every series lives under one ``namespace_`` prefix and must carry at
    least one label (the exposition lint enforces this: an unlabelled engine
    series is almost always missing its ``engine=`` dimension and collides
    the moment a second database attaches).  Counter names are normalized to
    the Prometheus ``_total`` suffix.

    ``clock`` supplies *timestamps* (injectable, defaults to None — the
    registry then simply reports no scrape timestamp), ``timer`` supplies
    *durations* for :meth:`time_block` and everything built on top of it.
    """

    def __init__(
        self,
        namespace: str = "repro",
        clock: Callable[[], float] | None = None,
        timer: Callable[[], float] | None = None,
    ):
        if not namespace.isidentifier():
            raise ValueError(f"invalid metric namespace {namespace!r}")
        self.namespace = namespace
        self.clock = clock
        self.timer = timer if timer is not None else engine_timer
        self._families: dict[str, _Family] = {}
        self._bound: dict[tuple, object] = {}

    # -- family creation ------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: dict[str, str],
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> _Family:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not labels:
            raise ValueError(f"metric {name!r} must carry at least one label")
        full = name if name.startswith(self.namespace + "_") else f"{self.namespace}_{name}"
        if kind == "counter" and not full.endswith("_total"):
            full += "_total"
        label_names = tuple(sorted(labels))
        family = self._families.get(full)
        if family is None:
            family = _Family(
                name=full, kind=kind, help=help, label_names=label_names, buckets=buckets
            )
            self._families[full] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {full!r} already registered as {family.kind}, not {kind}"
            )
        elif family.label_names != label_names:
            raise ValueError(
                f"metric {full!r} label names {family.label_names} != {label_names}"
            )
        return family

    def _child(
        self, name: str, kind: str, help: str, labels: dict, buckets=DEFAULT_LATENCY_BUCKETS
    ):
        """The child of this call's ``(name, kind, label items)``: a key's first
        call validates it through :meth:`_family` and binds it to its series,
        later ones are a dict lookup.  No path removes a family, so a hit skips
        only checks that would pass; label values are strings, so equal keys
        name one series."""
        key = (name, kind, *labels.items())
        child = self._bound.get(key)
        if child is None:
            family = self._family(name, kind, help, labels, buckets)
            values = tuple(str(labels[label]) for label in family.label_names)
            child = self._bound[key] = family.child(values)
        return child

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get-or-create the counter child for this name + label set."""
        return self._child(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._child(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._child(name, "histogram", help, labels, buckets)

    # -- timing ---------------------------------------------------------------

    def time_block(self, histogram: Histogram) -> "_Timer":
        """Context manager observing the block's duration into ``histogram``."""
        return _Timer(self.timer, histogram)

    # -- introspection --------------------------------------------------------

    def series(self) -> Iterator[tuple[str, dict[str, str], object]]:
        """Every ``(family name, labels, instance)`` series, render order."""
        for name in sorted(self._families):
            family = self._families[name]
            for label_values in sorted(family.children):
                yield name, family.labels_of(label_values), family.children[label_values]

    def series_count(self) -> int:
        """Distinct (name, label set) series — histograms count once, not
        once per bucket sample."""
        return sum(len(family.children) for family in self._families.values())

    def find_histogram(self, name: str, **labels: str) -> Histogram | None:
        """The existing histogram child for this name + labels, or None."""
        full = name if name.startswith(self.namespace + "_") else f"{self.namespace}_{name}"
        family = self._families.get(full)
        if family is None or family.kind != "histogram":
            return None
        try:
            key = tuple(str(labels[label]) for label in family.label_names)
        except KeyError:
            return None
        return family.children.get(key)

    # -- exposition -----------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text exposition format (``text/plain; version=0.0.4``)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            help_text = family.help or name.replace("_", " ")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family.kind}")
            for label_values in sorted(family.children):
                labels = family.labels_of(label_values)
                instance = family.children[label_values]
                if family.kind == "histogram":
                    cumulative = 0
                    for index, bound in enumerate(instance.bounds):
                        cumulative += instance.bucket_counts[index]
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(bound)
                        lines.append(
                            f"{name}_bucket{format_labels(bucket_labels)} {cumulative}"
                        )
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = "+Inf"
                    lines.append(
                        f"{name}_bucket{format_labels(bucket_labels)} {instance.total}"
                    )
                    lines.append(
                        f"{name}_sum{format_labels(labels)} {_format_value(instance.sum)}"
                    )
                    lines.append(f"{name}_count{format_labels(labels)} {instance.total}")
                else:
                    lines.append(
                        f"{name}{format_labels(labels)} {_format_value(instance.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


class _Timer:
    """``with registry.time_block(h):`` — observes the elapsed duration."""

    __slots__ = ("_timer", "_histogram", "_started")

    def __init__(self, timer: Callable[[], float], histogram: Histogram):
        self._timer = timer
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = self._timer()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(max(0.0, self._timer() - self._started))
