"""The probe API: counters, gauges and histograms on the virtual clock.

Design constraints, in priority order:

1. **Zero overhead when disabled.**  Model code never builds instruments
   eagerly; it holds an optional hook object (``None`` by default) and the
   emission site is one ``is None`` branch.  A registry exists only for
   an observed run.
2. **Determinism.**  Instruments are identified by ``(kind, name, sorted
   attributes)`` and iterated in sorted order, and every sample is keyed on
   virtual time — two identical runs produce byte-identical exports.
3. **Reconcilability.**  Counters are monotonic sums; their totals must
   reconcile exactly with the quantities the metrics layer reports (bytes
   moved vs. the workflow spec, phase seconds vs.
   :meth:`~repro.sim.trace.Tracer.total_time`).  The tests enforce this.

Instruments record a bounded-cost timeseries: counters append one
``(virtual_time, cumulative_total)`` sample per update, gauges append only
on value changes, histograms keep log2 buckets plus summary stats.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: Attribute key/value pairs, sorted — the canonical identity of an
#: instrument alongside its kind and name.
AttrItems = Tuple[Tuple[str, Any], ...]

#: Histogram bucket index for non-positive observations (log2 undefined).
UNDERFLOW_BUCKET: int = -9999


def _attr_items(attrs: Dict[str, Any]) -> AttrItems:
    for key, value in attrs.items():
        if not isinstance(value, (str, int, float, bool)):
            raise SimulationError(
                f"probe attribute {key!r} must be a scalar, got {type(value).__name__}"
            )
    return tuple(sorted(attrs.items()))


class Instrument:
    """Common identity/bookkeeping of one named metric stream."""

    kind = "instrument"

    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: AttrItems) -> None:
        self.name = name
        self.attrs = attrs

    @property
    def key(self) -> Tuple[str, str, AttrItems]:
        return (self.kind, self.name, self.attrs)

    @property
    def label(self) -> str:
        """Display label: ``name{k=v,...}`` (stable, sorted attributes)."""
        if not self.attrs:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.attrs)
        return f"{self.name}{{{inner}}}"

    def as_dict(self) -> Dict[str, Any]:
        """Serializable snapshot (extended by subclasses)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "attributes": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.label}>"


class Counter(Instrument):
    """Monotonic sum keyed on virtual time (bytes moved, events, versions)."""

    kind = "counter"

    __slots__ = ("total", "samples")

    def __init__(self, name: str, attrs: AttrItems = ()) -> None:
        super().__init__(name, attrs)
        self.total: float = 0.0
        self.samples: List[Tuple[float, float]] = []

    def add(self, now: float, value: float = 1.0) -> None:
        """Increment by *value* at virtual time *now* (must be >= 0)."""
        if value < 0 or not math.isfinite(value):
            raise SimulationError(
                f"counter {self.label}: increment must be finite and >= 0, "
                f"got {value}"
            )
        self.total += value
        self.samples.append((now, self.total))

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data["total"] = self.total
        data["samples"] = [[t, v] for t, v in self.samples]
        return data


class Gauge(Instrument):
    """Point-in-time level (queue depth, active flows, reader lag).

    Samples are recorded only when the value changes, so a gauge polled
    every event stays proportional to the number of *transitions*.
    """

    kind = "gauge"

    __slots__ = ("value", "peak", "samples")

    def __init__(self, name: str, attrs: AttrItems = ()) -> None:
        super().__init__(name, attrs)
        self.value: float = 0.0
        self.peak: float = 0.0
        self.samples: List[Tuple[float, float]] = []

    def set(self, now: float, value: float) -> None:
        """Record the gauge level at virtual time *now*."""
        if not math.isfinite(value):
            raise SimulationError(
                f"gauge {self.label}: value must be finite, got {value}"
            )
        if self.samples and value == self.value:
            return
        self.value = value
        self.peak = max(self.peak, value)
        self.samples.append((now, value))

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data["last"] = self.value
        data["peak"] = self.peak
        data["samples"] = [[t, v] for t, v in self.samples]
        return data


class Histogram(Instrument):
    """Distribution summary (achieved flow rates, span durations).

    Values land in log2 buckets: bucket *k* holds ``2**k <= v < 2**(k+1)``
    (non-positive values land in a dedicated underflow bucket).  Cheap,
    deterministic, and enough resolution for "how far below the model
    ceiling did transfers run".
    """

    kind = "histogram"

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self, name: str, attrs: AttrItems = ()) -> None:
        super().__init__(name, attrs)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, now: float, value: float) -> None:
        """Record one observation (*now* kept for signature symmetry)."""
        if not math.isfinite(value):
            raise SimulationError(
                f"histogram {self.label}: value must be finite, got {value}"
            )
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        bucket = int(math.floor(math.log2(value))) if value > 0 else UNDERFLOW_BUCKET
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data["count"] = self.count
        data["sum"] = self.sum
        data["min"] = self.min if self.count else None
        data["max"] = self.max if self.count else None
        data["mean"] = self.mean
        data["log2_buckets"] = {
            str(k): self.buckets[k] for k in sorted(self.buckets)
        }
        return data


def step_fraction_above(
    samples: Iterable[Tuple[float, float]], horizon: float, threshold: float
) -> float:
    """Fraction of ``[0, horizon]`` a change-point series spends above *threshold*.

    Gauge samples are ``(time, value)`` transitions recorded only on
    change; the level before the first sample is 0.  This is the
    utilization primitive: busy fraction is ``step_fraction_above(samples,
    makespan, 0.0)``, contended fraction uses threshold 1.0.
    """
    if horizon <= 0:
        return 0.0
    above = 0.0
    level = 0.0
    previous = 0.0
    for when, value in samples:
        clamped = min(max(when, 0.0), horizon)
        if level > threshold:
            above += clamped - previous
        previous = clamped
        level = value
    if level > threshold:
        above += horizon - previous
    return min(max(above / horizon, 0.0), 1.0)


def step_time_weighted_mean(
    samples: Iterable[Tuple[float, float]], horizon: float
) -> float:
    """Time-weighted mean level of a change-point series over ``[0, horizon]``."""
    if horizon <= 0:
        return 0.0
    weighted = 0.0
    level = 0.0
    previous = 0.0
    for when, value in samples:
        clamped = min(max(when, 0.0), horizon)
        weighted += level * (clamped - previous)
        previous = clamped
        level = value
    weighted += level * (horizon - previous)
    return weighted / horizon


class ProbeRegistry:
    """Factory and container for every instrument of one observed run.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    the same ``(name, attributes)`` twice returns the same instrument, so
    independent emission sites accumulate into one stream.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, AttrItems], Instrument] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, attrs: Dict[str, Any]) -> Instrument:
        items = _attr_items(attrs)
        key = (cls.kind, name, items)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, items)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **attrs: Any) -> Counter:
        return self._get(Counter, name, attrs)

    def gauge(self, name: str, **attrs: Any) -> Gauge:
        return self._get(Gauge, name, attrs)

    def histogram(self, name: str, **attrs: Any) -> Histogram:
        return self._get(Histogram, name, attrs)

    # ------------------------------------------------------------------
    def instruments(self) -> List[Instrument]:
        """All instruments, sorted by (kind, name, attributes)."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def counters(self) -> List[Counter]:
        return [i for i in self.instruments() if isinstance(i, Counter)]

    def counter_total(self, name: str, **attrs: Any) -> float:
        """Summed total over counters matching *name* and the given attrs.

        Attributes act as a filter: ``counter_total("pmem.payload_bytes",
        direction="write")`` sums the write counters of every socket.
        """
        wanted = set(attrs.items())
        total = 0.0
        for instrument in self.instruments():
            if instrument.kind != "counter" or instrument.name != name:
                continue
            if wanted - set(instrument.attrs):
                continue
            total += instrument.total  # type: ignore[attr-defined]
        return total

    def find(self, name: str, **attrs: Any) -> Optional[Instrument]:
        """First instrument with this exact name whose attrs include *attrs*."""
        wanted = set(attrs.items())
        for instrument in self.instruments():
            if instrument.name == name and not (wanted - set(instrument.attrs)):
                return instrument
        return None

    def as_records(self) -> Iterable[Dict[str, Any]]:
        """Serializable snapshots of every instrument (sorted)."""
        return [instrument.as_dict() for instrument in self.instruments()]
