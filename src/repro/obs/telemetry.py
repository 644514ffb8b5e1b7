"""Live service telemetry: per-tenant SLO trackers and exposition.

The closed-horizon obs layer (:mod:`repro.obs.core`) answers *what
happened in one run*; this module answers the paper's rate questions
**live**, for an always-on service — deadline-miss rate, shed rate by
reason, admission queue depth, attained-value-per-unit-capacity —
without touching the deterministic replay domain.

Three pieces, all pure data / pure functions (the service wiring lives
in :mod:`repro.service`):

* :class:`WindowRing` — a fixed-size windowed time series over *virtual*
  time: observations land in ``width``-wide buckets, only the newest
  ``slots`` buckets are retained, and two rings over the same geometry
  merge **exactly** (same JSON snapshot whether observations were
  counted in one process or across a crash-resume boundary).
* :class:`SloTracker` — one tenant's SLO state: a
  :class:`~repro.obs.metrics.MetricsRegistry` (decision counters, a
  queue-depth gauge, a wall-clock fsync histogram) plus the window ring
  over its decisions.  ``snapshot()``/``restore()`` round-trip through
  JSON so the tracker rides the TenantStore snapshot payload and
  survives ``kill -9``; :func:`slo_parity_view` keeps the part a cold
  start rebuilds from the op log (durable decision counters and the
  ring) so drain-vs-cold-start audits compare it for equality.
* Exposition renderers — :func:`render_prometheus` (text format 0.0.4)
  over a fleet scrape, :func:`lint_prometheus` (a strict format checker
  CI runs against live scrapes), and :func:`render_top` (the
  ``repro top`` dashboard screen).

Nothing here is in the bit-identity fingerprint domain: SLO state is
service-plane accounting, never written into replay events, and the
Figure-1 pins are unchanged with telemetry on or off.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "WindowRing",
    "SloTracker",
    "slo_parity_view",
    "render_prometheus",
    "lint_prometheus",
    "render_top",
    "HEALTH_STATES",
]

#: Tenant health ladder (ordered best → worst; see
#: :meth:`repro.service.supervisor.TenantSupervisor.health_state`).
HEALTH_STATES = ("ok", "degraded", "restarting", "circuit_open")


class WindowRing:
    """Fixed-size, exact-merge windowed counters over virtual time.

    Observations at virtual time ``t`` land in bucket ``floor(t /
    width)``; only the newest ``slots`` buckets are kept (older ones are
    pruned and counted in :attr:`dropped_buckets`).  Virtual time means
    the structure is deterministic: the same decision stream produces
    the same ring, whichever process (or incarnation) counted it.
    """

    __slots__ = ("width", "slots", "dropped_buckets", "_buckets")

    def __init__(self, width: float, slots: int = 16) -> None:
        if not width > 0.0:
            raise ObservabilityError(f"ring width must be > 0, got {width!r}")
        if slots < 1:
            raise ObservabilityError(f"ring slots must be >= 1, got {slots!r}")
        self.width = float(width)
        self.slots = int(slots)
        self.dropped_buckets = 0
        self._buckets: Dict[int, Dict[str, float]] = {}

    def observe(self, t: float, name: str, value: float = 1.0) -> None:
        index = int(math.floor(float(t) / self.width))
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = {}
            self._prune()
        bucket[name] = bucket.get(name, 0.0) + float(value)

    def _prune(self) -> None:
        while len(self._buckets) > self.slots:
            oldest = min(self._buckets)
            del self._buckets[oldest]
            self.dropped_buckets += 1

    # -- queries ---------------------------------------------------------
    def buckets(self) -> List[Tuple[int, Dict[str, float]]]:
        """Retained buckets, oldest first, as ``(index, {name: value})``."""
        return [(i, dict(self._buckets[i])) for i in sorted(self._buckets)]

    def total(self, name: str) -> float:
        """Sum of ``name`` over the retained window."""
        return sum(b.get(name, 0.0) for b in self._buckets.values())

    def rate(self, hits: str, denominator: str) -> float:
        """Windowed ratio ``hits / denominator`` (0 when empty)."""
        denom = self.total(denominator)
        return self.total(hits) / denom if denom > 0.0 else 0.0

    # -- snapshot / restore / merge (exact) ------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "slots": self.slots,
            "dropped_buckets": self.dropped_buckets,
            "buckets": [
                [i, {k: self._buckets[i][k] for k in sorted(self._buckets[i])}]
                for i in sorted(self._buckets)
            ],
        }

    @classmethod
    def restore(cls, doc: Mapping[str, Any]) -> "WindowRing":
        ring = cls(float(doc["width"]), int(doc["slots"]))
        ring.dropped_buckets = int(doc.get("dropped_buckets", 0))
        for index, values in doc.get("buckets", ()):
            ring._buckets[int(index)] = {
                str(k): float(v) for k, v in values.items()
            }
        ring._prune()
        return ring

    def merge(self, other: "WindowRing") -> None:
        """Fold ``other`` in exactly (same geometry required): bucket
        values add, then the union is pruned to the newest ``slots``.

        Exactness covers the *retained buckets*: a stream counted whole
        and the same stream counted in two halves then merged agree on
        every retained bucket.  ``dropped_buckets`` is diagnostic only —
        a bucket pruned in both halves is counted twice (the halves
        cannot know they overlapped)."""
        if (self.width, self.slots) != (other.width, other.slots):
            raise ObservabilityError(
                "cannot merge rings with different geometry: "
                f"({self.width}, {self.slots}) vs "
                f"({other.width}, {other.slots})"
            )
        for index, values in other._buckets.items():
            bucket = self._buckets.setdefault(index, {})
            for name, value in values.items():
                bucket[name] = bucket.get(name, 0.0) + value
        self.dropped_buckets += other.dropped_buckets
        self._prune()


#: SLO counters a restart boundary legitimately changes and that are
#: therefore outside the drain/cold-start parity domain: a cold start *is*
#: one more recovery, and redeliveries (``duplicates``) are acked, never
#: written to the op log, so a cold start cannot recount them.
_NON_DURABLE_COUNTERS = ("recoveries", "cold_starts", "duplicates")


class SloTracker:
    """One tenant's service-level accounting: a :class:`MetricsRegistry`
    plus the :class:`WindowRing` over its decision counters.

    The registry counts what the service decided (``admitted``, ``shed``
    and ``shed.<reason>``, ``injected.<op>``, ``crashes``) and what
    happened to the process (``duplicates``, ``recoveries``,
    ``cold_starts``), samples the ``depth`` gauge (admission backlog) and
    times the durability points in the ``fsync`` histogram (wall clock).
    Kernel facts (completions, deadline misses, attained value) are not
    tracked: :meth:`repro.service.shard.TenantShard.slo_view` derives
    them from the kernel trace at scrape time, so a snapshot restore can
    never double-count them.
    """

    SCHEMA = 2

    def __init__(self, tenant: str, horizon: float, slots: int = 16) -> None:
        self.tenant = tenant
        self.registry = MetricsRegistry()
        self.ring = WindowRing(max(float(horizon), 1e-9) / slots, slots)

    def observe(self, t: Optional[float], name: str) -> None:
        """Count one ``name`` decision and land it in the ring at ``t``
        (a decision without a recorded time is counted, not windowed)."""
        self.registry.counter(name).inc()
        if t is not None:
            self.ring.observe(t, name)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe image (rides the TenantStore payload): the ring plus
        exactly :meth:`MetricsRegistry.snapshot`."""
        return {
            "schema": self.SCHEMA,
            "tenant": self.tenant,
            "ring": self.ring.snapshot(),
            **self.registry.snapshot(),
        }

    @classmethod
    def restore(cls, doc: Mapping[str, Any]) -> "SloTracker":
        """Rebuild from :meth:`snapshot` output, or from the schema-1
        document older stores hold (float ``counters`` plus ``depth``
        and ``fsync`` blocks)."""
        tracker = cls(str(doc.get("tenant", "?")), 1.0)
        tracker.ring = WindowRing.restore(doc["ring"])
        if doc.get("schema") != cls.SCHEMA:
            fsync = doc.get("fsync") or {}
            doc = {
                "counters": {k: int(v) for k, v in doc["counters"].items()},
                "gauges": {"depth": doc["depth"]},
                "histograms": {"fsync": fsync} if fsync.get("count") else {},
            }
        tracker.registry.merge(doc)
        return tracker


def slo_parity_view(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """The restart-invariant projection of an SLO snapshot.

    Keeps the durable decision counters and the window ring; drops the
    counters a restart changes (:data:`_NON_DURABLE_COUNTERS`), the
    gauges (a sample of the live backlog, not a decision) and the
    histograms (wall clock).  What is left is a pure function of the op
    log, so it must be *equal* across a ``kill -9`` → cold-start
    boundary, wherever the last durable snapshot fell.
    """
    counters = {
        k: v
        for k, v in (doc.get("counters") or {}).items()
        if k not in _NON_DURABLE_COUNTERS
    }
    return {
        "counters": dict(sorted(counters.items())),
        "ring": doc.get("ring"),
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: ``metric_name{tenant="..."} value`` series derived from a tenant entry
#: (``entry["stats"]`` / ``entry["slo"]["live"]`` paths are resolved by
#: :func:`_tenant_samples`).
_EXPO_SPEC: Tuple[Tuple[str, str, str], ...] = (
    # name, type, help
    ("repro_submitted_total", "counter", "Jobs offered for admission."),
    ("repro_accepted_total", "counter", "Jobs admitted into the kernel."),
    ("repro_shed_total", "counter", "Jobs shed by admission control."),
    ("repro_recoveries_total", "counter",
     "Snapshot-restore recoveries (restarts and cold starts)."),
    ("repro_forced_crashes_total", "counter",
     "Ingress-forced kernel crashes survived."),
    ("repro_completions_total", "counter",
     "Jobs completed by their deadline."),
    ("repro_deadline_misses_total", "counter",
     "Accepted jobs that missed their deadline (failed or abandoned)."),
    ("repro_deadline_miss_rate", "gauge",
     "Misses / decided outcomes over the whole run so far."),
    ("repro_attained_value", "gauge", "Cumulative attained value."),
    ("repro_value_per_capacity", "gauge",
     "Attained value per unit of executed work."),
    ("repro_queue_depth", "gauge",
     "Live backlog: accepted jobs without a recorded outcome."),
    ("repro_queue_depth_hwm", "gauge", "High-water mark of the backlog."),
    ("repro_frontier_seconds", "gauge",
     "Virtual dispatch frontier of the tenant kernel."),
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:\\.|[^"\\])*)"$'
)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: Any) -> str:
    try:
        x = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "+Inf" if x > 0 else "-Inf"
    return repr(x)


def _instrument(slo: Mapping[str, Any], kind: str, name: str) -> Mapping:
    """One instrument of an SLO document (``{}`` until first observed)."""
    return (slo.get(kind) or {}).get(name) or {}


def _tenant_samples(entry: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten one scrape entry into ``{metric_name: value}``."""
    stats = entry.get("stats") or {}
    slo = entry.get("slo") or {}
    live = slo.get("live") or {}
    depth = _instrument(slo, "gauges", "depth")
    return {
        "repro_submitted_total": stats.get("submitted", 0),
        "repro_accepted_total": stats.get("accepted", 0),
        "repro_shed_total": stats.get("shed", 0),
        "repro_recoveries_total": stats.get("recoveries", 0),
        "repro_forced_crashes_total": stats.get("forced_crashes", 0),
        "repro_completions_total": live.get("completions", 0),
        "repro_deadline_misses_total": live.get("deadline_misses", 0),
        "repro_deadline_miss_rate": live.get("miss_rate", 0.0),
        "repro_attained_value": live.get("attained_value", 0.0),
        "repro_value_per_capacity": live.get("value_per_capacity", 0.0),
        "repro_queue_depth": live.get("depth", depth.get("last", 0)),
        "repro_queue_depth_hwm": depth.get("hwm", 0),
        "repro_frontier_seconds": stats.get(
            "frontier", live.get("frontier", 0.0)
        ),
    }


def render_prometheus(fleet: Mapping[str, Mapping[str, Any]]) -> str:
    """Prometheus text format 0.0.4 for a fleet scrape.

    ``fleet`` maps tenant name → scrape entry (``{"health": ...,
    "stats": {...}, "slo": {...}}`` — the shape
    :meth:`repro.service.supervisor.ScheduleService.scrape` returns).
    One series per tenant per metric, plus one ``repro_tenant_health``
    series per (tenant, state) pair so a restarting tenant is visible
    as ``repro_tenant_health{tenant="t0",state="restarting"} 1``, never
    vanished.
    """
    lines: List[str] = []
    tenants = sorted(fleet)

    lines.append(
        "# HELP repro_tenant_health Tenant health state "
        "(1 for the active state, 0 otherwise)."
    )
    lines.append("# TYPE repro_tenant_health gauge")
    for tenant in tenants:
        health = str(fleet[tenant].get("health", "ok"))
        for state in HEALTH_STATES:
            lines.append(
                'repro_tenant_health{tenant="%s",state="%s"} %s'
                % (
                    _escape_label(tenant),
                    state,
                    "1" if state == health else "0",
                )
            )

    samples = {t: _tenant_samples(fleet[t]) for t in tenants}
    for name, mtype, help_text in _EXPO_SPEC:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for tenant in tenants:
            lines.append(
                '%s{tenant="%s"} %s'
                % (name, _escape_label(tenant), _fmt_value(samples[tenant][name]))
            )

    # Shed-by-reason breakdown (labelled counter, reasons from the ring).
    lines.append(
        "# HELP repro_shed_reason_total Jobs shed, by admission reason."
    )
    lines.append("# TYPE repro_shed_reason_total counter")
    for tenant in tenants:
        counters = (fleet[tenant].get("slo") or {}).get("counters") or {}
        for key in sorted(counters):
            if key.startswith("shed."):
                lines.append(
                    'repro_shed_reason_total{tenant="%s",reason="%s"} %s'
                    % (
                        _escape_label(tenant),
                        _escape_label(key[len("shed."):]),
                        _fmt_value(counters[key]),
                    )
                )

    # Journal/op-log fsync latency (wall clock; summary-style).
    lines.append(
        "# HELP repro_fsync_latency_seconds Wall-clock fsync latency of "
        "the durability points (op log + journal)."
    )
    lines.append("# TYPE repro_fsync_latency_seconds summary")
    for tenant in tenants:
        slo = fleet[tenant].get("slo") or {}
        fsync = _instrument(slo, "histograms", "fsync")
        label = _escape_label(tenant)
        lines.append(
            'repro_fsync_latency_seconds_count{tenant="%s"} %s'
            % (label, _fmt_value(fsync.get("count", 0)))
        )
        lines.append(
            'repro_fsync_latency_seconds_sum{tenant="%s"} %s'
            % (label, _fmt_value(fsync.get("sum", 0.0)))
        )
    return "\n".join(lines) + "\n"


def lint_prometheus(text: str) -> List[str]:
    """Validate Prometheus text exposition; returns problems ([] = ok).

    Checks the format rules a real scraper enforces: metric/label name
    syntax, HELP/TYPE comment shape, known TYPE values, parseable sample
    values, counters named ``*_total`` (or summary/histogram parts), and
    no duplicate series.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_series: set = set()
    valid_types = ("counter", "gauge", "histogram", "summary", "untyped")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: allowed
            if len(parts) < 3:
                problems.append(f"line {lineno}: truncated {parts[1]} comment")
                continue
            keyword, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: invalid metric name {name!r} in {keyword}"
                )
                continue
            if keyword == "TYPE":
                if len(parts) < 4 or parts[3] not in valid_types:
                    problems.append(
                        f"line {lineno}: TYPE {name} must be one of "
                        f"{valid_types}"
                    )
                elif name in types:
                    problems.append(f"line {lineno}: duplicate TYPE for {name}")
                else:
                    types[name] = parts[3]
            continue

        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = m.group("name")
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        mtype = types.get(base)
        if mtype is None:
            problems.append(f"line {lineno}: sample {name} has no TYPE")
        elif mtype == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {lineno}: counter {name} should end in _total"
            )
        label_text = m.group("labels")
        label_key = ()
        if label_text:
            pairs = []
            for pair in label_text.split(","):
                pm = _LABEL_PAIR_RE.match(pair.strip())
                if pm is None:
                    problems.append(
                        f"line {lineno}: malformed label pair {pair!r}"
                    )
                    continue
                if not _LABEL_RE.match(pm.group("key")):
                    problems.append(
                        f"line {lineno}: invalid label name {pm.group('key')!r}"
                    )
                pairs.append((pm.group("key"), pm.group("val")))
            if len({k for k, _ in pairs}) != len(pairs):
                problems.append(f"line {lineno}: repeated label name")
            label_key = tuple(sorted(pairs))
        value = m.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: non-numeric sample value {value!r}"
                )
        series = (name, label_key)
        if series in seen_series:
            problems.append(
                f"line {lineno}: duplicate series {name}{label_text or ''}"
            )
        seen_series.add(series)
    return problems


# ---------------------------------------------------------------------------
# `repro top` rendering
# ---------------------------------------------------------------------------

_TOP_COLUMNS = (
    ("TENANT", 8), ("HEALTH", 12), ("SUBM", 6), ("ACC", 6), ("SHED", 6),
    ("DEPTH", 6), ("HWM", 5), ("MISS%", 7), ("VALUE", 10), ("V/CAP", 7),
    ("RECOV", 6), ("FRONTIER", 9),
)


def render_top(
    fleet: Mapping[str, Mapping[str, Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """One ``repro top`` screen from a fleet scrape (pure; no wall clock
    unless the caller passes one in ``title``)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(f"{name:<{w}}" for name, w in _TOP_COLUMNS)
    lines.append(header)
    lines.append("-" * len(header))
    for tenant in sorted(fleet):
        entry = fleet[tenant]
        stats = entry.get("stats") or {}
        slo = entry.get("slo") or {}
        live = slo.get("live") or {}
        depth = _instrument(slo, "gauges", "depth")
        miss = 100.0 * float(live.get("miss_rate", 0.0))
        cells = (
            tenant,
            str(entry.get("health", "?")),
            str(stats.get("submitted", 0)),
            str(stats.get("accepted", 0)),
            str(stats.get("shed", 0)),
            str(live.get("depth", depth.get("last", 0))),
            str(int(depth.get("hwm", 0))),
            f"{miss:.1f}",
            f"{float(live.get('attained_value', 0.0)):.1f}",
            f"{float(live.get('value_per_capacity', 0.0)):.2f}",
            str(stats.get("recoveries", 0)),
            f"{float(stats.get('frontier', 0.0)):.2f}",
        )
        lines.append(
            "  ".join(
                f"{cell:<{w}}" for cell, (_, w) in zip(cells, _TOP_COLUMNS)
            )
        )
    totals = _fleet_totals(fleet)
    lines.append("-" * len(header))
    lines.append(
        "fleet: %d tenant(s)  submitted=%d accepted=%d shed=%d "
        "value=%.1f recoveries=%d"
        % (
            len(fleet),
            totals["submitted"],
            totals["accepted"],
            totals["shed"],
            totals["value"],
            totals["recoveries"],
        )
    )
    return "\n".join(lines)


def _fleet_totals(fleet: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    out = {"submitted": 0, "accepted": 0, "shed": 0, "value": 0.0, "recoveries": 0}
    for entry in fleet.values():
        stats = entry.get("stats") or {}
        live = (entry.get("slo") or {}).get("live") or {}
        out["submitted"] += int(stats.get("submitted", 0))
        out["accepted"] += int(stats.get("accepted", 0))
        out["shed"] += int(stats.get("shed", 0))
        out["value"] += float(live.get("attained_value", 0.0))
        out["recoveries"] += int(stats.get("recoveries", 0))
    return out
