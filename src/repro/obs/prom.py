"""Prometheus text-format (0.0.4) exposition for the serving tier.

:func:`render_prometheus` turns the gateway's ``/metrics`` JSON document
into the plain-text format every Prometheus-compatible scraper speaks.
Naming follows the upstream conventions:

- everything is prefixed ``repro_``;
- monotonic counters end in ``_total`` and are typed ``counter``;
- latency histograms are exposed as ``summary`` families —
  ``repro_<name>{quantile="0.5"}`` sample lines plus the exact
  ``_sum``/``_count`` pair;
- everything else (gauge-like instantaneous values: cache sizes, worker
  liveness, burn rates) is typed ``gauge``;
- label values are escaped per the spec (backslash, quote, newline).

:func:`validate_prometheus_text` is a small independent validator (used
by the tests and the CI smoke) that checks the grammar: ``# TYPE``
before first sample of a family, legal metric/label names, parseable
float values, counters ending in ``_total``, no duplicate samples.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["render_prometheus", "validate_prometheus_text"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)


def _sanitize(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not _NAME_RE.match(out):
        out = "_" + out
    return out


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\"", "\\\"")
        .replace("\n", "\\n")
    )


def _fmt(value: Any) -> str:
    try:
        v = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _Writer:
    """Accumulates families in order; one TYPE/HELP block per family."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._seen: Dict[str, str] = {}

    def family(self, name: str, kind: str, help_text: str) -> None:
        if name in self._seen:
            return
        self._seen[name] = kind
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, value: Any,
        labels: Optional[Dict[str, Any]] = None,
        suffix: str = "",
    ) -> None:
        label_str = ""
        if labels:
            inner = ",".join(
                f'{_sanitize(k)}="{_escape_label(v)}"'
                for k, v in sorted(labels.items())
            )
            label_str = "{" + inner + "}"
        self._lines.append(f"{name}{suffix}{label_str} {_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _counter(w: _Writer, raw_name: str, value: Any,
             labels: Optional[Dict[str, Any]] = None,
             help_text: Optional[str] = None) -> None:
    name = _sanitize(f"repro_{raw_name}")
    if not name.endswith("_total"):
        name += "_total"
    w.family(name, "counter", help_text or f"Monotonic count of {raw_name}.")
    w.sample(name, value, labels)


def _gauge(w: _Writer, raw_name: str, value: Any,
           labels: Optional[Dict[str, Any]] = None,
           help_text: Optional[str] = None) -> None:
    name = _sanitize(f"repro_{raw_name}")
    w.family(name, "gauge", help_text or f"Instantaneous value of {raw_name}.")
    w.sample(name, value, labels)


def _summary(w: _Writer, raw_name: str, summ: Dict[str, Any],
             quantiles: Dict[str, Any]) -> None:
    name = _sanitize(f"repro_{raw_name}")
    w.family(name, "summary", f"Distribution of {raw_name}.")
    for q, value in quantiles.items():
        if value is not None:
            w.sample(name, value, {"quantile": q})
    w.sample(name, summ.get("total", 0.0), suffix="_sum")
    w.sample(name, summ.get("count", 0), suffix="_count")


def render_prometheus(doc: Dict[str, Any]) -> str:
    """Render a gateway ``/metrics`` JSON document as text format 0.0.4."""
    w = _Writer()

    gateway = doc.get("gateway") or {}
    for name, value in (gateway.get("counters") or {}).items():
        _counter(w, name, value)
    latency = doc.get("latency") or {}
    histograms = gateway.get("histograms") or {}
    for name, summ in histograms.items():
        if not summ.get("count"):
            continue
        quantiles = {"0.5": summ.get("p50"), "0.95": summ.get("p95")}
        if name == "request_seconds":
            quantiles = {
                "0.5": latency.get("p50"),
                "0.95": latency.get("p95"),
                "0.99": latency.get("p99"),
            }
        _summary(w, name, summ, quantiles)

    cache = doc.get("cache") or {}
    for key, value in cache.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _gauge(w, f"gateway_cache_{key}", value,
                   help_text="Gateway result-cache statistic.")
    disk = doc.get("disk_cache") or {}
    for key, value in disk.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _gauge(w, f"disk_cache_{key}", value,
                   help_text="Shared persistent-cache statistic.")

    workers = doc.get("workers") or {}
    if workers:
        for wid, snap in sorted(workers.items()):
            labels = {"worker": wid}
            _gauge(w, "worker_alive", 1 if snap.get("alive") else 0, labels,
                   help_text="1 when the worker process is alive.")
            _gauge(w, "worker_generation", snap.get("generation", 0), labels,
                   help_text="Spawn generation (increments on respawn).")
            _counter(w, "worker_crashes_detected", snap.get("crashes", 0),
                     labels, help_text="Crashes detected for this shard.")

    for name, value in (doc.get("rect_search") or {}).items():
        _counter(w, name, value,
                 help_text="Rectangle-search v2 effectiveness counter.")

    slo = doc.get("slo") or {}
    for path, windows in (slo.get("paths") or {}).items():
        tenant, _, algorithm = path.partition("/")
        for window, burns in windows.items():
            labels = {
                "tenant": tenant, "algorithm": algorithm, "window": window,
            }
            _gauge(w, "slo_error_burn", burns.get("error_burn", 0.0), labels,
                   help_text="Availability error-budget burn rate.")
            _gauge(w, "slo_latency_burn", burns.get("latency_burn", 0.0),
                   labels, help_text="Latency error-budget burn rate.")

    cluster = doc.get("cluster") or {}
    for name, value in (cluster.get("counters") or {}).items():
        _counter(w, f"cluster_{name}", value,
                 help_text="Cluster-wide counter merged from worker "
                           "snapshots (repro.obs/2).")
    return w.render()


# ----------------------------------------------------------------------
# validator (tests + CI smoke)
# ----------------------------------------------------------------------


def _parse_labels(raw: str) -> Optional[List[Tuple[str, str]]]:
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(raw):
        m = re.match(r"\s*([a-zA-Z_][a-zA-Z0-9_]*)=\"", raw[i:])
        if not m:
            return None
        name = m.group(1)
        i += m.end()
        value = []
        while i < len(raw):
            c = raw[i]
            if c == "\\":
                if i + 1 >= len(raw):
                    return None
                value.append(raw[i:i + 2])
                i += 2
                continue
            if c == "\"":
                break
            value.append(c)
            i += 1
        else:
            return None
        i += 1  # closing quote
        labels.append((name, "".join(value)))
        if i < len(raw) and raw[i] == ",":
            i += 1
    return labels


def _base_family(name: str) -> str:
    for suffix in ("_sum", "_count", "_bucket"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_prometheus_text(text: str) -> List[str]:
    """Check text-format 0.0.4 grammar; returns a list of problems."""
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_samples = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "summary", "histogram",
                            "untyped"):
                problems.append(f"line {lineno}: unknown type {kind!r}")
            if name in types:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = _SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = m.group("name")
        family = _base_family(name)
        if not _NAME_RE.match(name):
            problems.append(f"line {lineno}: bad metric name {name!r}")
        if family not in types and name not in types:
            problems.append(
                f"line {lineno}: sample {name!r} precedes its TYPE line"
            )
        kind = types.get(family) or types.get(name)
        if kind == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {lineno}: counter {name!r} does not end in _total"
            )
        raw_labels = m.group("labels")
        label_pairs: List[Tuple[str, str]] = []
        if raw_labels is not None:
            parsed = _parse_labels(raw_labels)
            if parsed is None:
                problems.append(f"line {lineno}: malformed labels {raw_labels!r}")
            else:
                label_pairs = parsed
                for lname, _ in parsed:
                    if not _LABEL_RE.match(lname):
                        problems.append(
                            f"line {lineno}: bad label name {lname!r}"
                        )
        value = m.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: bad value {value!r}")
        sample_key = (name, tuple(sorted(label_pairs)))
        if sample_key in seen_samples:
            problems.append(f"line {lineno}: duplicate sample {name}")
        seen_samples.add(sample_key)
    if not types:
        problems.append("no metric families found")
    return problems
