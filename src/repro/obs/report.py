"""Trace summarisation and the ``python -m repro obs report`` printer.

Works from raw trace records (live :class:`~repro.obs.telemetry.Telemetry`
output or a loaded JSONL file) and renders the tables the analyses need:
the phase-span breakdown, the rule-counter totals, per-component
attribution of a repair's component solves, per-request attribution,
peeling-profile shapes, aggregate timers, and memory probes against the
Table-1 budgets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["summarize", "profile_is_monotone", "render_report"]


def summarize(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate raw trace records into a summary dict.

    Keys: ``phases`` (per span name: count / wall / top-level wall),
    ``span_total`` (sum of depth-0 span walls — comparable to the run's
    ``MISResult.elapsed``), ``counters``, ``timers``, ``profiles``,
    ``memory``, ``components`` (pid, spans and wall per ``(request,
    component)`` pair; the request is ``None`` for unserved runs),
    ``processes`` (pid → label) and ``requests`` (per request id: span/wall/source/backend
    attribution, from the serving layer's context stamps).
    """
    phases: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    timers: Dict[str, Dict[str, float]] = {}
    profiles: List[Dict[str, object]] = []
    memory: List[Dict[str, object]] = []
    components: Dict[Tuple[object, object], Dict[str, object]] = {}
    # (start, depth, wall) of every span stamped with each component key.
    component_spans: Dict[Tuple[object, object], List[Tuple[float, int, float]]] = {}
    processes: Dict[object, str] = {}
    requests: Dict[str, Dict[str, object]] = {}
    span_total = 0.0

    for record in records:
        kind = record.get("type")
        if kind == "meta":
            processes[record.get("pid")] = str(record.get("label", ""))
        elif kind == "span":
            name = str(record.get("name"))
            wall = float(record.get("wall", 0.0))
            depth = record.get("depth", 0)
            cell = phases.setdefault(name, {"count": 0, "wall": 0.0, "top_wall": 0.0})
            cell["count"] += 1
            cell["wall"] += wall
            if depth == 0:
                cell["top_wall"] += wall
                span_total += wall
            meta = record.get("meta")
            if not isinstance(meta, dict):
                meta = {}
            component = record.get("component")
            if component is None:
                component = meta.get("component")
            request = record.get("request") or meta.get("request")
            if component is not None:
                # Component indices restart at 0 in every repair, so the
                # request tells the repairs of a served trace apart.
                key = (None if request is None else str(request), component)
                comp = components.setdefault(
                    key, {"pid": record.get("pid"), "wall": 0.0, "spans": []}
                )
                comp["spans"].append(name)
                component_spans.setdefault(key, []).append(
                    (float(record.get("start", 0.0)), int(depth), wall)
                )
            if request is not None:
                req = requests.setdefault(
                    str(request),
                    {
                        "spans": 0,
                        "wall": 0.0,
                        "sources": {},
                        "backends": {},
                        "components": set(),
                        "tenant": "",
                    },
                )
                req["spans"] = int(req["spans"]) + 1
                if depth == 0:
                    req["wall"] = float(req["wall"]) + wall
                tenant = record.get("tenant") or meta.get("tenant")
                if tenant:
                    req["tenant"] = str(tenant)
                if component is not None:
                    req["components"].add(component)  # type: ignore[union-attr]
                source = meta.get("source")
                if source is not None:
                    sources = req["sources"]
                    sources[source] = sources.get(source, 0) + 1  # type: ignore[union-attr]
                backend = meta.get("backend")
                if backend:
                    backends = req["backends"]
                    backends[backend] = backends.get(backend, 0) + 1  # type: ignore[union-attr]
        elif kind == "counters":
            for key, amount in dict(record.get("values", {})).items():
                counters[key] = counters.get(key, 0) + int(amount)
        elif kind == "timer":
            name = str(record.get("name"))
            cell = timers.setdefault(name, {"count": 0, "total": 0.0})
            cell["count"] += int(record.get("count", 0))
            cell["total"] += float(record.get("total", 0.0))
        elif kind == "profile":
            profiles.append(record)
        elif kind == "memory":
            memory.append(record)
    for key, spans in component_spans.items():
        components[key]["wall"] = _outermost_wall(spans)
    for req in requests.values():
        req["components"] = sorted(req["components"], key=str)  # type: ignore[arg-type]
    return {
        "phases": phases,
        "span_total": span_total,
        "counters": counters,
        "timers": timers,
        "profiles": profiles,
        "memory": memory,
        "components": components,
        "processes": processes,
        "requests": requests,
    }


def _outermost_wall(spans: List[Tuple[float, int, float]]) -> float:
    """Wall of the ``(start, depth, wall)`` spans that no span of the list
    encloses.

    A component's spans nest at whatever depth its solve was called from
    (a served repair's sit inside ``serve:solve``), so its wall is the sum
    over its outermost spans: in start order, a span that starts inside the
    last credited span at a greater depth is part of it.
    """
    total = 0.0
    end = float("-inf")
    outer_depth = -1
    for start, depth, wall in sorted(spans):
        if start < end and depth > outer_depth:
            continue
        total += wall
        end = start + wall
        outer_depth = depth
    return total


def profile_is_monotone(profile: Dict[str, object]) -> bool:
    """Whether the profile's live-vertex curve never increases.

    Reducing-peeling only ever deletes vertices, so a healthy profile is
    monotone non-increasing in live vertices; a violation means the live
    counters (or the sampler) are broken.
    """
    samples = profile.get("samples") or []
    lives = [sample[1] for sample in samples]
    return all(a >= b for a, b in zip(lives, lives[1:]))


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def render_report(records: Sequence[Dict[str, object]], title: str = "") -> str:
    """Human-readable text report over a trace's records."""
    summary = summarize(records)
    lines: List[str] = []
    if title:
        lines.append(title)
    phases = summary["phases"]
    span_total = summary["span_total"]
    if phases:
        lines.append("phase spans:")
        width = max(len(name) for name in phases)
        for name, cell in sorted(
            phases.items(), key=lambda item: -item[1]["wall"]
        ):
            share = 100.0 * cell["top_wall"] / span_total if span_total else 0.0
            lines.append(
                f"  {name:<{width}}  x{int(cell['count']):<5} "
                f"{_format_seconds(cell['wall']):>10}  {share:5.1f}%"
            )
        lines.append(f"  span total (top-level): {_format_seconds(span_total)}")
    timers = summary["timers"]
    if timers:
        lines.append("timers:")
        for name, cell in sorted(timers.items()):
            count = int(cell["count"])
            mean = cell["total"] / count if count else 0.0
            lines.append(
                f"  {name}: {count} calls, total {_format_seconds(cell['total'])}, "
                f"mean {_format_seconds(mean)}"
            )
    counters = summary["counters"]
    if counters:
        rendered = ", ".join(
            f"{key}={value:,}" for key, value in sorted(counters.items())
        )
        lines.append(f"rule counters: {rendered}")
    for profile in summary["profiles"]:
        samples = profile.get("samples") or []
        if not samples:
            continue
        first, last = samples[0], samples[-1]
        monotone = "monotone" if profile_is_monotone(profile) else "NON-MONOTONE"
        lines.append(
            f"peeling profile [{profile.get('algorithm')} on "
            f"{profile.get('graph')}]: {len(samples)} samples, "
            f"live {first[1]:,}->{last[1]:,} vertices / "
            f"{first[2]:,}->{last[2]:,} edges, bound {first[3]:,}->{last[3]:,} "
            f"({monotone})"
        )
    for record in summary["memory"]:
        line = (
            f"memory [{record.get('algorithm')} on {record.get('graph')}]: "
            f"peak {int(record.get('peak_bytes', 0)):,} bytes"
        )
        if "budget_bytes" in record:
            line += (
                f" vs Table-1 budget {int(record['budget_bytes']):,} bytes "
                f"({record['budget_words']:,} words)"
            )
        lines.append(line)
    components = summary["components"]
    if components:
        lines.append("per-component attribution:")
        for (request, component), cell in sorted(
            components.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
        ):
            label = summary["processes"].get(cell.get("pid"), "")
            worker = f"pid {cell.get('pid')}" + (f" ({label})" if label else "")
            where = "" if request is None else f"{request} "
            lines.append(
                f"  {where}component {component}: {worker}, "
                f"{len(cell['spans'])} spans, wall {_format_seconds(cell['wall'])}"
            )
    requests = summary["requests"]
    if requests:
        lines.append("per-request attribution:")
        for request, cell in sorted(requests.items()):
            parts = [
                f"{cell['spans']} spans",
                f"wall {_format_seconds(float(cell['wall']))}",
            ]
            if cell["tenant"]:
                parts.insert(0, f"tenant {cell['tenant']}")
            sources = cell["sources"]
            if sources:
                parts.append(
                    "sources "
                    + "/".join(f"{k}x{v}" for k, v in sorted(sources.items()))
                )
            backends = cell["backends"]
            if backends:
                parts.append(
                    "backends "
                    + "/".join(f"{k}x{v}" for k, v in sorted(backends.items()))
                )
            if cell["components"]:
                parts.append(f"components {cell['components']}")
            lines.append(f"  {request}: " + ", ".join(parts))
    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.report <trace.jsonl>`` — standalone printer."""
    import argparse

    from .trace_io import load_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__
    )
    parser.add_argument("trace", help="JSON-lines trace file")
    args = parser.parse_args(argv)
    print(render_report(load_trace(args.trace), title=f"trace: {args.trace}"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
