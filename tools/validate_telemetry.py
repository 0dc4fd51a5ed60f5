#!/usr/bin/env python3
"""Validate the three export files ``p2sim_monitord --outdir`` writes.

Checked against the formats the telemetry layer promises:

  metrics.prom    Prometheus text exposition: every sample carries HELP and
                  TYPE headers, histogram buckets are cumulative and end in
                  +Inf, and every metric name obeys ``p2sim_[a-z0-9_]+``.
  telemetry.jsonl One JSON object per line with ``metric``/``type`` and a
                  value payload matching the type; wall-clock metrics are
                  excluded (the file must be bit-stable across identical
                  simulated campaigns).
  trace.json      Chrome trace_event JSON: a ``traceEvents`` array of
                  complete ("ph":"X") events with numeric ts/dur in
                  microseconds of simulated time.

Cross-checks: every metric in the JSONL stream also appears in the
Prometheus export (same registry, two serializations).

Exposition conformance (both modes): HELP and TYPE appear exactly once per
family, every histogram family exports ``_sum`` and ``_count`` plus a
closing ``le="+Inf"`` bucket, and the +Inf bucket's cumulative value equals
the family's ``_count``.

Usage:  python3 tools/validate_telemetry.py <outdir>
        python3 tools/validate_telemetry.py --scrape <file>

The ``--scrape`` form validates the body of a live ``GET /metrics``
response captured from the monitoring service (e.g. via p2sim_monitord
--scrape-dump); it additionally requires at least one ``p2sim_server_*``
metric, proving the body came from a live server and not a file export.
Exit status 0 when everything holds, 1 with a message per violation.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

NAME_RE = re.compile(r"^p2sim_[a-z0-9_]+$")
# Prometheus sample line: name, optional {labels}, one float value.
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)
KINDS = ("counter", "gauge", "histogram")
# Suffixes Prometheus serialization appends to a histogram family.
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def base_name(sample_name: str) -> str:
    for suffix in HIST_SUFFIXES:
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_value(text: str) -> float | None:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        return None


def check_prometheus(path: pathlib.Path) -> tuple[list[str], set[str]]:
    problems: list[str] = []
    helped: set[str] = set()
    typed: dict[str, str] = {}
    sampled: set[str] = set()
    last_bucket: dict[str, float] = {}
    inf_bucket: dict[str, float] = {}
    family_stat: dict[str, set[str]] = {}
    count_value: dict[str, float] = {}
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if not line:
            problems.append(f"{path.name}:{i}: blank line")
            continue
        if line.startswith("# HELP "):
            fam = line.split()[2]
            if fam in helped:
                problems.append(
                    f"{path.name}:{i}: duplicate HELP for {fam!r}; exactly "
                    f"one per family"
                )
            helped.add(fam)
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in KINDS:
                problems.append(f"{path.name}:{i}: malformed TYPE line")
            else:
                if parts[2] in typed:
                    problems.append(
                        f"{path.name}:{i}: duplicate TYPE for {parts[2]!r}; "
                        f"exactly one per family"
                    )
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            problems.append(f"{path.name}:{i}: unknown comment form")
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            problems.append(f"{path.name}:{i}: unparseable sample: {line!r}")
            continue
        name = base_name(m.group("name"))
        sampled.add(name)
        if not NAME_RE.match(name):
            problems.append(
                f"{path.name}:{i}: metric name {name!r} violates "
                f"p2sim_[a-z0-9_]+"
            )
        if name not in typed or name not in helped:
            problems.append(
                f"{path.name}:{i}: sample {name!r} precedes its "
                f"HELP/TYPE headers"
            )
        value = parse_value(m.group("value"))
        if value is None:
            problems.append(
                f"{path.name}:{i}: non-numeric value {m.group('value')!r}"
            )
            continue
        # Histogram buckets must be non-decreasing (they are cumulative)
        # and the family must close with the +Inf bucket.
        if m.group("name").endswith("_bucket"):
            prev = last_bucket.get(name, 0.0)
            if value < prev:
                problems.append(
                    f"{path.name}:{i}: cumulative bucket counts decreased "
                    f"for {name!r}"
                )
            last_bucket[name] = value
            labels = m.group("labels") or ""
            if 'le="' not in labels:
                problems.append(
                    f"{path.name}:{i}: bucket sample without an le label"
                )
            if 'le="+Inf"' in labels:
                inf_bucket[name] = value
        elif m.group("name").endswith("_sum") and name in typed:
            family_stat.setdefault(name, set()).add("sum")
        elif m.group("name").endswith("_count") and name in typed:
            family_stat.setdefault(name, set()).add("count")
            count_value[name] = value
    for name, kind in typed.items():
        if kind == "histogram":
            if name not in last_bucket:
                problems.append(
                    f"{path.name}: histogram {name!r} exported no buckets"
                )
            elif name not in inf_bucket:
                problems.append(
                    f"{path.name}: histogram {name!r} lacks the closing "
                    f'le="+Inf" bucket'
                )
            for stat in ("sum", "count"):
                if stat not in family_stat.get(name, set()):
                    problems.append(
                        f"{path.name}: histogram {name!r} exported no "
                        f"_{stat} sample"
                    )
            if (name in inf_bucket and name in count_value
                    and inf_bucket[name] != count_value[name]):
                problems.append(
                    f"{path.name}: histogram {name!r} +Inf bucket "
                    f"({inf_bucket[name]}) != _count ({count_value[name]})"
                )
    if not sampled:
        problems.append(f"{path.name}: no samples at all")
    return problems, sampled


def check_scrape(path: pathlib.Path) -> list[str]:
    """Validate a captured live /metrics response body."""
    problems, names = check_prometheus(path)
    if not any(n.startswith("p2sim_server_") for n in names):
        problems.append(
            f"{path.name}: no p2sim_server_* metric in the scrape; the "
            f"body does not look like a live monitoring-service response"
        )
    return problems


def check_jsonl(path: pathlib.Path) -> tuple[list[str], set[str]]:
    problems: list[str] = []
    names: set[str] = set()
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path.name}:{i}: invalid JSON ({exc})")
            continue
        name = obj.get("metric", "")
        if not NAME_RE.match(name):
            problems.append(f"{path.name}:{i}: bad metric name {name!r}")
        if name in names:
            problems.append(f"{path.name}:{i}: duplicate metric {name!r}")
        names.add(name)
        kind = obj.get("type")
        if kind not in KINDS:
            problems.append(f"{path.name}:{i}: bad type {kind!r}")
        if kind == "histogram":
            buckets = obj.get("buckets")
            if not isinstance(buckets, list) or not buckets:
                problems.append(f"{path.name}:{i}: histogram sans buckets")
        elif not isinstance(obj.get("value"), (int, float)):
            problems.append(f"{path.name}:{i}: missing numeric value")
        # The default JSONL export is the deterministic sim-time view;
        # wall-clock metrics leaking in would break bit-stability.
        if obj.get("wall_clock"):
            problems.append(
                f"{path.name}:{i}: wall-clock metric {name!r} in the "
                f"sim-time export"
            )
    if not names:
        problems.append(f"{path.name}: no metrics at all")
    return problems, names


def check_trace(path: pathlib.Path) -> list[str]:
    problems: list[str] = []
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path.name}: invalid JSON ({exc})"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{path.name}: missing or empty traceEvents array"]
    for i, ev in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "dur"):
            if key not in ev:
                problems.append(f"{path.name}: event {i} lacks {key!r}")
                break
        else:
            if ev["ph"] != "X":
                problems.append(
                    f"{path.name}: event {i} has ph={ev['ph']!r}, expected "
                    f"complete events only"
                )
            if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
                problems.append(f"{path.name}: event {i} has bad ts")
            if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
                problems.append(f"{path.name}: event {i} has bad dur")
        if len(problems) > 20:
            problems.append(f"{path.name}: ... further problems suppressed")
            break
    return problems


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--scrape":
        scrape = pathlib.Path(sys.argv[2])
        if not scrape.is_file():
            print(f"validate_telemetry: {scrape}: missing", file=sys.stderr)
            return 1
        problems = check_scrape(scrape)
        for p in problems:
            print(f"validate_telemetry: {p}", file=sys.stderr)
        if problems:
            print(f"validate_telemetry: {len(problems)} problem(s)",
                  file=sys.stderr)
            return 1
        print("validate_telemetry: scrape OK")
        return 0
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = pathlib.Path(sys.argv[1])
    problems: list[str] = []
    for required in ("metrics.prom", "telemetry.jsonl", "trace.json"):
        if not (outdir / required).is_file():
            problems.append(f"{required}: missing from {outdir}")
    if problems:
        for p in problems:
            print(f"validate_telemetry: {p}", file=sys.stderr)
        return 1

    prom_problems, prom_names = check_prometheus(outdir / "metrics.prom")
    jsonl_problems, jsonl_names = check_jsonl(outdir / "telemetry.jsonl")
    problems = prom_problems + jsonl_problems
    problems += check_trace(outdir / "trace.json")

    # Same registry, two serializations: the sim-time JSONL stream must be
    # a subset of the full Prometheus export.
    for name in sorted(jsonl_names - prom_names):
        problems.append(
            f"metric {name!r} in telemetry.jsonl but not metrics.prom"
        )

    for p in problems:
        print(f"validate_telemetry: {p}", file=sys.stderr)
    if problems:
        print(f"validate_telemetry: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    print(
        f"validate_telemetry: OK ({len(prom_names)} prometheus metrics, "
        f"{len(jsonl_names)} jsonl metrics)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
