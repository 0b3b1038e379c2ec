#!/usr/bin/env python3
"""Validate hjsvd observability outputs (stdlib only).

Checks a Chrome trace-event JSON (hjsvd.trace.v1, .v2, or .v3), a metrics
JSON (hjsvd.metrics.v1), a live snapshot stream
(hjsvd.metrics-snapshots.v1 JSONL), and/or an offline report
(hjsvd.report.v2) produced by `hjsvd_cli --trace-out/--metrics-out/
--obs-live`, `hjsvd_report`, the benches, or any library user:

  * JSON well-formedness and schema tag.
  * Trace: every event carries ph/pid/tid/ts; complete events ('X') have a
    non-negative dur; counter events ('C', trace.v2+) carry a numeric
    args.value; spans nest (no interleaving) per (pid, tid) timeline;
    flight-recorder documents (trace.v3) carry the ring metadata in
    otherData and a consistent drop total.
  * Metrics: every metric has name/type/unit; names are unique and sorted;
    per-type required fields are present.
  * Snapshots: every line is a self-contained hjsvd.metrics-snapshots.v1
    object; seq strictly increasing, elapsed_us non-decreasing, counter
    values non-decreasing per name, dropped_events non-decreasing.
  * Report: run/phases blocks present with sane types.
  * Numerics (--numerics): the svd.num.* namespace emitted by the
    numerical-health probes is internally consistent — angle-histogram
    buckets summing (with non-finite events) to the sample counter,
    fractions inside [0, 1], stride >= 1, condition estimate >= 1,
    watchdog verdict gauges 0/1 — and, when --report is given, the
    report's "numerics" section is present with the same invariants.
  * Optionally, that a list of required span names / metric names occurs.

Exit code 0 = valid, 1 = validation failure, 2 = usage error.

Usage:
  scripts/validate_obs.py --trace trace.json --metrics metrics.json \
      --require-span sweep --require-span finalize \
      --require-metric svd.sweep.offdiag_frobenius
  scripts/validate_obs.py --report report.json
  scripts/validate_obs.py --snapshots live/snapshots.jsonl
  scripts/validate_obs.py --metrics metrics.json --report report.json \
      --numerics
"""
from __future__ import annotations

import argparse
import json
import sys

# trace.v2 = v1 + counter ('C') events; trace.v3 = v2 + flight-recorder ring
# metadata in otherData.  Older documents remain valid input.
TRACE_SCHEMAS = ("hjsvd.trace.v1", "hjsvd.trace.v2", "hjsvd.trace.v3")
TRACE_SCHEMA_V3 = "hjsvd.trace.v3"
METRICS_SCHEMA = "hjsvd.metrics.v1"
SNAPSHOTS_SCHEMA = "hjsvd.metrics-snapshots.v1"
REPORT_SCHEMA = "hjsvd.report.v2"
METRIC_TYPES = {"counter", "gauge", "histogram", "series"}
EPS = 1e-6  # double round-off tolerance at span boundaries (microseconds)


def fail(msg: str) -> None:
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_trace(path: str, required_spans: list[str]) -> int:
    doc = load(path)
    if doc.get("schema") not in TRACE_SCHEMAS:
        fail(
            f"{path}: schema is {doc.get('schema')!r}, "
            f"want one of {TRACE_SCHEMAS}"
        )
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    timelines: dict[tuple, list] = {}
    names = set()
    for i, e in enumerate(events):
        # Metadata events ('M') carry no timestamp in the Chrome format.
        required = ("ph", "pid", "tid") if e.get("ph") == "M" else (
            "ph", "pid", "tid", "ts")
        for field in required:
            if field not in e:
                fail(f"{path}: event {i} lacks {field!r}: {e}")
        names.add(e.get("name"))
        if e["ph"] == "X":
            if "dur" not in e or not isinstance(e["dur"], (int, float)):
                fail(f"{path}: complete event {i} lacks numeric dur: {e}")
            if e["dur"] < 0:
                fail(f"{path}: event {i} has negative dur: {e}")
            timelines.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"], e.get("name", "?"))
            )
        if e["ph"] == "C":
            value = e.get("args", {}).get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(
                    f"{path}: counter event {i} lacks numeric args.value: {e}"
                )

    # Spans on one timeline must nest like call frames, never interleave.
    for (pid, tid), spans in timelines.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: list[float] = []
        for ts, end, name in spans:
            while stack and stack[-1] <= ts + EPS:
                stack.pop()
            if stack and end > stack[-1] + EPS:
                fail(
                    f"{path}: span {name!r} [{ts}, {end}] interleaves with an "
                    f"open span ending at {stack[-1]} on pid={pid} tid={tid}"
                )
            stack.append(end)

    if doc.get("schema") == TRACE_SCHEMA_V3:
        other = doc.get("otherData")
        if not isinstance(other, dict):
            fail(f"{path}: trace.v3 document lacks otherData")
        if other.get("flight_recorder") is not True:
            fail(f"{path}: trace.v3 otherData lacks flight_recorder: true")
        capacity = other.get("ring_capacity_events")
        if not isinstance(capacity, int) or capacity <= 0:
            fail(
                f"{path}: trace.v3 ring_capacity_events must be a positive "
                f"integer, got {capacity!r}"
            )
        total = other.get("dropped_events_total")
        by_tid = other.get("dropped_events_by_tid")
        if not isinstance(total, int) or total < 0:
            fail(
                f"{path}: trace.v3 dropped_events_total must be a "
                f"non-negative integer, got {total!r}"
            )
        if not isinstance(by_tid, list) or any(
            not isinstance(d, int) or d < 0 for d in by_tid
        ):
            fail(f"{path}: trace.v3 dropped_events_by_tid malformed: {by_tid!r}")
        if sum(by_tid) != total:
            fail(
                f"{path}: trace.v3 dropped_events_by_tid sums to "
                f"{sum(by_tid)}, but dropped_events_total is {total}"
            )

    for span in required_spans:
        if span not in names:
            fail(f"{path}: required span {span!r} not found")
    print(
        f"validate_obs: {path}: OK "
        f"({len(events)} events, {len(timelines)} span timelines)"
    )
    return len(events)


def check_metrics(path: str, required_metrics: list[str]) -> int:
    doc = load(path)
    if doc.get("schema") != METRICS_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {METRICS_SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        fail(f"{path}: metrics missing or not a list")

    names = []
    for i, m in enumerate(metrics):
        for field in ("name", "type", "unit"):
            if field not in m:
                fail(f"{path}: metric {i} lacks {field!r}: {m}")
        if m["type"] not in METRIC_TYPES:
            fail(f"{path}: metric {m['name']!r} has unknown type {m['type']!r}")
        if m["type"] in ("counter", "gauge") and "value" not in m:
            fail(f"{path}: {m['type']} {m['name']!r} lacks value")
        if m["type"] == "histogram":
            for field in ("count", "min", "max", "mean", "p50", "p90", "p99"):
                if field not in m:
                    fail(f"{path}: histogram {m['name']!r} lacks {field!r}")
        if m["type"] == "series":
            pts = m.get("points")
            if not isinstance(pts, list) or any(
                not (isinstance(p, list) and len(p) == 2) for p in pts
            ):
                fail(f"{path}: series {m['name']!r} points malformed")
        names.append(m["name"])

    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        fail(f"{path}: duplicate metric names: {dupes}")
    if names != sorted(names):
        fail(f"{path}: metric names are not sorted (non-deterministic emit?)")
    for name in required_metrics:
        if name not in names:
            fail(f"{path}: required metric {name!r} not found")
    print(f"validate_obs: {path}: OK ({len(metrics)} metrics)")
    return len(metrics)


def check_snapshots(path: str) -> int:
    """Validates an hjsvd.metrics-snapshots.v1 JSONL stream line by line."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
    if not lines:
        fail(f"{path}: snapshot stream is empty")

    last_seq = None
    last_elapsed = None
    last_dropped = None
    last_counters: dict[str, float] = {}
    for i, line in enumerate(lines):
        try:
            snap = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}: line {i + 1} is not valid JSON: {e}")
        if not isinstance(snap, dict):
            fail(f"{path}: line {i + 1} is not an object")
        if snap.get("schema") != SNAPSHOTS_SCHEMA:
            fail(
                f"{path}: line {i + 1} schema is {snap.get('schema')!r}, "
                f"want {SNAPSHOTS_SCHEMA!r}"
            )
        for field, kind in (
            ("seq", int),
            ("elapsed_us", (int, float)),
            ("dropped_events", int),
            ("counters", dict),
            ("gauges", dict),
        ):
            if not isinstance(snap.get(field), kind) or isinstance(
                snap.get(field), bool
            ):
                fail(
                    f"{path}: line {i + 1} lacks a well-typed "
                    f"{field!r}: {snap.get(field)!r}"
                )
        seq = snap["seq"]
        elapsed = snap["elapsed_us"]
        dropped = snap["dropped_events"]
        if last_seq is not None and seq <= last_seq:
            fail(
                f"{path}: line {i + 1} seq {seq} is not strictly greater "
                f"than previous seq {last_seq}"
            )
        if last_elapsed is not None and elapsed < last_elapsed:
            fail(
                f"{path}: line {i + 1} elapsed_us {elapsed} decreased "
                f"from {last_elapsed}"
            )
        if last_dropped is not None and dropped < last_dropped:
            fail(
                f"{path}: line {i + 1} dropped_events {dropped} decreased "
                f"from {last_dropped}"
            )
        for name, value in snap["counters"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(
                    f"{path}: line {i + 1} counter {name!r} is not "
                    f"numeric: {value!r}"
                )
            if name in last_counters and value < last_counters[name]:
                fail(
                    f"{path}: line {i + 1} counter {name!r} decreased "
                    f"{last_counters[name]} -> {value}"
                )
            last_counters[name] = value
        for name, value in snap["gauges"].items():
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                fail(
                    f"{path}: line {i + 1} gauge {name!r} is not numeric "
                    f"or null: {value!r}"
                )
        last_seq, last_elapsed, last_dropped = seq, elapsed, dropped
    print(f"validate_obs: {path}: OK ({len(lines)} snapshots)")
    return len(lines)


def check_report(path: str) -> None:
    doc = load(path)
    if doc.get("schema") != REPORT_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {REPORT_SCHEMA!r}")
    run = doc.get("run")
    if not isinstance(run, dict):
        fail(f"{path}: run block missing or not an object")
    for field in ("rows", "cols", "sweeps", "converged", "wall_s"):
        if field not in run:
            fail(f"{path}: run block lacks {field!r}")
    phases = doc.get("phases")
    if not isinstance(phases, list):
        fail(f"{path}: phases missing or not a list")
    for i, p in enumerate(phases):
        if not isinstance(p, dict):
            fail(f"{path}: phase {i} is not an object: {p!r}")
        for field in ("cat", "name", "total_s", "count", "frac_of_wall"):
            if field not in p:
                fail(f"{path}: phase {i} lacks {field!r}: {p}")
        if not isinstance(p["total_s"], (int, float)) \
                or isinstance(p["total_s"], bool):
            fail(f"{path}: phase {i} total_s is not numeric: "
                 f"{p['total_s']!r}")
    totals = [p["total_s"] for p in phases]
    if totals != sorted(totals, reverse=True):
        fail(f"{path}: phases are not sorted by descending total_s")
    print(f"validate_obs: {path}: OK ({len(phases)} phases)")


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_numerics_metrics(path: str) -> None:
    """Cross-checks the svd.num.* namespace inside a metrics document."""
    doc = load(path)
    by_name = {m.get("name"): m for m in doc.get("metrics", [])
               if isinstance(m, dict)}

    samples_m = by_name.get("svd.num.samples")
    if samples_m is None:
        fail(f"{path}: --numerics requires the svd.num.samples counter "
             f"(was the run made with probes enabled?)")
    samples = samples_m.get("value")
    if not _numeric(samples) or samples < 0:
        fail(f"{path}: svd.num.samples value malformed: {samples!r}")

    def counter_value(name: str) -> float:
        # Delta publishing never materialises a zero counter: absent = 0.
        m = by_name.get(name)
        if m is None:
            return 0.0
        if m.get("type") != "counter" or not _numeric(m.get("value")):
            fail(f"{path}: {name!r} is not a numeric counter: {m!r}")
        return m["value"]

    nonfinite = counter_value("svd.num.nonfinite.events")
    counter_value("svd.num.cancellation.events")
    counter_value("svd.num.divergence.events")

    # Histogram buckets, together with the non-finite rejects, must account
    # for every sampled pair.  Empty buckets are simply absent (delta
    # publishing), so scan a generous index range instead of stopping at the
    # first gap.
    hist = []
    for b in range(64):
        m = by_name.get(f"svd.num.angle.hist.{b}")
        if m is None:
            continue
        if not _numeric(m.get("value")) or m["value"] < 0:
            fail(f"{path}: angle bucket {b} malformed: {m!r}")
        hist.append(m["value"])
    if samples > 0 and samples > nonfinite and not hist:
        fail(f"{path}: svd.num.samples is {samples} but no "
             f"svd.num.angle.hist.* buckets were emitted")
    if sum(hist) + nonfinite != samples:
        fail(f"{path}: angle histogram sums to {sum(hist)} + {nonfinite} "
             f"non-finite != {samples} samples")

    for name in ("svd.num.angle.tiny_frac", "svd.num.angle.near_pi4_frac",
                 "svd.num.cancellation.frac"):
        m = by_name.get(name)
        if m is None:
            fail(f"{path}: --numerics requires gauge {name!r}")
        v = m.get("value")
        if not _numeric(v) or not 0.0 <= v <= 1.0:
            fail(f"{path}: {name!r} outside [0, 1]: {v!r}")

    stride = by_name.get("svd.num.stride", {}).get("value")
    if not _numeric(stride) or stride < 1:
        fail(f"{path}: svd.num.stride must be >= 1, got {stride!r}")
    cond = by_name.get("svd.num.cond.estimate", {}).get("value")
    if not _numeric(cond) or cond < 1.0:
        fail(f"{path}: svd.num.cond.estimate must be >= 1, got {cond!r}")

    # Finalize-time accuracy gauges and watchdog verdicts are optional
    # (value-free runs / quiet watchdog), but must be sane when present.
    for name in ("svd.num.finalize.v_orthogonality_drift",
                 "svd.num.finalize.backward_error"):
        if name in by_name:
            v = by_name[name].get("value")
            if not _numeric(v) or v < 0.0:
                fail(f"{path}: {name!r} must be non-negative: {v!r}")
    for name in ("obs.watchdog.divergence", "obs.watchdog.orthogonality"):
        if name in by_name:
            v = by_name[name].get("value")
            if v not in (0, 1, 0.0, 1.0):
                fail(f"{path}: verdict gauge {name!r} must be 0/1: {v!r}")
    print(f"validate_obs: {path}: numerics OK "
          f"({int(samples)} samples, {len(hist)} angle buckets)")


def check_numerics_report(path: str) -> None:
    """Validates the "numerics" section of an hjsvd.report.v2 document."""
    doc = load(path)
    num = doc.get("numerics")
    if not isinstance(num, dict):
        fail(f"{path}: --numerics requires a \"numerics\" report section "
             f"(was the run made with probes enabled?)")
    for field in ("samples", "stride", "nonfinite_events",
                  "cancellation_events", "divergence_events"):
        if not _numeric(num.get(field)) or num[field] < 0:
            fail(f"{path}: numerics.{field} malformed: {num.get(field)!r}")
    for field in ("cancellation_frac", "tiny_angle_frac", "near_pi4_frac"):
        v = num.get(field)
        if not _numeric(v) or not 0.0 <= v <= 1.0:
            fail(f"{path}: numerics.{field} outside [0, 1]: {v!r}")
    hist = num.get("angle_hist")
    if not isinstance(hist, list) or any(not _numeric(h) or h < 0
                                         for h in hist):
        fail(f"{path}: numerics.angle_hist malformed: {hist!r}")
    if sum(hist) + num["nonfinite_events"] != num["samples"]:
        fail(f"{path}: numerics.angle_hist sums to {sum(hist)} + "
             f"{num['nonfinite_events']} non-finite != {num['samples']} "
             f"samples")
    # Accuracy leaves use -1 as the not-recorded sentinel.
    for field in ("orthogonality_drift", "backward_error"):
        v = num.get(field)
        if not _numeric(v) or (v < 0.0 and v != -1.0):
            fail(f"{path}: numerics.{field} must be >= 0 or the -1 "
                 f"sentinel: {v!r}")
    for field in ("watchdog_divergence", "watchdog_orthogonality"):
        if not isinstance(num.get(field), bool):
            fail(f"{path}: numerics.{field} must be a boolean: "
                 f"{num.get(field)!r}")
    print(f"validate_obs: {path}: report numerics OK "
          f"({num['samples']} samples)")


def check_serve_metrics(path: str) -> None:
    """Cross-checks the serve.* namespace emitted by hjsvd_serve."""
    doc = load(path)
    by_name = {m.get("name"): m for m in doc.get("metrics", [])
               if isinstance(m, dict)}

    def counter_value(name: str, required: bool = False) -> float:
        m = by_name.get(name)
        if m is None:
            if required:
                fail(f"{path}: --serve requires the {name!r} counter "
                     f"(was this metrics file written by hjsvd_serve?)")
            return 0.0
        if m.get("type") != "counter" or not _numeric(m.get("value")):
            fail(f"{path}: {name!r} is not a numeric counter: {m!r}")
        return m["value"]

    requests = counter_value("serve.requests_total", required=True)
    admitted = counter_value("serve.admitted_total")
    overload = counter_value("serve.rejected.overload")
    bad_request = counter_value("serve.rejected.bad_request")
    expired = counter_value("serve.expired.deadline")
    replies_ok = counter_value("serve.replies_ok")
    replies_error = counter_value("serve.replies_error")
    waves = counter_value("serve.waves_total")

    # Admission is a partition: every request is admitted or rejected with
    # a typed reason, and every request gets exactly one reply.
    if requests != admitted + overload + bad_request:
        fail(f"{path}: serve.requests_total {requests} != admitted "
             f"{admitted} + overload {overload} + bad_request {bad_request}")
    if replies_ok + replies_error != requests:
        fail(f"{path}: replies_ok {replies_ok} + replies_error "
             f"{replies_error} != serve.requests_total {requests}")
    if expired > admitted:
        fail(f"{path}: serve.expired.deadline {expired} exceeds "
             f"admitted_total {admitted}")
    if replies_ok > 0 and waves < 1:
        fail(f"{path}: {replies_ok} ok replies but serve.waves_total is 0")

    wave_hist = by_name.get("serve.wave.size")
    if waves > 0:
        if wave_hist is None or wave_hist.get("type") != "histogram":
            fail(f"{path}: serve.waves_total is {waves} but the "
                 f"serve.wave.size histogram is missing")
        if wave_hist.get("count") != waves:
            fail(f"{path}: serve.wave.size count {wave_hist.get('count')} "
                 f"!= serve.waves_total {waves}")
        if wave_hist.get("min", 0) < 1:
            fail(f"{path}: serve.wave.size min below 1: {wave_hist!r}")
    lat_hist = by_name.get("serve.latency_ms")
    if replies_ok > 0:
        if lat_hist is None or lat_hist.get("count") != replies_ok:
            fail(f"{path}: serve.latency_ms histogram must hold one sample "
                 f"per ok reply ({replies_ok}): {lat_hist!r}")
    depth = by_name.get("serve.queue.depth")
    if admitted > 0:
        if depth is None or depth.get("type") != "series":
            fail(f"{path}: serve.queue.depth series missing with "
                 f"{admitted} admitted requests")
        if any(p[1] < 1 for p in depth.get("points", [])):
            fail(f"{path}: serve.queue.depth recorded below 1 (sampled "
                 f"after admission): {depth.get('points')!r}")
    for name in ("serve.workspace.reuse_total", "serve.workspace.alloc_total"):
        counter_value(name, required=True)
    for name in ("serve.latency_p50_ms", "serve.latency_p95_ms"):
        m = by_name.get(name)
        if m is None or m.get("type") != "gauge" or not _numeric(m.get("value")):
            fail(f"{path}: --serve requires the {name!r} gauge")
        if m["value"] < 0:
            fail(f"{path}: {name!r} is negative: {m['value']!r}")
    print(f"validate_obs: {path}: serve OK ({int(requests)} requests, "
          f"{int(replies_ok)} ok, {int(waves)} waves)")


def check_serve_report(path: str) -> None:
    """Validates the "serve" section of an hjsvd.report.v2 document."""
    doc = load(path)
    serve = doc.get("serve")
    if not isinstance(serve, dict):
        fail(f"{path}: --serve requires a \"serve\" report section "
             f"(was the metrics file written by hjsvd_serve?)")
    for field in ("requests_total", "admitted_total", "rejected_overload",
                  "rejected_bad_request", "expired_deadline", "replies_ok",
                  "replies_error", "waves_total", "workspace_reuse_total",
                  "workspace_alloc_total"):
        if not _numeric(serve.get(field)) or serve[field] < 0:
            fail(f"{path}: serve.{field} malformed: {serve.get(field)!r}")
    if serve["requests_total"] != (serve["admitted_total"]
                                   + serve["rejected_overload"]
                                   + serve["rejected_bad_request"]):
        fail(f"{path}: serve section admission counts do not partition "
             f"requests_total: {serve!r}")
    for field in ("latency_p50_ms", "latency_p95_ms"):
        v = serve.get(field)
        if not _numeric(v) or v < 0:
            fail(f"{path}: serve.{field} malformed: {v!r}")
    print(f"validate_obs: {path}: report serve OK "
          f"({serve['requests_total']} requests)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="trace-event JSON to validate")
    ap.add_argument("--metrics", help="metrics JSON to validate")
    ap.add_argument(
        "--snapshots", help="live snapshot JSONL stream to validate"
    )
    ap.add_argument("--report", help="hjsvd_report JSON to validate")
    ap.add_argument(
        "--require-span",
        action="append",
        default=[],
        help="span name that must appear in the trace (repeatable)",
    )
    ap.add_argument(
        "--require-metric",
        action="append",
        default=[],
        help="metric name that must appear in the metrics (repeatable)",
    )
    ap.add_argument(
        "--numerics",
        action="store_true",
        help="additionally validate the svd.num.* probe namespace in "
             "--metrics and/or the numerics section in --report",
    )
    ap.add_argument(
        "--serve",
        action="store_true",
        help="additionally validate the serve.* namespace in --metrics "
             "and/or the serve section in --report",
    )
    args = ap.parse_args()
    if not args.trace and not args.metrics and not args.snapshots \
            and not args.report:
        ap.error("need --trace, --metrics, --snapshots and/or --report")
    if args.numerics and not args.metrics and not args.report:
        ap.error("--numerics needs --metrics and/or --report to inspect")
    if args.serve and not args.metrics and not args.report:
        ap.error("--serve needs --metrics and/or --report to inspect")
    if args.trace:
        check_trace(args.trace, args.require_span)
    if args.metrics:
        check_metrics(args.metrics, args.require_metric)
        if args.numerics:
            check_numerics_metrics(args.metrics)
        if args.serve:
            check_serve_metrics(args.metrics)
    if args.snapshots:
        check_snapshots(args.snapshots)
    if args.report:
        check_report(args.report)
        if args.numerics:
            check_numerics_report(args.report)
        if args.serve:
            check_serve_report(args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
