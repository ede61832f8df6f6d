"""The observability layer: spans, events, export, provenance, wiring.

Unit layers (trace context, recorder, event ring, rate limiter, Chrome
export, ASCII viewer) run in-process; the provenance tests drive a real
:class:`~repro.api.Planner` against a temp plan store and distinguish
cold builds from warm memory and disk hits; the daemon tests boot a
:class:`~repro.service.PlanningDaemon` on an ephemeral port and check
that one client-generated trace id survives the HTTP hop into the
daemon's structured events and access log.  The Prometheus
label-escaping and histogram edge-case satellites live at the bottom.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import PlanSpec, Planner
from repro.exceptions import ConfigurationError
from repro.obs import (
    EventLog,
    ProvenanceBuilder,
    TraceRecorder,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    ensure_trace_id,
    fleet_timeline_to_chrome,
    format_trace,
    load_chrome_trace,
    new_trace_id,
    provenance_path,
    save_chrome_trace,
    set_trace_id,
    span,
    spans_to_chrome,
    tracing_enabled,
    wrap_context,
)
from repro.obs.trace import add_stage_spans
from repro.service import PlanningDaemon, ServiceClient, reports_equal
from repro.service.metrics import (
    Histogram,
    MetricsRegistry,
    _render_labels,
)
from repro.service.wire import report_from_wire, report_to_wire

TINY = dict(gpu="a100", stages=2, microbatches=2, freq_stride=24)


def tiny_spec(model="gpt3-xl", **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return PlanSpec(model, **merged)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Recording is module-global state: never leak it across tests."""
    yield
    disable_tracing()


# ------------------------------------------------------------------- trace ctx
def test_span_disabled_is_shared_noop():
    assert not tracing_enabled()
    first, second = span("a"), span("b", attr=1)
    assert first is second  # the shared _NOOP: zero allocation
    with first as opened:
        assert opened is None


def test_enable_tracing_records_nested_spans():
    recorder = enable_tracing()
    with span("outer", level=1) as outer:
        with span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
    names = [s.name for s in recorder.spans]
    assert names == ["inner", "outer"]  # recorded at close
    assert recorder.spans[1].attrs == {"level": 1}
    assert recorder.spans[0].duration_s >= 0.0


def test_span_records_error_attr_and_reraises():
    recorder = enable_tracing()
    with pytest.raises(ValueError):
        with span("boom"):
            raise ValueError("no")
    (recorded,) = recorder.spans
    assert recorded.attrs["error"] == "ValueError"


def test_trace_id_context_helpers():
    set_trace_id("cafe0001")
    assert current_trace_id() == "cafe0001"
    assert ensure_trace_id() == "cafe0001"
    fresh = new_trace_id()
    assert len(fresh) == 16 and fresh != new_trace_id()


def test_spans_adopt_ambient_trace_id_even_across_enable():
    set_trace_id("feed0002")
    recorder = enable_tracing()
    with span("joined"):
        pass
    assert recorder.spans[0].trace_id == "feed0002"


def test_wrap_context_carries_trace_into_thread():
    recorder = enable_tracing()
    seen = {}

    def worker():
        seen["trace_id"] = current_trace_id()
        with span("child"):
            pass

    with span("parent") as parent:
        thread = threading.Thread(target=wrap_context(worker))
        thread.start()
        thread.join()
    assert seen["trace_id"] == parent.trace_id
    child = next(s for s in recorder.spans if s.name == "child")
    assert child.parent_id == parent.span_id


def test_add_stage_spans_rebases_timings_as_children():
    recorder = enable_tracing()
    with span("optimize.crawl") as crawl:
        add_stage_spans({"event_times_s": 0.25, "maxflow_s": 0.5,
                         "schedule_s": 0.0, "kernel": "flat"})
    stages = [s for s in recorder.spans if s.name != "optimize.crawl"]
    assert [s.name for s in stages] == ["optimize.event_times",
                                        "optimize.maxflow"]
    assert all(s.parent_id == crawl.span_id for s in stages)
    # back-to-back layout from the parent's start
    assert stages[1].start_s == pytest.approx(crawl.start_s + 0.25)


def test_recorder_bounds_and_counts_drops():
    recorder = TraceRecorder(maxlen=2)
    enable_tracing(recorder)
    for _ in range(4):
        with span("s"):
            pass
    assert len(recorder.spans) == 2
    assert recorder.dropped == 2
    recorder.clear()
    assert recorder.spans == [] and recorder.dropped == 0


# ------------------------------------------------------------------- event log
def test_event_log_stamps_and_drops_none_fields():
    log = EventLog(maxlen=8)
    set_trace_id("beef0003")
    event = log.emit("plan", tenant="acme", empty=None, points=3)
    assert event["kind"] == "plan" and event["seq"] == 1
    assert event["trace_id"] == "beef0003"
    assert "empty" not in event and event["points"] == 3
    assert len(log) == 1


def test_event_log_ring_is_bounded_and_seq_monotone():
    log = EventLog(maxlen=3)
    for i in range(5):
        log.emit("tick", i=i)
    events = log.recent()
    assert [e["i"] for e in events] == [2, 3, 4]
    assert [e["seq"] for e in events] == [3, 4, 5]


def test_event_log_recent_filters_kind_tenant_limit():
    log = EventLog()
    log.emit("rpc", tenant="a")
    log.emit("rpc", tenant="b")
    log.emit("crawl")  # infrastructure-global: untagged
    assert [e["kind"] for e in log.recent(kind="crawl")] == ["crawl"]
    visible = log.recent(tenant="a")
    assert {e.get("tenant") for e in visible} == {"a", None}
    assert len(log.recent(limit=1)) == 1


def test_event_log_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(jsonl_path=str(path))
    log.emit("plan", tenant="acme")
    log.emit("flight", outcome="warm")
    log.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    parsed = [json.loads(line) for line in lines]
    assert [e["kind"] for e in parsed] == ["plan", "flight"]
    assert parsed[0]["seq"] == 1


def test_event_log_sink_self_disables_on_oserror(tmp_path):
    log = EventLog(jsonl_path=str(tmp_path))  # a directory: open() fails
    log.emit("plan")
    assert log.jsonl_path is None  # sink dropped...
    log.emit("plan")
    assert len(log) == 2  # ...ring keeps working


# -------------------------------------------------------------------- export
def test_spans_to_chrome_structure_and_round_trip(tmp_path):
    recorder = enable_tracing()
    with span("outer", exactness="fast"):
        with span("inner"):
            pass
    log = EventLog()
    set_trace_id(recorder.spans[0].trace_id)
    log.emit("flight", outcome="leader")
    path = tmp_path / "trace.json"
    document = save_chrome_trace(str(path), recorder.spans,
                                 log.recent())
    assert document["displayTimeUnit"] == "ms"
    loaded = load_chrome_trace(str(path))
    complete = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in loaded["traceEvents"] if e["ph"] == "i"]
    meta = [e for e in loaded["traceEvents"] if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"outer", "inner"}
    assert instants[0]["name"] == "flight"
    assert meta and meta[0]["name"] == "thread_name"
    trace_id = recorder.spans[0].trace_id
    assert all(e["args"]["trace_id"] == trace_id for e in complete)
    # json.tool-grade validity (what the CI smoke asserts)
    json.loads(path.read_text(encoding="utf-8"))


def test_load_chrome_trace_accepts_array_and_rejects_junk(tmp_path):
    array = tmp_path / "array.json"
    array.write_text('[{"ph": "X", "name": "a", "ts": 0}]',
                     encoding="utf-8")
    assert load_chrome_trace(str(array))["traceEvents"]
    junk = tmp_path / "junk.json"
    junk.write_text('{"nope": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_chrome_trace(str(junk))


def test_fleet_timeline_to_chrome_tracks_and_instants():
    timeline = [
        {"kind": "job", "job": "job-0", "start_s": 0.0, "end_s": 2.0},
        {"kind": "replan", "t_s": 1.0, "jobs": 1},
        {"kind": "wake", "t_s": 1.5},
    ]
    document = fleet_timeline_to_chrome(timeline)
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert complete[0]["name"] == "job-0"
    assert complete[0]["dur"] == pytest.approx(2_000_000.0)
    assert [e["name"] for e in instants] == ["replan", "wake"]


#: A fixed span list (``Span.to_dict()`` form, including a span with
#: no ids, no attrs and no thread) plus structured events.
PINNED_SPANS = [
    {"name": "planner.plan", "trace_id": "feed", "span_id": "s1",
     "parent_id": None, "start_s": 10.0, "duration_s": 0.25,
     "attrs": {"model": "gpt3-xl", "strategy": "perseus"},
     "thread": "MainThread"},
    {"name": "optimize.crawl", "trace_id": "feed", "span_id": "s2",
     "parent_id": "s1", "start_s": 10.05, "duration_s": 0.125,
     "attrs": {"exactness": "fast", "skipped": None},
     "thread": "MainThread"},
    {"name": "store.put", "trace_id": "feed", "span_id": "s3",
     "parent_id": "s1", "start_s": 10.2, "duration_s": -0.001,
     "attrs": {}, "thread": "writer"},
    {"name": "orphan", "start_s": 0, "attrs": None, "thread": None},
]
PINNED_EVENTS = [
    {"kind": "flight", "ts": 10.1, "outcome": "leader", "trace_id": "feed"},
    {"kind": "admission", "ts": 10.3, "reason": None, "tenant": "ci"},
    {"ts": 11},
]
#: A fleet timeline: jobs (one with end < start), instants keyed by
#: ``t_s``, by ``ts`` and by neither, and an entry with no kind.
PINNED_TIMELINE = [
    {"kind": "arrival", "t_s": 0.0, "job": "job-0"},
    {"kind": "job", "job": "job-0", "start_s": 0.0, "end_s": 12.5,
     "model": "gpt3-xl", "gpus": "a100"},
    {"kind": "replan", "t_s": 3.25, "jobs": 2, "cap_w": None},
    {"kind": "job", "job": "job-1", "start_s": 4.0, "end_s": 3.0},
    {"kind": "cap", "ts": 5.0, "cap_w": 900.0},
    {"kind": "wake"},
    {"job": "job-2", "start_s": 1, "end_s": 2},
]


def test_spans_to_chrome_exact_document():
    # Pins every byte of the span exporter's output, key order included:
    # tids in first-seen track order, thread_name metadata first, "X"
    # and "i" event shapes, microsecond times, negative durations
    # clamped to 0 and None args dropped.
    expected = {
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "MainThread"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
             "args": {"name": "writer"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
             "args": {"name": "main"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 4,
             "args": {"name": "events"}},
            {"name": "planner.plan", "ph": "X", "ts": 10000000.0,
             "dur": 250000.0, "pid": 1, "tid": 1, "cat": "span",
             "args": {"model": "gpt3-xl", "strategy": "perseus",
                      "trace_id": "feed", "span_id": "s1"}},
            {"name": "optimize.crawl", "ph": "X", "ts": 10050000.0,
             "dur": 125000.0, "pid": 1, "tid": 1, "cat": "span",
             "args": {"exactness": "fast", "trace_id": "feed",
                      "span_id": "s2", "parent_id": "s1"}},
            {"name": "store.put", "ph": "X", "ts": 10200000.0, "dur": 0.0,
             "pid": 1, "tid": 2, "cat": "span",
             "args": {"trace_id": "feed", "span_id": "s3",
                      "parent_id": "s1"}},
            {"name": "orphan", "ph": "X", "ts": 0.0, "dur": 0.0,
             "pid": 1, "tid": 3, "cat": "span", "args": {}},
            {"name": "flight", "ph": "i", "ts": 10100000.0,
             "pid": 1, "tid": 4, "cat": "event", "s": "t",
             "args": {"outcome": "leader", "trace_id": "feed"}},
            {"name": "admission", "ph": "i", "ts": 10300000.0,
             "pid": 1, "tid": 4, "cat": "event", "s": "t",
             "args": {"tenant": "ci"}},
            {"name": "event", "ph": "i", "ts": 11000000.0,
             "pid": 1, "tid": 4, "cat": "event", "s": "t", "args": {}},
        ],
        "displayTimeUnit": "ms",
    }
    document = spans_to_chrome(PINNED_SPANS, PINNED_EVENTS)
    assert json.dumps(document) == json.dumps(expected)


def test_fleet_timeline_to_chrome_exact_document():
    # Pins the fleet exporter the same way: per-job "X" tracks, one
    # shared "fleet" track of instants, inverted job spans clamped.
    expected = {
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "fleet"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
             "args": {"name": "job:job-0"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
             "args": {"name": "job:job-1"}},
            {"name": "arrival", "ph": "i", "ts": 0.0,
             "pid": 1, "tid": 1, "cat": "fleet", "s": "t",
             "args": {"job": "job-0"}},
            {"name": "job-0", "ph": "X", "ts": 0.0, "dur": 12500000.0,
             "pid": 1, "tid": 2, "cat": "job",
             "args": {"model": "gpt3-xl", "gpus": "a100"}},
            {"name": "replan", "ph": "i", "ts": 3250000.0,
             "pid": 1, "tid": 1, "cat": "fleet", "s": "t",
             "args": {"jobs": 2}},
            {"name": "job-1", "ph": "X", "ts": 4000000.0, "dur": 0.0,
             "pid": 1, "tid": 3, "cat": "job", "args": {}},
            {"name": "cap", "ph": "i", "ts": 5000000.0,
             "pid": 1, "tid": 1, "cat": "fleet", "s": "t",
             "args": {"cap_w": 900.0}},
            {"name": "wake", "ph": "i", "ts": 0.0,
             "pid": 1, "tid": 1, "cat": "fleet", "s": "t", "args": {}},
            {"name": "event", "ph": "i", "ts": 0.0,
             "pid": 1, "tid": 1, "cat": "fleet", "s": "t",
             "args": {"job": "job-2", "start_s": 1, "end_s": 2}},
        ],
        "displayTimeUnit": "ms",
    }
    document = fleet_timeline_to_chrome(PINNED_TIMELINE)
    assert json.dumps(document) == json.dumps(expected)


def test_format_trace_tree_and_footer():
    recorder = enable_tracing()
    with span("planner.plan"):
        with span("optimize.crawl"):
            add_stage_spans({"maxflow_s": 0.5})
    text = format_trace(spans_to_chrome(recorder.spans))
    assert "planner.plan" in text
    assert "optimize.maxflow" in text
    assert "trace ids: " + recorder.spans[0].trace_id in text
    assert format_trace({"traceEvents": []}) == "(empty trace)"


# ----------------------------------------------------------------- provenance
def test_provenance_builder_first_note_wins():
    builder = ProvenanceBuilder(tiny_spec())
    builder.note("profile", "built", seconds=1.25, digest="abc")
    builder.note("profile", "disk")  # later notes ignored
    record = builder.finish(strategy="perseus", exactness="exact",
                            kernel="flat", trace_id="feed")
    assert record["stages"]["profile"] == {
        "source": "built", "seconds": 1.25, "key": "abc"}
    assert record["digests"] == {"profile": "abc"}
    assert record["format"] == 1
    assert record["kernel"] == "flat" and record["trace_id"] == "feed"
    assert record["spec"]["model"] == "gpt3-xl"


def test_plan_provenance_cold_then_memory(tmp_path):
    planner = Planner()
    cold = planner.plan(tiny_spec())
    prov = cold.provenance
    assert prov is not None
    assert prov["stages"]["profile"]["source"] == "built"
    assert prov["stages"]["frontier"]["source"] == "built"
    assert prov["stages"]["partition"]["source"] == "built"
    warm = planner.plan(tiny_spec())
    assert warm.provenance["stages"]["profile"]["source"] == "memory"
    assert warm.provenance["stages"]["frontier"]["source"] == "memory"
    assert reports_equal(cold, warm)


def test_plan_provenance_disk_hits_and_persisted_record(tmp_path):
    root = tmp_path / "store"
    first = Planner(cache=root)
    cold = first.plan(tiny_spec())
    assert cold.provenance["stages"]["frontier"]["source"] == "built"
    # A fresh process (here: a fresh planner) over the same store must
    # report the warm stages as disk hits -- the acceptance scenario.
    second = Planner(cache=root)
    warm = second.plan(tiny_spec())
    stages = warm.provenance["stages"]
    assert stages["partition"]["source"] == "disk"
    assert stages["profile"]["source"] == "disk"
    assert stages["frontier"]["source"] == "disk"
    assert reports_equal(cold, warm)
    # The cold run persisted its record beside the store's artifacts,
    # first-writer-wins: it still says "built".
    digest = cold.provenance["digests"]["frontier"]
    with open(provenance_path(str(root), digest), encoding="utf-8") as fp:
        persisted = json.load(fp)
    assert persisted["stages"]["frontier"]["source"] == "built"
    assert cold.provenance["provenance_path"].endswith(
        f"{digest}.json")


def test_provenance_never_travels_on_the_wire():
    planner = Planner()
    report = planner.plan(tiny_spec())
    assert report.provenance is not None
    decoded = report_from_wire(report_to_wire(report))
    assert decoded.provenance is None
    assert reports_equal(report, decoded)


# ------------------------------------------------------------- daemon wiring
def test_daemon_adopts_and_echoes_client_trace_id():
    with PlanningDaemon(planner=Planner(), port=0) as daemon:
        client = ServiceClient(daemon.url, tenant="ci")
        client.ping()
        trace_id = client.last_trace_id
        assert trace_id is not None
        events = client.recent_events()
        rpc = [e for e in events if e["kind"] == "rpc"]
        assert any(e.get("trace_id") == trace_id for e in rpc)


def test_daemon_plan_emits_flight_and_rpc_events():
    with PlanningDaemon(planner=Planner(), port=0) as daemon:
        client = ServiceClient(daemon.url, tenant="ci")
        client.plan(tiny_spec())
        kinds = {e["kind"] for e in client.recent_events()}
        assert "rpc" in kinds and "flight" in kinds
        flights = client.recent_events(kind="flight")
        assert flights and flights[0]["outcome"] in ("leader", "warm")


def test_daemon_recent_events_is_tenant_scoped():
    with PlanningDaemon(planner=Planner(), port=0) as daemon:
        ServiceClient(daemon.url, tenant="alice").ping()
        ServiceClient(daemon.url, tenant="bob").ping()
        seen = ServiceClient(daemon.url, tenant="alice").recent_events()
        tenants = {e.get("tenant") for e in seen if e["kind"] == "rpc"}
        assert "bob" not in tenants
        with pytest.raises(ConfigurationError):
            ServiceClient(daemon.url, tenant="alice").call(
                "recent_events", {"limit": -3})


def test_daemon_access_log_line_carries_trace_id(capfd):
    with PlanningDaemon(planner=Planner(), port=0) as daemon:
        client = ServiceClient(daemon.url, tenant="ci")
        client.ping()
        trace_id = client.last_trace_id
    err = capfd.readouterr().err
    line = next(l for l in err.splitlines()
                if "[repro.serve] rpc method=ping" in l)
    assert f"trace={trace_id}" in line
    assert "tenant=ci" in line and "status=200" in line
    assert "replayed=0" in line


def _frozen_access_log(monkeypatch, now):
    """A daemon whose access-log bucket reads the clock ``now[0]``."""
    import functools

    from repro.service import daemon as daemon_mod
    from repro.service.admission import TokenBucket

    monkeypatch.setattr(daemon_mod, "TokenBucket", functools.partial(
        TokenBucket, clock=lambda: now[0]))
    return PlanningDaemon(planner=Planner(), port=0)


def _log_lines(daemon, count, capfd):
    for _ in range(count):
        daemon._access_line("ping", "ci", 200, 0.001, "t", False)
    return [line for line in capfd.readouterr().err.splitlines()
            if line.startswith("[repro.serve] rpc")]


def test_rate_limiter_burst_then_suppressed_summary(monkeypatch, capfd):
    from repro.service.daemon import ACCESS_LOG_RATE

    now = [0.0]
    with _frozen_access_log(monkeypatch, now) as daemon:
        burst = int(2 * ACCESS_LOG_RATE)
        lines = _log_lines(daemon, burst + 2, capfd)
        assert len(lines) == burst
        assert not any("suppressed=" in line for line in lines)
        now[0] = 1.0 / ACCESS_LOG_RATE  # one token accrues
        lines = _log_lines(daemon, 2, capfd)
        assert len(lines) == 1 and lines[0].endswith(" suppressed=2")
        now[0] = 2.0 / ACCESS_LOG_RATE  # counts only the second denial
        lines = _log_lines(daemon, 1, capfd)
        assert len(lines) == 1 and lines[0].endswith(" suppressed=1")


def test_daemon_access_log_refills_at_access_log_rate(monkeypatch, capfd):
    from repro.service.daemon import ACCESS_LOG_RATE

    now = [0.0]
    with _frozen_access_log(monkeypatch, now) as daemon:
        _log_lines(daemon, int(2 * ACCESS_LOG_RATE), capfd)
        assert _log_lines(daemon, 1, capfd) == []
        now[0] = 1.0  # one second refills ACCESS_LOG_RATE tokens
        lines = _log_lines(daemon, int(ACCESS_LOG_RATE) + 1, capfd)
        assert len(lines) == int(ACCESS_LOG_RATE)
        assert lines[0].endswith(" suppressed=1")


def test_daemon_access_log_counts_every_call_under_threads(
        monkeypatch, capfd):
    import sys

    now = [0.0]
    calls, workers = 300, 8
    with _frozen_access_log(monkeypatch, now) as daemon:

        def hammer():
            for i in range(calls):
                now[0] = i * 0.01  # a token every ten calls per thread
                daemon._access_line("ping", "ci", 200, 0.001, "t", False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer)
                       for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        lines = [line for line in capfd.readouterr().err.splitlines()
                 if line.startswith("[repro.serve] rpc")]
        reported = sum(int(line.rsplit("suppressed=", 1)[1])
                       for line in lines if "suppressed=" in line)
        # Every call is either a line or counted exactly once.
        assert len(lines) + reported + daemon._access_suppressed == \
            calls * workers
        assert len(lines) < calls * workers


def test_daemon_access_log_can_be_disabled(capfd):
    with PlanningDaemon(planner=Planner(), port=0,
                        access_log=False) as daemon:
        ServiceClient(daemon.url, tenant="ci").ping()
    assert "[repro.serve] rpc" not in capfd.readouterr().err


def test_daemon_jsonl_log_records_the_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    with PlanningDaemon(planner=Planner(), port=0,
                        log_jsonl=str(path)) as daemon:
        client = ServiceClient(daemon.url, tenant="ci")
        client.ping()
        trace_id = client.last_trace_id
    events = [json.loads(line)
              for line in path.read_text(encoding="utf-8").splitlines()]
    assert any(e.get("trace_id") == trace_id for e in events)


# ------------------------------------------------- metrics satellites (fixes)
def test_render_labels_escapes_prometheus_reserved_chars():
    rendered = _render_labels(
        (("tenant", 'acme"prod'), ("x", "a\\b"), ("y", "two\nlines")))
    assert rendered == ('{tenant="acme\\"prod",x="a\\\\b",'
                        'y="two\\nlines"}')


def test_metrics_render_survives_quote_bearing_tenant():
    registry = MetricsRegistry()
    registry.inc("repro_service_requests_total",
                 labels={"tenant": 'evil"}\n'})
    text = registry.render()
    line = next(l for l in text.splitlines()
                if l.startswith("repro_service_requests_total{"))
    # one physical line, quotes and newline escaped per the exposition
    # format -- an unescaped tenant used to split the series line
    assert line == ('repro_service_requests_total'
                    '{tenant="evil\\"}\\n"} 1')


def test_histogram_quantile_empty_is_zero():
    h = Histogram(bounds=(1.0, 2.0))
    assert h.quantile(0.5) == 0.0


def test_histogram_quantile_single_bucket_and_extremes():
    h = Histogram(bounds=(1.0, 2.0))
    h.observe(0.5)  # lands in the first bucket
    # q=0's target of 0 is met at the very first bound -- the estimate
    # is coarse by construction (bucket upper bounds, never below)
    assert h.quantile(0.0) == 1.0
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 1.0


def test_histogram_quantile_inf_bucket():
    h = Histogram(bounds=(1.0,))
    h.observe(0.5)
    h.observe(50.0)  # beyond every bound: +Inf slot
    assert h.quantile(0.25) == 1.0
    assert h.quantile(1.0) == float("inf")
    assert list(h.cumulative()) == [("1", 1), ("+Inf", 2)]


def test_snapshot_round_trips_labels():
    registry = MetricsRegistry()
    registry.inc("reqs", labels={"tenant": "acme", "method": "plan"})
    registry.inc("reqs")
    registry.set_gauge("inflight", 3.0, labels={"tenant": "acme"})
    registry.observe("latency", 0.01, labels={"tenant": "acme"})
    snap = registry.snapshot()
    assert snap["counters"]["reqs"]["method=plan,tenant=acme"] == 1
    assert snap["counters"]["reqs"]["_total"] == 1
    assert snap["gauges"]["inflight"]["tenant=acme"] == 3.0
    hist = snap["histograms"]["latency"]["tenant=acme"]
    assert hist["count"] == 1 and hist["sum"] == pytest.approx(0.01)
