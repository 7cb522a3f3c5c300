// Telemetry subsystem: metrics registry, virtual-time spans, the
// zapc.obs.v1 JSON evidence envelope and the flight recorder.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/log.h"

namespace zapc::obs {
namespace {

// ---- Metrics ---------------------------------------------------------------

TEST(Metrics, CounterIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.hits");
  EXPECT_EQ(c.value, 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value, 42u);
  // Same name returns the same object (stable address for caching).
  EXPECT_EQ(&reg.counter("a.hits"), &c);
  EXPECT_EQ(reg.counter("a.hits").value, 42u);
}

TEST(Metrics, GaugeTracksHighWaterMark) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("a.depth");
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value, 3);
  EXPECT_EQ(g.max_seen, 10);
  g.add(-5);
  EXPECT_EQ(g.value, -2);
  EXPECT_EQ(g.max_seen, 10);
}

TEST(Metrics, HistogramBucketsAndStats) {
  Histogram h(std::vector<u64>{10, 100, 1000});
  h.observe(5);      // bucket 0 (<= 10)
  h.observe(10);     // bucket 0 (boundary inclusive)
  h.observe(500);    // bucket 2
  h.observe(50000);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 0u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5u + 10u + 500u + 50000u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 50000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.counts()[0], 0u);
}

TEST(Metrics, RegistryResetKeepsAddresses) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  Gauge& g = reg.gauge("y");
  Histogram& h = reg.histogram("z");
  c.inc(7);
  g.set(9);
  h.observe(123);
  reg.reset();
  EXPECT_EQ(&reg.counter("x"), &c);
  EXPECT_EQ(&reg.gauge("y"), &g);
  EXPECT_EQ(&reg.histogram("z"), &h);
  EXPECT_EQ(c.value, 0u);
  EXPECT_EQ(g.value, 0);
  EXPECT_EQ(g.max_seen, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, SnapshotDiffSubtractsCountersKeepsGauges) {
  MetricsRegistry reg;
  reg.counter("c").inc(10);
  reg.gauge("g").set(5);
  reg.histogram("h", {100}).observe(50);
  MetricsSnapshot before = reg.snapshot();

  reg.counter("c").inc(32);
  reg.gauge("g").set(2);
  reg.histogram("h").observe(70);
  reg.counter("new").inc(1);  // born after the baseline
  MetricsSnapshot diff = reg.snapshot().diff_since(before);

  EXPECT_EQ(diff.counters.at("c"), 32u);
  EXPECT_EQ(diff.counters.at("new"), 1u);
  EXPECT_EQ(diff.gauges.at("g").value, 2);   // level, not a delta
  EXPECT_EQ(diff.gauges.at("g").max_seen, 5);
  EXPECT_EQ(diff.histograms.at("h").count, 1u);
  EXPECT_EQ(diff.histograms.at("h").sum, 70u);
  EXPECT_EQ(diff.histograms.at("h").counts[0], 1u);
}

TEST(Metrics, GlobalRegistryIsStable) {
  Counter& c = metrics().counter("test_obs.global");
  u64 base = c.value;
  metrics().counter("test_obs.global").inc();
  EXPECT_EQ(c.value, base + 1);
}

// ---- Spans -----------------------------------------------------------------

TEST(Spans, ExplicitTimeStamping) {
  SpanRecorder rec;
  SpanId root = rec.begin_at(100, "ckpt", "agent@n1");
  SpanId child = rec.begin_at(120, "ckpt.suspend", "agent@n1", root);
  rec.end_at(150, child);
  rec.event_at(160, "agent@n1", "agent.suspend pod=p0", root);
  rec.end_at(400, root);

  ASSERT_EQ(rec.spans().size(), 3u);
  const SpanRecord* r = rec.find(root);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->start, 100u);
  EXPECT_EQ(r->end, 400u);
  EXPECT_FALSE(r->open);
  const SpanRecord* c = rec.find(child);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(rec.duration(child), 30u);
  const SpanRecord* e = rec.find_by_name("agent.suspend pod=p0");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, SpanKind::EVENT);
  EXPECT_EQ(e->start, 160u);
  EXPECT_EQ(e->end, 160u);
}

TEST(Spans, EndIsIdempotentAndInvalidIdsIgnored) {
  SpanRecorder rec;
  SpanId id = rec.begin_at(10, "a", "w");
  rec.end_at(20, id);
  rec.end_at(99, id);  // already closed: ignored
  EXPECT_EQ(rec.find(id)->end, 20u);
  rec.end_at(5, 0);    // id 0 = none
  rec.end_at(5, 777);  // out of range
  EXPECT_EQ(rec.open_spans(), 0u);
}

TEST(Spans, ClockedRaiiNesting) {
  SpanRecorder rec;
  Time now = 1000;
  rec.set_clock([&now] { return now; });
  {
    Span outer(&rec, "outer", "test");
    now = 1100;
    {
      Span inner(&rec, "inner", "test");
      EXPECT_EQ(rec.current(), inner.id());
      now = 1150;
    }
    EXPECT_EQ(rec.current(), outer.id());
    now = 1300;
  }
  EXPECT_EQ(rec.current(), 0u);
  const SpanRecord* outer = rec.find_by_name("outer");
  const SpanRecord* inner = rec.find_by_name("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->start, 1000u);
  EXPECT_EQ(outer->end, 1300u);
  EXPECT_EQ(inner->start, 1100u);
  EXPECT_EQ(inner->end, 1150u);
}

TEST(Spans, NullRecorderIsNoop) {
  Span s(nullptr, "nothing");
  EXPECT_EQ(s.id(), 0u);
}

TEST(Spans, FindByNameFiltersOnWho) {
  SpanRecorder rec;
  rec.begin_at(1, "ckpt", "agent@n1");
  rec.begin_at(2, "ckpt", "agent@n2");
  EXPECT_EQ(rec.find_by_name("ckpt", "agent@n2")->start, 2u);
  EXPECT_EQ(rec.find_by_name("ckpt")->start, 1u);  // first match
  EXPECT_EQ(rec.find_by_name("ckpt", "agent@n9"), nullptr);
}

TEST(Spans, ClearKeepsClock) {
  SpanRecorder rec;
  rec.set_clock([] { return Time{77}; });
  rec.begin_at(1, "x", "w");
  rec.clear();
  EXPECT_EQ(rec.spans().size(), 0u);
  EXPECT_TRUE(rec.has_clock());
  EXPECT_EQ(rec.now(), 77u);
}

// ---- JSON ------------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  std::string text =
      R"({"a":[1,2.5,true,null,"s\n"],"b":{"nested":-7},"c":18446744073709551615})";
  auto parsed = json_parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const Json& j = parsed.value();
  ASSERT_TRUE(j.is_obj());
  const Json* a = j.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_arr());
  ASSERT_EQ(a->size(), 5u);
  EXPECT_DOUBLE_EQ(a->items()[0].num(), 1);
  EXPECT_DOUBLE_EQ(a->items()[1].num(), 2.5);
  EXPECT_TRUE(a->items()[2].boolean());
  EXPECT_TRUE(a->items()[3].is_null());
  EXPECT_EQ(a->items()[4].str(), "s\n");
  EXPECT_DOUBLE_EQ(j.find("b")->find("nested")->num(), -7);

  // dump → parse → dump is byte-stable (sorted keys, fixed formats).
  std::string once = j.dump();
  auto again = json_parse(once);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().dump(), once);
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(json_parse("{").is_ok());
  EXPECT_FALSE(json_parse("[1,]").is_ok());
  EXPECT_FALSE(json_parse("{\"a\":1} trailing").is_ok());
  EXPECT_FALSE(json_parse("nul").is_ok());
  EXPECT_FALSE(json_parse("\"unterminated").is_ok());
}

TEST(Json, RejectsWhatStrictJsonRejects) {
  const char* bad[] = {
      R"({"attempt":1-2})",      // a number's unparsed rest
      R"({"a":+1})",             // leading plus
      R"({"a":01})",             // leading zero
      R"({"a":1.})",             // no fraction digits
      R"({"a":.5})",             // no integer digits
      R"({"a":1e})",             // no exponent digits
      R"({"a":-})",              // sign alone
      R"({"a":1e999})",          // overflows a double
      R"({"a":1,"a":2})",        // duplicate key
      R"({"a":"\u0080"})",       // an escape above ASCII
  };
  for (const char* text : bad) {
    auto r = json_parse(text);
    EXPECT_FALSE(r.is_ok()) << text;
    EXPECT_EQ(r.err(), Err::PROTO) << text;
  }
  const char* good[] = {R"({"a":-0})", R"({"a":10.25e-3})", R"({"a":2E+2})",
                        R"({"a":""})"};
  for (const char* text : good) {
    EXPECT_TRUE(json_parse(text).is_ok()) << text;
  }
}

TEST(Json, RejectsNestingDeeperThanTheCap) {
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json_parse(nested(kMaxJsonDepth)).is_ok());
  EXPECT_EQ(json_parse(nested(kMaxJsonDepth + 1)).err(), Err::PROTO);
  // Far past the cap the parser fails instead of exhausting the stack.
  EXPECT_EQ(json_parse(std::string(200000, '[')).err(), Err::PROTO);
  EXPECT_EQ(json_parse(R"({"a":)" + nested(kMaxJsonDepth) + "}").err(),
            Err::PROTO);
}

TEST(Json, IntegralDoublesPrintAsIntegers) {
  Json j = Json::object();
  j["n"] = u64{123456789};
  j["f"] = 0.5;
  EXPECT_EQ(j.dump(), R"({"f":0.5,"n":123456789})");
}

TEST(Json, SnapshotRoundTrip) {
  MetricsRegistry reg;
  reg.counter("net.tcp.retransmits").inc(3);
  reg.gauge("sim.queue_depth").set(11);
  reg.gauge("sim.queue_depth").set(4);
  reg.histogram("agent.ckpt.suspend_us", {100, 1000}).observe(250);
  MetricsSnapshot snap = reg.snapshot();

  Json j = to_json(snap);
  auto back = from_json<MetricsSnapshot>(j);
  ASSERT_TRUE(back.is_ok()) << back.status().message();
  const MetricsSnapshot& s = back.value();
  EXPECT_EQ(s.counters.at("net.tcp.retransmits"), 3u);
  EXPECT_EQ(s.gauges.at("sim.queue_depth").value, 4);
  EXPECT_EQ(s.gauges.at("sim.queue_depth").max_seen, 11);
  const HistogramValue& h = s.histograms.at("agent.ckpt.suspend_us");
  ASSERT_EQ(h.bounds, (std::vector<u64>{100, 1000}));
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 250u);

  // Serialization is deterministic.
  EXPECT_EQ(to_json(s).dump(), j.dump());
}

TEST(Json, EvidenceSchema) {
  MetricsRegistry reg;
  reg.counter("net.filter.dropped").inc(2);
  SpanRecorder rec;
  SpanId root = rec.begin_at(10, "ckpt", "agent@n1");
  rec.event_at(15, "agent@n1", "note", root);
  rec.end_at(90, root);
  SpanId open = rec.begin_at(95, "restart", "agent@n1");
  (void)open;

  Json doc = to_json(Evidence{"unit", reg.snapshot(), rec.spans(), {}});
  // Validate against the exporter's own parser.
  auto parsed = json_parse(doc.dump(2));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const Json& j = parsed.value();
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->str(), kSchemaVersion);
  EXPECT_EQ(j.find("name")->str(), "unit");
  const Json* m = j.find("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(m->find("counters")->find("net.filter.dropped")->num(), 2);
  const Json* spans = j.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 3u);
  const Json& s0 = spans->items()[0];
  EXPECT_EQ(s0.find("name")->str(), "ckpt");
  EXPECT_EQ(s0.find("who")->str(), "agent@n1");
  EXPECT_EQ(s0.find("kind")->str(), "span");
  EXPECT_DOUBLE_EQ(s0.find("start_us")->num(), 10);
  EXPECT_DOUBLE_EQ(s0.find("end_us")->num(), 90);
  EXPECT_EQ(s0.find("open"), nullptr);  // closed spans omit the flag
  EXPECT_EQ(spans->items()[1].find("kind")->str(), "event");
  const Json& s2 = spans->items()[2];
  ASSERT_NE(s2.find("open"), nullptr);
  EXPECT_TRUE(s2.find("open")->boolean());

  // Without a recorder the spans section is omitted entirely.
  Json no_spans =
      to_json(Evidence{"unit", reg.snapshot(), std::nullopt, {}});
  EXPECT_EQ(no_spans.find("spans"), nullptr);
}

// ---- Causal op ids ---------------------------------------------------------

TEST(OpIds, MintedIdsAreUniqueAndStampSpans) {
  OpId a = next_op_id();
  OpId b = next_op_id();
  EXPECT_NE(a, 0u);
  EXPECT_EQ(b, a + 1);

  SpanRecorder rec;
  SpanId root = rec.begin_at(10, "mgr.ckpt", "manager", 0, a);
  SpanId ev = rec.event_at(20, "manager", "mgr.continue", root, a);
  EXPECT_NE(ev, 0u);  // events return their id (cross-node parents)
  EXPECT_EQ(rec.find(root)->op, a);
  EXPECT_EQ(rec.find(ev)->op, a);
  EXPECT_EQ(rec.find(ev)->parent, root);
}

TEST(OpIds, InnermostOpenFindsTheFailingPhase) {
  SpanRecorder rec;
  OpId op = next_op_id();
  SpanId root = rec.begin_at(10, "ckpt", "agent@n1", 0, op);
  SpanId phase = rec.begin_at(20, "ckpt.netckpt", "agent@n1", root, op);
  rec.begin_at(5, "ckpt", "agent@n2", 0, next_op_id());  // other op
  ASSERT_NE(rec.innermost_open(op), nullptr);
  EXPECT_EQ(rec.innermost_open(op)->name, "ckpt.netckpt");
  rec.end_at(30, phase);
  EXPECT_EQ(rec.innermost_open(op)->name, "ckpt");
  rec.end_at(40, root);
  EXPECT_EQ(rec.innermost_open(op), nullptr);
}

TEST(Json, SpansFromJsonRoundTripsOpsAndParents) {
  SpanRecorder rec;
  OpId op = next_op_id();
  SpanId root = rec.begin_at(10, "ckpt", "agent@n1", 0, op);
  rec.event_at(15, "agent@n1", "net.sock.saved local=1.2.3.4:5 "
                               "remote=4.3.2.1:6 sent=9 acked=9 recv=3",
               root, op);
  rec.end_at(90, root);
  rec.begin_at(95, "restart", "agent@n1");  // op-less, left open

  Json arr = to_json(rec.spans());
  auto parsed = json_parse(arr.dump());
  ASSERT_TRUE(parsed.is_ok());
  auto back = from_json<std::vector<SpanRecord>>(parsed.value());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const std::vector<SpanRecord>& spans = back.value();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].op, op);
  EXPECT_EQ(spans[0].name, "ckpt");
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[1].kind, SpanKind::EVENT);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].op, op);
  EXPECT_EQ(spans[2].op, 0u);  // "op" omitted → parsed as 0
  EXPECT_TRUE(spans[2].open);
}

// ---- Flight recorder -------------------------------------------------------

/// Reads the global recorder's last postmortem back strictly.
Postmortem last_postmortem() {
  auto j = json_parse(flight().last_json());
  auto pm =
      j ? from_json<Postmortem>(j.value()) : Result<Postmortem>(j.status());
  EXPECT_TRUE(pm.is_ok()) << pm.status().to_string();
  return pm.is_ok() ? pm.value() : Postmortem{};
}

TEST(Flight, SpanWindowIsBoundedAndShowsSpansAsTheyStand) {
  FlightRecorder& fr = flight();
  fr.set_dir(::testing::TempDir() + "zapc_flight_window");
  fr.set_capacity(8);
  SpanRecorder rec;
  OpId op = next_op_id();
  for (u32 i = 1; i <= 20; ++i) {
    rec.event_at(i, "agent@n1", "e" + std::to_string(i), 0, op);
  }
  SpanId closed = rec.begin_at(21, "ckpt.netckpt", "agent@n1", 0, op);
  rec.end_at(25, closed);
  (void)rec.begin_at(26, "ckpt.stream", "agent@n1", 0, op);
  dump_op_failure(&rec, "ckpt_abort", op, "agent@n1", "injected", 30);

  Postmortem pm = last_postmortem();
  EXPECT_EQ(pm.phase, "ckpt.stream");
  ASSERT_EQ(pm.spans.size(), 8u);
  // The window ends with the span that closed, the one still open and
  // the op's failure marker, each as the stream holds it at the dump.
  const SpanRecord& c = pm.spans[5];
  EXPECT_EQ(c.name, "ckpt.netckpt");
  EXPECT_FALSE(c.open);
  EXPECT_EQ(c.end, 25u);
  EXPECT_EQ(pm.spans[6].name, "ckpt.stream");
  EXPECT_TRUE(pm.spans[6].open);
  EXPECT_EQ(pm.spans[7].kind, SpanKind::EVENT);
  EXPECT_EQ(pm.spans[7].op, op);

  // Log lines ride in their own ring, bounded the same way.
  for (int i = 0; i < 20; ++i) fr.note_log("[WARN @99us] something");
  EXPECT_EQ(fr.size(), 8u);
  fr.set_capacity(FlightRecorder::kDefaultCapacity);
}

TEST(Flight, SpanWindowKeepsNewestRecordsAndPostmortemStaysWellFormed) {
  FlightRecorder& fr = flight();
  fr.set_dir(::testing::TempDir() + "zapc_flight_wrap");
  fr.set_capacity(32);
  SpanRecorder rec;

  // A long-lived span opened before the flood: it began before the
  // window, so the postmortem leaves it out even once it has closed.
  SpanId early = rec.begin_at(5, "ckpt", "agent@n1");

  // Sustained event load, far beyond capacity (a beacon storm).
  constexpr u32 kEvents = 1000;
  for (u32 i = 0; i < kEvents; ++i) {
    rec.event_at(10 + i, "agent@n1", "hb seq=" + std::to_string(i), 0, 42);
  }
  rec.end_at(5000, early);
  dump_op_failure(&rec, "ckpt_fail", 42, "manager", "beacon storm", 5000);
  ASSERT_FALSE(fr.last_path().empty());

  // The spans section holds exactly the window: the newest events and
  // the failure marker, none of the flood's early entries.
  Postmortem pm = last_postmortem();
  ASSERT_EQ(pm.spans.size(), 32u);
  bool saw_oldest = false, saw_newest = false, saw_early = false;
  for (const SpanRecord& s : pm.spans) {
    if (s.name == "hb seq=0") saw_oldest = true;
    if (s.name == "hb seq=" + std::to_string(kEvents - 1)) saw_newest = true;
    if (s.name == "ckpt") saw_early = true;
  }
  EXPECT_FALSE(saw_oldest);
  EXPECT_TRUE(saw_newest);
  EXPECT_FALSE(saw_early);

  // What the analyzer reads back rewrites to the same text.
  EXPECT_EQ(to_json(pm).dump(2) + "\n", fr.last_json());
  fr.set_capacity(FlightRecorder::kDefaultCapacity);
}

TEST(Flight, PostmortemDumpHasSchemaOpAndPhase) {
  FlightRecorder fr;
  fr.set_dir(::testing::TempDir() + "zapc_flight_test");

  SpanRecorder rec;
  OpId op = next_op_id();
  SpanId root = rec.begin_at(100, "ckpt", "agent@n1", 0, op);
  rec.begin_at(120, "ckpt.netckpt", "agent@n1", root, op);

  std::string phase;
  if (const SpanRecord* inner = rec.innermost_open(op)) phase = inner->name;
  std::string path =
      fr.dump_postmortem(&rec, "ckpt_abort", op, "agent@n1", phase,
                         "injected failure", 130);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, fr.last_path());
  EXPECT_EQ(fr.dumps_written(), 1u);

  auto parsed = json_parse(fr.last_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  auto pm = from_json<Postmortem>(parsed.value());
  ASSERT_TRUE(pm.is_ok()) << pm.status().to_string();
  EXPECT_EQ(pm.value().kind, "ckpt_abort");
  EXPECT_EQ(pm.value().op_id, op);
  EXPECT_EQ(pm.value().phase, "ckpt.netckpt");
  EXPECT_EQ(pm.value().reason, "injected failure");
  EXPECT_EQ(pm.value().time_us, 130u);
  EXPECT_EQ(pm.value().spans.size(), rec.spans().size());
}

TEST(Flight, LogRingHoldsLinesFromBeforeTheFirstDump) {
  // Nothing in this test touches the recorder before the line is logged.
  ZLOG_WARN("test_obs: logged before the first dump");
  flight().set_dir(::testing::TempDir() + "zapc_flight_early_log");
  flight().dump_postmortem(nullptr, "ckpt_fail", 1, "manager", "", "x", 0);
  Postmortem pm = last_postmortem();
  EXPECT_TRUE(pm.spans.empty());
  bool saw = false;
  for (const std::string& line : pm.log) {
    saw = saw || line.find("before the first dump") != std::string::npos;
  }
  EXPECT_TRUE(saw);
}

TEST(Flight, GlobalRecorderCapturesWarnLogLines) {
  flight().clear();
  std::size_t before = flight().size();
  ZLOG_WARN("test_obs: flight log capture check");
  EXPECT_GT(flight().size(), before);
}

}  // namespace
}  // namespace zapc::obs
