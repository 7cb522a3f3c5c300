// Golden text of every JSON record: an op-ledger line with every optional
// key set and one with none, a catalog line with two images, and an
// evidence document with every kind of metric and span.  Committed
// ledgers, catalogs and bench_results/*.json are compared byte for byte,
// so a writer change that moves a single character must show up here; a
// deliberate format change updates the pinned text in the same commit.
//
// Then the strict readers: every record is broken in every way one key
// can be (removed, retyped, out of range, joined by an unknown key) and
// must fail Err::PROTO naming the key, except that removing an optional
// key reads as its default.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "super/catalog.h"

namespace zapc {
namespace {

using obs::Json;
using obs::SpanId;
using obs::SpanRecorder;

std::string keyed(std::string_view name, const char* pod) {
  return obs::ev::Text(name).kv(obs::ev::kPod, pod);
}

/// A COW checkpoint of one pod, attributed: its critical path has work
/// segments (with span ids) and edges, and its drain is an off-path
/// segment.
obs::OpAttribution cow_attribution() {
  SpanRecorder rec;
  const obs::OpId op = 21;
  SpanId root = rec.begin_at(1000, "mgr.ckpt", "manager", 0, op);
  SpanId mw = rec.begin_at(1005, "mgr.ckpt.meta_wait", "manager", root, op);
  rec.end_at(1100, mw);
  SpanId cont = rec.event_at(1100, "manager", "mgr.continue", root, op);
  SpanId dw = rec.begin_at(1100, "mgr.ckpt.done_wait", "manager", root, op);
  SpanId sa = rec.begin_at(1010, "ckpt", "agent@n1", root, op);
  rec.event_at(1010, "agent@n1", keyed(obs::ev::kSuspend, "a"), sa, op);
  SpanId s = rec.begin_at(1010, "ckpt.suspend", "agent@n1", sa, op);
  rec.end_at(1060, s);
  s = rec.begin_at(1060, "ckpt.netckpt", "agent@n1", sa, op);
  rec.end_at(1085, s);
  rec.event_at(1090, "manager", keyed(obs::ev::kMeta, "a"), mw, op);
  SpanId bar = rec.begin_at(1095, "ckpt.barrier", "agent@n1", sa, op);
  rec.end_at(1110, bar);
  rec.event_at(1110, "agent@n1", keyed(obs::ev::kResume, "a"), cont, op);
  rec.event_at(1135, "manager", keyed(obs::ev::kDone, "a"), root, op);
  rec.end_at(1140, dw);
  SpanId dr = rec.begin_at(1110, "ckpt.drain", "agent@n1", sa, op);
  SpanId drw = rec.begin_at(1140, "mgr.ckpt.drain_wait", "manager", root, op);
  rec.end_at(1400, dr);
  rec.end_at(1400, sa);
  rec.end_at(1410, drw);
  rec.end_at(1410, root);
  auto a = obs::attribute_op(rec.spans(), op);
  EXPECT_TRUE(a.is_ok()) << a.status().to_string();
  return a.is_ok() ? a.value() : obs::OpAttribution{};
}

TEST(JsonFormat, LedgerLineWithEveryOptionalKey) {
  obs::LedgerEntry e;
  e.op = 21;
  e.kind = "ckpt";
  e.outcome = "aborted";
  e.error = "deadline expired in drain_wait (a)";
  e.transient = true;
  e.will_retry = true;
  e.attempt = 2;
  e.start_us = 1000;
  e.end_us = 1410;
  e.downtime_us = 140;
  e.latency_us = 410;
  e.pods = 1;
  e.phase_us["suspend"] = 50;
  e.phase_us["barrier"] = 15;
  e.image_bytes = 3 << 20;
  e.network_bytes = 4096;
  e.logical_bytes = 5 << 20;
  e.straggler = obs::Straggler{"a", "ckpt.suspend", 30};
  e.attrib = cow_attribution();
  e.trigger = "supervisor";
  e.mttr_us = 2500;
  e.lazy_faults = 7;
  e.lazy_bytes = 1 << 16;
  e.drain_throttled_us = 90;
  e.drain_contended_us = 40;
  e.drain_granted_bps = 125000000;
  EXPECT_EQ(
      obs::to_json(e).dump(),
      R"j({"attempt":2,"critpath":{"critical_phase":"ckpt.suspend",)j"
      R"j("critical_phase_us":50,"critical_pod":"a","downtime_us":140,)j"
      R"j("drain_segments":[{"edge":false,"end_us":1400,)j"
      R"j("pct":70.731707317073173,"phase":"ckpt.drain","pod":"a","span":13,)j"
      R"j("start_us":1110,"who":"agent@n1"}],"end_us":1410,"kind":"ckpt",)j"
      R"j("latency_us":410,"op":21,"segments":[{"edge":true,"end_us":1010,)j"
      R"j("pct":7.1428571428571432,"phase":"edge:cmd","pod":"a",)j"
      R"j("start_us":1000,"who":"manager"},{"edge":false,"end_us":1060,)j"
      R"j("pct":35.714285714285715,"phase":"ckpt.suspend","pod":"a",)j"
      R"j("span":7,"start_us":1010,"who":"agent@n1"},{"edge":false,)j"
      R"j("end_us":1085,"pct":17.857142857142858,"phase":"ckpt.netckpt",)j"
      R"j("pod":"a","span":8,"start_us":1060,"who":"agent@n1"},{"edge":true,)j"
      R"j("end_us":1100,"pct":10.714285714285714,"phase":"edge:meta",)j"
      R"j("pod":"a","start_us":1085,"who":"manager"},{"edge":true,)j"
      R"j("end_us":1110,"pct":7.1428571428571432,"phase":"edge:continue",)j"
      R"j("pod":"","start_us":1100,"who":"manager"},{"edge":true,)j"
      R"j("end_us":1140,"pct":21.428571428571427,"phase":"edge:done",)j"
      R"j("pod":"a","start_us":1110,"who":"manager"}],"slack":[{"pod":"a",)j"
      R"j("slack_us":0}],"start_us":1000},"downtime_us":140,)j"
      R"j("drain_contended_us":40,"drain_granted_bps":125000000,)j"
      R"j("drain_throttled_us":90,"end_us":1410,)j"
      R"j("error":"deadline expired in drain_wait (a)",)j"
      R"j("image_bytes":3145728,"kind":"ckpt","latency_us":410,)j"
      R"j("lazy_bytes":65536,"lazy_faults":7,"logical_bytes":5242880,)j"
      R"j("mttr_us":2500,"network_bytes":4096,"op":21,"outcome":"aborted",)j"
      R"j("phase_us":{"barrier":15,"suspend":50},"pods":1,)j"
      R"j("schema":"zapc.obs.ledger.v1","start_us":1000,)j"
      R"j("straggler":{"lag_us":30,"phase":"ckpt.suspend","pod":"a"},)j"
      R"j("transient":true,"trigger":"supervisor","will_retry":true})j");
}

TEST(JsonFormat, LedgerLineWithNoOptionalKey) {
  obs::LedgerEntry e;
  e.op = 3;
  e.kind = "restart";
  e.outcome = "ok";
  e.attempt = 1;
  e.start_us = 500;
  e.end_us = 900;
  e.downtime_us = 400;
  e.latency_us = 400;
  e.pods = 2;
  e.image_bytes = 1 << 20;
  e.network_bytes = 512;
  EXPECT_EQ(obs::to_json(e).dump(),
            R"j({"attempt":1,"downtime_us":400,"end_us":900,)j"
            R"j("image_bytes":1048576,"kind":"restart","latency_us":400,)j"
            R"j("network_bytes":512,"op":3,"outcome":"ok","pods":2,)j"
            R"j("schema":"zapc.obs.ledger.v1","start_us":500})j");
}

TEST(JsonFormat, CatalogLineWithTwoImages) {
  super::CatalogEntry e;
  e.op = 9;
  e.t_us = 123456;
  for (u8 i = 1; i <= 2; ++i) {
    super::CatalogImage im;
    im.agent_ip = "192.168.1." + std::to_string(i + 1);
    im.agent_port = 7070;
    im.pod = "pod-" + std::to_string(i);
    im.uri = "san://ckpt/pod-" + std::to_string(i);
    im.vip = net::IpAddr(10, 77, 0, i);
    im.meta.pod_vip = im.vip;
    ckpt::NetMetaEntry m;
    m.sock = 3;
    m.source = net::SockAddr{im.vip, 5000};
    m.target = net::SockAddr{net::IpAddr(10, 77, 0, 3 - i), 6000};
    m.pcb_sent = 17;
    m.pcb_acked = 11;
    m.pcb_recv = 5;
    im.meta.entries.push_back(m);
    e.images.push_back(im);
  }
  EXPECT_EQ(
      super::catalog_entry_to_json(e).dump(),
      R"j({"images":[{"agent_ip":"192.168.1.2","agent_port":7070,)j"
      R"j("meta":"01004d0a01000000030000000601004d0a881302004d0a7017)j"
      R"j(0000110000000b000000050000000000000000",)j"
      R"j("pod":"pod-1","uri":"san://ckpt/pod-1","vip":"10.77.0.1"},)j"
      R"j({"agent_ip":"192.168.1.3","agent_port":7070,)j"
      R"j("meta":"02004d0a01000000030000000602004d0a881301004d0a7017)j"
      R"j(0000110000000b000000050000000000000000",)j"
      R"j("pod":"pod-2","uri":"san://ckpt/pod-2","vip":"10.77.0.2"}],"op":9,)j"
      R"j("schema":"zapc.obs.catalog.v1","t_us":123456})j");
}

TEST(JsonFormat, EvidenceDocument) {
  obs::MetricsSnapshot snap;
  snap.counters["net.tcp.retransmits"] = 3;
  snap.counters["sim.events"] = 1234567;
  snap.gauges["sim.queue_depth"] = obs::GaugeValue{-2, 40};
  obs::HistogramValue h;
  h.bounds = {100, 1000};
  h.counts = {0, 2, 1};
  h.count = 3;
  h.sum = 2900;
  h.min = 400;
  h.max = 2000;
  snap.histograms["agent.ckpt.suspend_us"] = h;

  SpanRecorder rec;
  SpanId root = rec.begin_at(10, "mgr.ckpt", "manager", 0, 4);
  rec.event_at(15, "manager", "note pod=a", root, 4);
  rec.end_at(90, root);
  SpanId loose = rec.begin_at(20, "heartbeat", "agent@n1");
  rec.end_at(25, loose);
  (void)rec.begin_at(95, "restart", "agent@n2", 0, 5);

  EXPECT_EQ(
      obs::evidence_json("unit", snap, &rec).dump(),
      R"j({"metrics":{"counters":{"net.tcp.retransmits":3,)j"
      R"j("sim.events":1234567},"gauges":{"sim.queue_depth":{"max":40,)j"
      R"j("value":-2}},"histograms":{"agent.ckpt.suspend_us":{"bounds":[100,)j"
      R"j(1000],"count":3,"counts":[0,2,1],"max":2000,"min":400,)j"
      R"j("sum":2900}}},"name":"unit","schema":"zapc.obs.v1",)j"
      R"j("spans":[{"end_us":90,"id":1,"kind":"span","name":"mgr.ckpt",)j"
      R"j("op":4,"parent":0,"start_us":10,"who":"manager"},{"end_us":15,)j"
      R"j("id":2,"kind":"event","name":"note pod=a","op":4,"parent":1,)j"
      R"j("start_us":15,"who":"manager"},{"end_us":25,"id":3,"kind":"span",)j"
      R"j("name":"heartbeat","parent":0,"start_us":20,"who":"agent@n1"},)j"
      R"j({"end_us":95,"id":4,"kind":"span","name":"restart","op":5,)j"
      R"j("open":true,"parent":0,"start_us":95,"who":"agent@n2"}]})j");
}

// ---- Strict readers ---------------------------------------------------------

/// What a reader must accept of a record, by key path ("a.b", "a[].c";
/// a map's entries are "a.*").
struct Rules {
  std::set<std::string> optional;  // keys omitted at their default
  std::set<std::string> maps;      // objects keyed by data, not a list
  std::set<std::string> signed_ints;
  std::set<std::string> doubles;
  std::set<std::string> closed_strings;  // only some strings are valid
  std::map<std::string, double> too_big;  // beyond the integer's type
};

struct Mutation {
  std::string what;
  Json doc;
  bool valid;       // a reader must still accept it
  std::string key;  // the key its error must name ("" = not checked)
};

using Place = std::function<Json(const Json&)>;

std::string last_key(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  std::string k = dot == std::string::npos ? path : path.substr(dot + 1);
  return k.find_first_of("[*") == std::string::npos ? k : "";
}

/// Every one-key break of `j` (found at `path`), each placed back into the
/// whole document by `place`.
void mutate(const Json& j, const std::string& path, const Rules& r,
            const Place& place, std::vector<Mutation>& out) {
  const std::string key = last_key(path);
  const Json others[] = {Json(),       Json(true),    Json(7),
                         Json("text"), Json::array(), Json::object()};
  for (const Json& o : others) {
    if (o.type() == j.type()) continue;
    out.push_back({path + " retyped as " + o.dump(), place(o), false, key});
  }
  if (j.is_num() && r.doubles.count(path) == 0) {
    std::vector<double> bad = {1.5, 18446744073709551616.0};
    if (r.signed_ints.count(path) == 0) bad.push_back(-1);
    if (auto it = r.too_big.find(path); it != r.too_big.end()) {
      bad.push_back(it->second);
    }
    for (double d : bad) {
      out.push_back({path + " = " + Json(d).dump(), place(Json(d)), false,
                     key});
    }
  }
  if (j.is_str() && r.closed_strings.count(path) != 0) {
    out.push_back({path + " = bogus", place(Json("bogus")), false, key});
  }
  if (j.is_arr()) {
    for (std::size_t i = 0; i < j.items().size(); ++i) {
      mutate(j.items()[i], path + "[]", r,
             [&, i](const Json& v) {
               Json a = Json::array();
               for (std::size_t k = 0; k < j.items().size(); ++k) {
                 a.push(k == i ? v : j.items()[k]);
               }
               return place(a);
             },
             out);
    }
  }
  if (!j.is_obj()) return;
  const bool is_map = r.maps.count(path) != 0;
  if (!is_map) {
    Json extra = j;
    extra["zz_unknown"] = 1;
    out.push_back({(path.empty() ? "record" : path) + " + unknown key",
                   place(extra), false, "zz_unknown"});
  }
  for (const auto& [k, v] : j.fields()) {
    const std::string child =
        is_map ? path + ".*" : path.empty() ? k : path + "." + k;
    if (!is_map) {
      Json cut = Json::object();
      for (const auto& [k2, v2] : j.fields()) {
        if (k2 != k) cut[k2] = v2;
      }
      const bool opt = r.optional.count(child) != 0;
      out.push_back({child + " removed", place(cut), opt, k});
    }
    mutate(v, child, r,
           [&, k = k](const Json& nv) {
             Json o = j;
             o[k] = nv;
             return place(o);
           },
           out);
  }
}

/// `doc` (a written T) reads back and rewrites byte-identically, and
/// every break of it is judged as `rules` say.
template <typename T>
void expect_strict(const Json& doc, const Rules& rules) {
  auto back = obs::from_json<T>(doc);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(obs::to_json(back.value()).dump(), doc.dump());

  std::vector<Mutation> ms;
  mutate(doc, "", rules, [](const Json& v) { return v; }, ms);
  std::set<std::string> removed_optional;
  for (const Mutation& m : ms) {
    auto r = obs::from_json<T>(m.doc);
    if (m.valid) {
      removed_optional.insert(m.what.substr(0, m.what.find(' ')));
      ASSERT_TRUE(r.is_ok()) << m.what << ": " << r.status().to_string();
      // The absent key read as its default, so it is not written back.
      EXPECT_EQ(obs::to_json(r.value()).dump(), m.doc.dump()) << m.what;
      continue;
    }
    ASSERT_FALSE(r.is_ok()) << m.what << " was accepted";
    EXPECT_EQ(r.err(), Err::PROTO) << m.what;
    EXPECT_NE(r.status().message().find(m.key), std::string::npos)
        << m.what << ": " << r.status().message();
  }
  // Every optional key the rules name was present and tried.
  EXPECT_EQ(removed_optional, rules.optional);
}

obs::LedgerEntry every_key_entry() {
  obs::LedgerEntry e;
  e.op = 21;
  e.kind = "ckpt";
  e.outcome = "aborted";
  e.error = "deadline";
  e.transient = true;
  e.will_retry = true;
  e.attempt = 2;
  e.downtime_us = 140;
  e.latency_us = 410;
  e.phase_us["suspend"] = 50;
  e.logical_bytes = 5;
  e.straggler = obs::Straggler{"a", "ckpt.suspend", 30};
  e.attrib = cow_attribution();
  e.trigger = "supervisor";
  e.mttr_us = 2500;
  e.lazy_faults = 7;
  e.lazy_bytes = 8;
  e.drain_throttled_us = 90;
  e.drain_contended_us = 40;
  e.drain_granted_bps = 125;
  return e;
}

TEST(JsonStrict, LedgerEntry) {
  Rules r;
  r.optional = {"error",
                "transient",
                "will_retry",
                "phase_us",
                "logical_bytes",
                "straggler",
                "critpath",
                "trigger",
                "mttr_us",
                "lazy_faults",
                "lazy_bytes",
                "drain_throttled_us",
                "drain_contended_us",
                "drain_granted_bps",
                "critpath.drain_segments",
                "critpath.segments[].span",
                "critpath.segments[].pct",
                "critpath.drain_segments[].span",
                "critpath.drain_segments[].pct"};
  r.maps = {"phase_us"};
  r.doubles = {"critpath.segments[].pct", "critpath.drain_segments[].pct"};
  r.closed_strings = {"schema"};
  r.too_big = {{"attempt", 4294967296.0}, {"pods", 4294967296.0}};
  expect_strict<obs::LedgerEntry>(obs::to_json(every_key_entry()), r);

  // With no optional key present, each required one is still required.
  obs::LedgerEntry bare;
  bare.op = 3;
  Rules none;
  none.closed_strings = {"schema"};
  expect_strict<obs::LedgerEntry>(obs::to_json(bare), none);
}

TEST(JsonStrict, CatalogEntry) {
  super::CatalogEntry e;
  e.op = 9;
  e.t_us = 123456;
  for (u8 i = 1; i <= 2; ++i) {
    super::CatalogImage im;
    im.agent_ip = "192.168.1.2";
    im.agent_port = 7070;
    im.pod = "pod-" + std::to_string(i);
    im.uri = "san://ckpt/pod";
    im.vip = net::IpAddr(10, 77, 0, i);
    im.meta.pod_vip = im.vip;
    im.meta.entries.resize(1);
    e.images.push_back(im);
  }
  Rules r;
  r.closed_strings = {"schema", "images[].vip", "images[].meta"};
  r.too_big = {{"images[].agent_port", 65536}};
  expect_strict<super::CatalogEntry>(super::catalog_entry_to_json(e), r);
}

TEST(JsonStrict, MetricsSnapshot) {
  obs::MetricsSnapshot snap;
  snap.counters["net.tcp.retransmits"] = 3;
  snap.gauges["sim.queue_depth"] = obs::GaugeValue{-2, 40};
  obs::HistogramValue h;
  h.bounds = {100, 1000};
  h.counts = {0, 2, 1};
  h.count = 3;
  snap.histograms["agent.ckpt.suspend_us"] = h;
  Rules r;
  r.maps = {"counters", "gauges", "histograms"};
  r.signed_ints = {"gauges.*.value", "gauges.*.max"};
  expect_strict<obs::MetricsSnapshot>(obs::to_json(snap), r);

  // A histogram needs one more count than bounds.
  Json j = obs::to_json(snap);
  Json& bad = j["histograms"]["agent.ckpt.suspend_us"];
  bad["counts"] = obs::to_json(std::vector<u64>{0, 2});
  EXPECT_EQ(obs::from_json<obs::MetricsSnapshot>(j).err(), Err::PROTO);
}

TEST(JsonStrict, Spans) {
  SpanRecorder rec;
  SpanId root = rec.begin_at(10, "mgr.ckpt", "manager", 0, 4);
  rec.event_at(15, "manager", "note", root, 4);
  rec.end_at(90, root);
  (void)rec.begin_at(95, "restart", "agent@n2", 0, 5);
  Rules r;
  r.optional = {"[].op", "[].open"};
  r.closed_strings = {"[].kind"};
  r.too_big = {{"[].id", 4294967296.0}, {"[].parent", 4294967296.0}};
  expect_strict<std::vector<obs::SpanRecord>>(obs::to_json(rec.spans()), r);
}

}  // namespace
}  // namespace zapc
