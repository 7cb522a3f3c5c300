// Golden text of every JSON record: an op-ledger line with every optional
// key set and one with none, a catalog line with two images, an evidence
// document with every kind of metric and span, a health snapshot in each
// of its three shapes, the supervisor's status section and a flight-
// recorder postmortem.  Committed
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
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "obs/critpath.h"
#include "obs/event.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "os/cluster.h"
#include "super/catalog.h"
#include "super/supervisor.h"

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
      obs::to_json(obs::Evidence{"unit", snap, rec.spans(), {}}).dump(),
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

/// An op of four pods: "a" finished, "b" lagging the median, "c" only
/// heartbeating, "d" silent.
obs::ClusterHealth four_pod_op() {
  obs::ClusterHealth h;
  h.op_begin(7, "ckpt", 1000, {"a", "b", "c", "d"});
  h.progress(7, "a", "ckpt.stream", 1100, 300, 900, 3 << 20, 400);
  h.progress(7, "b", "ckpt.stream", 1150, 100, 900, 1 << 20, 2000);
  h.heartbeat(7, "c", "ckpt.suspend", 1200);
  h.pod_done(7, "a", 1400);
  return h;
}

TEST(JsonFormat, HealthSnapshotOfAnUnknownOp) {
  obs::ClusterHealth h = four_pod_op();
  EXPECT_EQ(obs::to_json(h.snapshot(1500, 99)).dump(),
            R"j({"op_id":99,"schema":"zapc.obs.health.v1","t_us":1500})j");
}

TEST(JsonFormat, HealthSnapshotOfAnActiveOp) {
  obs::ClusterHealth h = four_pod_op();
  EXPECT_EQ(
      obs::to_json(h.snapshot(1500)).dump(),
      R"j({"active":true,"kind":"ckpt","median_finish_us":1400,"op_id":7,)j"
      R"j("pods":{"a":{"beacons":1,"bytes_done":900,"bytes_expected":900,)j"
      R"j("done":true,"eta_us":0,"heartbeat_age_us":100,"lag_us":0,)j"
      R"j("last_seen_us":1400,"pct_done":100,"phase":"ckpt.stream",)j"
      R"j("throughput_bps":3145728},"b":{"beacons":1,"bytes_done":100,)j"
      R"j("bytes_expected":900,"done":false,"eta_us":2000,)j"
      R"j("heartbeat_age_us":350,"lag_us":1750,"last_seen_us":1150,)j"
      R"j("pct_done":11.111111111111111,"phase":"ckpt.stream",)j"
      R"j("throughput_bps":1048576},"c":{"beacons":1,"bytes_done":0,)j"
      R"j("bytes_expected":0,"done":false,"eta_us":0,"heartbeat_age_us":300,)j"
      R"j("lag_us":0,"last_seen_us":1200,"pct_done":0,"phase":"ckpt.suspend",)j"
      R"j("throughput_bps":0},"d":{"beacons":0,"bytes_done":0,)j"
      R"j("bytes_expected":0,"done":false,"eta_us":0,"heartbeat_age_us":0,)j"
      R"j("lag_us":0,"last_seen_us":0,"pct_done":0,"phase":"",)j"
      R"j("throughput_bps":0}},"schema":"zapc.obs.health.v1",)j"
      R"j("started_us":1000,"straggler":{"lag_us":1750,"phase":"ckpt.stream",)j"
      R"j("pod":"b"},"t_us":1500})j");
}

TEST(JsonFormat, HealthSnapshotOfAFinishedOp) {
  obs::ClusterHealth h = four_pod_op();
  h.op_end(7, 1800, false);
  EXPECT_EQ(
      obs::to_json(h.snapshot(1900, 7)).dump(),
      R"j({"active":false,"ended_us":1800,"kind":"ckpt",)j"
      R"j("median_finish_us":1400,"ok":false,"op_id":7,)j"
      R"j("pods":{"a":{"beacons":1,"bytes_done":900,"bytes_expected":900,)j"
      R"j("done":true,"eta_us":0,"heartbeat_age_us":500,"lag_us":0,)j"
      R"j("last_seen_us":1400,"pct_done":100,"phase":"ckpt.stream",)j"
      R"j("throughput_bps":3145728},"b":{"beacons":1,"bytes_done":100,)j"
      R"j("bytes_expected":900,"done":false,"eta_us":2000,)j"
      R"j("heartbeat_age_us":750,"lag_us":1750,"last_seen_us":1150,)j"
      R"j("pct_done":11.111111111111111,"phase":"ckpt.stream",)j"
      R"j("throughput_bps":1048576},"c":{"beacons":1,"bytes_done":0,)j"
      R"j("bytes_expected":0,"done":false,"eta_us":0,"heartbeat_age_us":700,)j"
      R"j("lag_us":0,"last_seen_us":1200,"pct_done":0,"phase":"ckpt.suspend",)j"
      R"j("throughput_bps":0},"d":{"beacons":0,"bytes_done":0,)j"
      R"j("bytes_expected":0,"done":false,"eta_us":0,"heartbeat_age_us":0,)j"
      R"j("lag_us":0,"last_seen_us":0,"pct_done":0,"phase":"",)j"
      R"j("throughput_bps":0}},"schema":"zapc.obs.health.v1",)j"
      R"j("started_us":1000,"straggler":{"lag_us":1750,"phase":"ckpt.stream",)j"
      R"j("pod":"b"},"t_us":1900})j");
}

/// Two supervised nodes; n1 dies with nothing in the catalog, so the
/// recovery gives up and leaves a failed last recovery behind.
TEST(JsonFormat, SupervisorSectionWithLastRecovery) {
  fault::injector().clear();
  os::Cluster cl;
  os::Node& mgr = cl.add_node("mgr");
  std::vector<std::unique_ptr<core::Agent>> agents;
  std::vector<super::Supervisor::AgentRef> refs;
  for (int i = 1; i <= 2; ++i) {
    os::Node& n = cl.add_node("n" + std::to_string(i));
    agents.push_back(std::make_unique<core::Agent>(n));
    refs.push_back({agents.back()->addr(), n.name()});
  }
  core::Manager manager(mgr);
  super::Supervisor::Options o;
  o.heartbeat_us = 20 * sim::kMillisecond;
  o.coalesce_us = 10 * sim::kMillisecond;
  super::Supervisor sup(mgr, manager, std::move(refs), o);
  sup.start({{agents[0]->addr(), "server-pod", "san://ckpt/server"}});
  fault::FaultSpec kill;
  kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
  kill.node = "n1";
  kill.at_us = 200 * sim::kMillisecond;
  fault::injector().arm(kill);
  cl.run_for(1 * sim::kSecond);
  fault::injector().clear();

  EXPECT_EQ(
      obs::to_json(sup.status()).dump(),
      R"j({"attempts_remaining":0,"catalog_entries":0,)j"
      R"j("last_recovery":{"attempts":1,"dead_nodes":"n1","detect_us":520000,)j"
      R"j("mttr_us":0,"ok":false,"restored_us":0},)j"
      R"j("nodes":[{"beacon_age_us":819800,"beacons":10,"false_alarms":0,)j"
      R"j("node":"n1","state":"dead"},{"beacon_age_us":19800,"beacons":50,)j"
      R"j("false_alarms":0,"node":"n2","state":"alive"}],"recoveries":0,)j"
      R"j("state":"degraded"})j");
}

TEST(JsonFormat, PostmortemDocument) {
  obs::FlightRecorder& fr = obs::flight();
  fr.clear();
  fr.set_dir(::testing::TempDir() + "zapc_json_format_pm");
  SpanRecorder rec;
  const obs::OpId op = 7;
  SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  SpanId mw = rec.begin_at(105, "mgr.ckpt.meta_wait", "manager", root, op);
  rec.event_at(110, "manager", "note pod=a", mw, op);
  SpanId hb = rec.begin_at(120, "heartbeat", "agent@n1");
  rec.end_at(130, hb);
  fr.note_log("[WARN @125us] meta late");
  obs::dump_op_failure(&rec, "ckpt_fail", op, "manager", "deadline expired",
                       5000);

  auto parsed = obs::json_parse(fr.last_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  Json doc = parsed.value();
  EXPECT_EQ(fr.last_json(), doc.dump(2) + "\n");
  // The metrics are the whole process's registry; JsonFormat.Evidence
  // pins their format.
  ASSERT_TRUE(doc["metrics"].is_obj());
  doc["metrics"] = "...";
  EXPECT_EQ(
      doc.dump(),
      R"j({"kind":"ckpt_fail","log":["[WARN @125us] meta late"],)j"
      R"j("metrics":"...","op_id":7,"phase":"mgr.ckpt.meta_wait",)j"
      R"j("reason":"deadline expired","schema":"zapc.obs.postmortem.v1",)j"
      R"j("spans":[{"end_us":100,"id":1,"kind":"span","name":"mgr.ckpt",)j"
      R"j("op":7,"open":true,"parent":0,"start_us":100,"who":"manager"},)j"
      R"j({"end_us":105,"id":2,"kind":"span","name":"mgr.ckpt.meta_wait",)j"
      R"j("op":7,"open":true,"parent":1,"start_us":105,"who":"manager"},)j"
      R"j({"end_us":110,"id":3,"kind":"event","name":"note pod=a","op":7,)j"
      R"j("parent":2,"start_us":110,"who":"manager"},{"end_us":130,"id":4,)j"
      R"j("kind":"span","name":"heartbeat","parent":0,"start_us":120,)j"
      R"j("who":"agent@n1"},{"end_us":5000,"id":5,"kind":"event",)j"
      R"j("name":"op.fail kind=ckpt_fail why=deadline expired","op":7,)j"
      R"j("parent":0,"start_us":5000,"who":"manager"}],"time_us":5000,)j"
      R"j("who":"manager"})j");
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
  std::set<std::string> raw;              // free-form JSON, not read
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
  if (r.raw.count(path) != 0) return;
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

obs::SupervisorStatus sample_supervisor() {
  obs::SupervisorStatus st;
  st.state = "degraded";
  st.recoveries = 1;
  st.catalog_entries = 2;
  st.nodes = {{"n1", "dead", 819800, 1, 10}, {"n2", "alive", 19800, 0, 50}};
  st.last_recovery = obs::LastRecovery{false, "n1", 520000, 0, 0, 4};
  return st;
}

const std::map<std::string, double> kSupervisorTooBig = {
    {"recoveries", 4294967296.0},
    {"attempts_remaining", 4294967296.0},
    {"nodes[].false_alarms", 4294967296.0},
    {"nodes[].beacons", 4294967296.0},
    {"last_recovery.attempts", 4294967296.0}};

TEST(JsonStrict, SupervisorStatus) {
  Rules r;
  r.optional = {"last_recovery"};
  r.too_big = kSupervisorTooBig;
  expect_strict<obs::SupervisorStatus>(obs::to_json(sample_supervisor()), r);
}

TEST(JsonStrict, HealthDoc) {
  // The active op, with a straggler and a supervisor section.
  obs::HealthDoc active = four_pod_op().snapshot(1500);
  active.supervisor = sample_supervisor();
  Rules r;
  r.optional = {"straggler", "supervisor", "supervisor.last_recovery"};
  r.maps = {"pods"};
  r.doubles = {"pods.*.pct_done"};
  r.closed_strings = {"schema"};
  r.too_big = {{"pods.*.beacons", 4294967296.0}};
  for (const auto& [k, v] : kSupervisorTooBig) r.too_big["supervisor." + k] = v;
  expect_strict<obs::HealthDoc>(obs::to_json(active), r);

  // The finished op: its outcome keys come and go together.
  obs::ClusterHealth h = four_pod_op();
  h.op_end(7, 1800, true);
  Rules finished;
  finished.optional = {"straggler"};
  finished.maps = {"pods"};
  finished.doubles = {"pods.*.pct_done"};
  finished.closed_strings = {"schema"};
  finished.too_big = {{"pods.*.beacons", 4294967296.0}};
  expect_strict<obs::HealthDoc>(obs::to_json(h.snapshot(1900)), finished);

  // The unknown op: the stamp and the id alone.
  Rules unknown;
  unknown.closed_strings = {"schema"};
  expect_strict<obs::HealthDoc>(obs::to_json(h.snapshot(1900, 99)), unknown);

  // An op's keys without the op's other keys, or an outcome on an
  // active op, is no shape the snapshot has.
  Json half = obs::to_json(h.snapshot(1900, 99));
  half["active"] = true;
  auto r1 = obs::from_json<obs::HealthDoc>(half);
  EXPECT_EQ(r1.err(), Err::PROTO);
  EXPECT_NE(r1.status().message().find("kind: missing"), std::string::npos)
      << r1.status().message();
  Json both = obs::to_json(h.snapshot(1900));
  both["active"] = true;
  auto r2 = obs::from_json<obs::HealthDoc>(both);
  EXPECT_EQ(r2.err(), Err::PROTO);
  EXPECT_NE(r2.status().message().find("ended_us"), std::string::npos)
      << r2.status().message();
}

/// A small registry, with one metric of each kind.
obs::MetricsSnapshot small_snapshot() {
  obs::MetricsSnapshot snap;
  snap.counters["obs.postmortems_written"] = 1;
  snap.gauges["sim.queue_depth"] = obs::GaugeValue{-2, 40};
  obs::HistogramValue h;
  h.bounds = {100};
  h.counts = {1, 0};
  h.count = 1;
  snap.histograms["health.lag_us"] = h;
  return snap;
}

/// An op's span and event, and a loose span left open.
std::vector<obs::SpanRecord> small_stream() {
  SpanRecorder rec;
  SpanId root = rec.begin_at(10, "mgr.ckpt", "manager", 0, 4);
  rec.event_at(15, "manager", "note", root, 4);
  rec.end_at(90, root);
  (void)rec.begin_at(95, "restart", "agent@n2");
  return rec.spans();
}

Rules envelope_rules() {
  Rules r;
  r.maps = {"metrics.counters", "metrics.gauges", "metrics.histograms"};
  r.signed_ints = {"metrics.gauges.*.value", "metrics.gauges.*.max"};
  r.optional = {"spans[].op", "spans[].open"};
  r.closed_strings = {"schema", "spans[].kind"};
  r.too_big = {{"spans[].id", 4294967296.0},
               {"spans[].parent", 4294967296.0}};
  return r;
}

TEST(JsonStrict, Postmortem) {
  obs::Postmortem pm;
  pm.kind = "ckpt_fail";
  pm.op_id = 7;
  pm.who = "manager";
  pm.phase = "mgr.ckpt";
  pm.reason = "deadline expired";
  pm.time_us = 5000;
  pm.spans = small_stream();
  pm.log = {"[WARN] late"};
  pm.metrics = small_snapshot();
  expect_strict<obs::Postmortem>(obs::to_json(pm), envelope_rules());
}

TEST(JsonStrict, Evidence) {
  Json row = Json::object();
  row["app"] = "CPI";
  row["ms"] = 1.5;
  obs::Evidence ev{"unit", small_snapshot(), small_stream(), {row}};
  Rules r = envelope_rules();
  r.optional.insert({"spans", "rows"});
  r.raw = {"rows[]"};
  expect_strict<obs::Evidence>(obs::to_json(ev), r);
}

}  // namespace
}  // namespace zapc
