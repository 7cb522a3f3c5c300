// Critical-path downtime attribution and the op ledger (DESIGN.md §10):
// the backward walk over synthetic span trees (barrier jump across the
// continue edge, plain standalone-gated descent, restart descent, COW
// drains and lazy fills kept off the path, open-span clipping for
// crashed agents, manager-only fallback), the exact-sum property
// (segments partition the downtime), JSON round-trips for attributions
// and ledger entries, torn-tail ledger loading, and the
// end-to-end acceptance scenario: a checkpoint with an injected slow
// node must attribute the plurality of the downtime to the slow pod's
// costed phase.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "obs/critpath.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "os/cluster.h"
#include "tests/guest_programs.h"

namespace zapc::obs {
namespace {

/// Segments must tile [start, end] with no gaps or overlaps — the
/// property that makes "sums to the downtime" hold exactly.
void expect_contiguous(const OpAttribution& a) {
  ASSERT_FALSE(a.segments.empty());
  EXPECT_EQ(a.segments.front().start, a.start);
  EXPECT_EQ(a.segments.back().end, a.end);
  for (std::size_t i = 1; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].start, a.segments[i - 1].end)
        << "gap/overlap before segment " << i << " (" << a.segments[i].phase
        << ")";
  }
  Time sum = 0;
  for (const CritSegment& s : a.segments) sum += s.duration();
  EXPECT_EQ(sum, a.downtime_us);
}

const CritSegment* find_phase(const OpAttribution& a,
                              const std::string& phase) {
  for (const CritSegment& s : a.segments) {
    if (s.phase == phase) return &s;
  }
  return nullptr;
}

// ---- Backward walk over synthetic trees -------------------------------------

/// The barrier-jump shape: the gating agent finished its standalone
/// checkpoint early and sat parked at the continue barrier, so the path
/// must cross the continue edge onto the meta-data side — the slow
/// netckpt of the *other* agent is the real cost.
TEST(CritPath, CkptBarrierJumpCrossesContinueEdgeToMetaSide) {
  SpanRecorder rec;
  const OpId op = 7;
  SpanId root = rec.begin_at(1000, "mgr.ckpt", "manager", 0, op);
  SpanId mw = rec.begin_at(1005, "mgr.ckpt.meta_wait", "manager", root, op);
  rec.end_at(1355, mw);
  rec.event_at(1360, "manager", "mgr.continue", root, op);

  // Agent A (pod "a"): slow network checkpoint, last META_REPORT in.
  SpanId sa = rec.begin_at(1020, "ckpt", "agent@n1", root, op);
  rec.event_at(1020, "agent@n1", "1: suspend pod a, block network", sa, op);
  SpanId s = rec.begin_at(1020, "ckpt.suspend", "agent@n1", sa, op);
  rec.end_at(1060, s);
  s = rec.begin_at(1060, "ckpt.netckpt", "agent@n1", sa, op);
  rec.end_at(1340, s);
  rec.event_at(1340, "agent@n1", "2a: meta-data reported for a", sa, op);
  s = rec.begin_at(1340, "ckpt.standalone", "agent@n1", sa, op);
  rec.end_at(1370, s);
  s = rec.begin_at(1370, "ckpt.barrier", "agent@n1", sa, op);
  rec.end_at(1380, s);
  rec.end_at(1380, sa);
  rec.event_at(1350, "manager", "2: meta-data received from a", mw, op);

  // Agent B (pod "b"): done quickly, then parked at the barrier; its
  // DONE is nevertheless the last to arrive (gating pod).
  SpanId sb = rec.begin_at(1020, "ckpt", "agent@n2", root, op);
  rec.event_at(1020, "agent@n2", "1: suspend pod b, block network", sb, op);
  s = rec.begin_at(1020, "ckpt.suspend", "agent@n2", sb, op);
  rec.end_at(1050, s);
  s = rec.begin_at(1050, "ckpt.netckpt", "agent@n2", sb, op);
  rec.end_at(1100, s);
  rec.event_at(1100, "agent@n2", "2a: meta-data reported for b", sb, op);
  rec.event_at(1110, "manager", "2: meta-data received from b", mw, op);
  s = rec.begin_at(1100, "ckpt.standalone", "agent@n2", sb, op);
  rec.end_at(1250, s);
  SpanId barrier = rec.begin_at(1250, "ckpt.barrier", "agent@n2", sb, op);
  rec.event_at(1365, "agent@n2", "3a: continue received for b", barrier, op);
  rec.end_at(1430, barrier);
  rec.end_at(1450, sb);

  rec.event_at(1390, "manager", "4: 'done' received from a", root, op);
  rec.event_at(1460, "manager", "4: 'done' received from b", root, op);
  rec.end_at(1470, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.kind, "ckpt");
  EXPECT_EQ(a.downtime_us, 470u);
  expect_contiguous(a);

  // The path crossed the barrier: continue and meta edges are on it,
  // and the costliest slice is agent A's netckpt, not B's barrier wait.
  ASSERT_NE(find_phase(a, "edge:continue"), nullptr);
  ASSERT_NE(find_phase(a, "edge:meta"), nullptr);
  ASSERT_NE(find_phase(a, "edge:cmd"), nullptr);
  EXPECT_EQ(a.critical_pod, "a");
  EXPECT_EQ(a.critical_phase, "ckpt.netckpt");
  EXPECT_EQ(a.critical_phase_us, 280u);

  const CritSegment* net = find_phase(a, "ckpt.netckpt");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->pod, "a");
  EXPECT_FALSE(net->edge);
  EXPECT_NE(net->span, 0u);

  // B's post-continue commit slice is on the path; its barrier *wait*
  // (1250..1365) is not charged to it.
  const CritSegment* commit = find_phase(a, "ckpt.barrier");
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->pod, "b");
  EXPECT_EQ(commit->start, 1365u);
  EXPECT_EQ(commit->end, 1430u);

  // Done-side slack: the gate (b) has none; a could have been 70us
  // later without extending the op.
  ASSERT_EQ(a.slack.size(), 2u);
  for (const PodSlack& ps : a.slack) {
    EXPECT_EQ(ps.slack_us, ps.pod == "b" ? 0u : 70u) << ps.pod;
  }
  EXPECT_EQ(a.pod_critical_us("a"), 320u);
  EXPECT_EQ(a.pod_critical_us("b"), 85u);
}

/// No jump: the gating agent's standalone work outlasted the continue,
/// so the whole path stays on that agent and ends at the command edge.
TEST(CritPath, CkptStandaloneGatedStaysOnAgent) {
  SpanRecorder rec;
  const OpId op = 8;
  SpanId root = rec.begin_at(1000, "mgr.ckpt", "manager", 0, op);
  SpanId sb = rec.begin_at(1010, "ckpt", "agent@n1", root, op);
  rec.event_at(1010, "agent@n1", "1: suspend pod b, block network", sb, op);
  SpanId s = rec.begin_at(1010, "ckpt.suspend", "agent@n1", sb, op);
  rec.end_at(1040, s);
  s = rec.begin_at(1040, "ckpt.netckpt", "agent@n1", sb, op);
  rec.end_at(1090, s);
  s = rec.begin_at(1090, "ckpt.standalone", "agent@n1", sb, op);
  rec.end_at(1250, s);
  // Continue had already arrived when the barrier span opened: no wait.
  s = rec.begin_at(1250, "ckpt.barrier", "agent@n1", sb, op);
  rec.end_at(1260, s);
  rec.end_at(1280, sb);
  rec.event_at(1290, "manager", "4: 'done' received from b", root, op);
  rec.end_at(1300, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.downtime_us, 300u);
  expect_contiguous(a);
  EXPECT_EQ(a.critical_pod, "b");
  EXPECT_EQ(a.critical_phase, "ckpt.standalone");
  EXPECT_EQ(a.critical_phase_us, 160u);
  EXPECT_EQ(find_phase(a, "edge:continue"), nullptr);
  ASSERT_NE(find_phase(a, "edge:cmd"), nullptr);
  ASSERT_NE(find_phase(a, "edge:done"), nullptr);
}

/// Restart ops descend the destination agent's sequential phases; there
/// is no continue barrier to jump.
TEST(CritPath, RestartDescendsDestinationPhases) {
  SpanRecorder rec;
  const OpId op = 9;
  SpanId root = rec.begin_at(2000, "mgr.restart", "manager", 0, op);
  SpanId sp = rec.begin_at(2010, "restart", "agent@n3", root, op);
  rec.event_at(2010, "agent@n3", "1: pod p created for restart", sp, op);
  SpanId s = rec.begin_at(2010, "restart.connectivity", "agent@n3", sp, op);
  rec.end_at(2100, s);
  s = rec.begin_at(2100, "restart.netstate", "agent@n3", sp, op);
  rec.end_at(2200, s);
  s = rec.begin_at(2200, "restart.standalone", "agent@n3", sp, op);
  rec.end_at(2340, s);
  rec.end_at(2350, sp);
  rec.event_at(2370, "manager", "2: 'done' received from p", root, op);
  rec.end_at(2400, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.kind, "restart");
  EXPECT_EQ(a.downtime_us, 400u);
  expect_contiguous(a);
  EXPECT_EQ(a.critical_pod, "p");
  EXPECT_EQ(a.critical_phase, "restart.standalone");
  EXPECT_EQ(a.critical_phase_us, 140u);
  const CritSegment* conn = find_phase(a, "restart.connectivity");
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->duration(), 90u);
}

/// A crashed agent leaves its spans open (postmortem shape): they are
/// clipped at the op's last stamp and the walk still sums exactly.
TEST(CritPath, OpenSpansAreClippedAtOpEnd) {
  SpanRecorder rec;
  const OpId op = 10;
  SpanId root = rec.begin_at(3000, "mgr.ckpt", "manager", 0, op);  // open
  SpanId sa = rec.begin_at(3010, "ckpt", "agent@n1", root, op);    // open
  rec.event_at(3010, "agent@n1", "1: suspend pod a, block network", sa, op);
  SpanId s = rec.begin_at(3010, "ckpt.suspend", "agent@n1", sa, op);
  rec.end_at(3050, s);
  rec.begin_at(3050, "ckpt.netckpt", "agent@n1", sa, op);  // open: crash
  rec.event_at(3200, "manager", "op.fail kind=ckpt", root, op);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.end, 3200u);
  EXPECT_EQ(a.downtime_us, 200u);
  expect_contiguous(a);
  const CritSegment* net = find_phase(a, "ckpt.netckpt");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->end, 3200u);  // clipped to the op window
  EXPECT_EQ(a.critical_phase, "ckpt.netckpt");
}

/// An op with no agent spans (connect failure before any agent traced)
/// attributes everything to the Manager root.
TEST(CritPath, ManagerOnlyOpFallsBackToRoot) {
  SpanRecorder rec;
  const OpId op = 11;
  SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  SpanId mw = rec.begin_at(110, "mgr.ckpt.meta_wait", "manager", root, op);
  rec.end_at(390, mw);
  rec.end_at(400, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.downtime_us, 300u);
  ASSERT_EQ(a.segments.size(), 1u);
  EXPECT_EQ(a.segments[0].phase, "mgr.ckpt");
  EXPECT_EQ(a.segments[0].who, "manager");
  expect_contiguous(a);
}

/// COW checkpoint shape: downtime ends where the manager's drain-wait
/// span begins; the walk covers only the downtime window, the drain
/// becomes an off-path segment, and the latency keeps running to the
/// last drain-done.
TEST(CritPath, CowDrainStaysOffDowntimeCriticalPath) {
  SpanRecorder rec;
  const OpId op = 13;
  SpanId root = rec.begin_at(1000, "mgr.ckpt", "manager", 0, op);
  SpanId mw = rec.begin_at(1005, "mgr.ckpt.meta_wait", "manager", root, op);
  rec.end_at(1100, mw);
  SpanId cont = rec.event_at(1100, "manager", "mgr.continue", root, op);
  SpanId dw = rec.begin_at(1100, "mgr.ckpt.done_wait", "manager", root, op);

  SpanId sa = rec.begin_at(1010, "ckpt", "agent@n1", root, op);
  rec.event_at(1010, "agent@n1", "1: suspend pod a, block network", sa, op);
  SpanId s = rec.begin_at(1010, "ckpt.suspend", "agent@n1", sa, op);
  rec.end_at(1060, s);
  s = rec.begin_at(1060, "ckpt.netckpt", "agent@n1", sa, op);
  rec.end_at(1085, s);
  rec.event_at(1085, "agent@n1", "2a: meta-data reported for a", sa, op);
  rec.event_at(1090, "manager", "2: meta-data received from a", mw, op);
  s = rec.begin_at(1085, "ckpt.cowmark", "agent@n1", sa, op);
  rec.end_at(1095, s);
  SpanId bar = rec.begin_at(1095, "ckpt.barrier", "agent@n1", sa, op);
  rec.event_at(1105, "agent@n1", "3a: continue received for a", bar, op);
  rec.end_at(1110, bar);
  rec.event_at(1110, "agent@n1", "4: pod a resumed", sa, op);
  rec.event_at(1110, "agent@n1", "agent.resume pod=a", cont, op);
  rec.event_at(1135, "manager", "4: 'done' received from a", root, op);
  rec.end_at(1140, dw);

  // Downtime over; the drain runs while the manager waits it out.
  SpanId dr = rec.begin_at(1110, "ckpt.drain", "agent@n1", sa, op);
  rec.event_at(1110, "agent@n1",
               "5: background drain started for a (4096 bytes, 1 "
               "concurrent drains)",
               dr, op);
  SpanId drw =
      rec.begin_at(1140, "mgr.ckpt.drain_wait", "manager", root, op);
  rec.end_at(1400, dr);
  rec.end_at(1400, sa);
  rec.event_at(1410, "manager", "5: 'drain-done' received from a", drw, op);
  rec.end_at(1410, drw);
  rec.end_at(1410, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.kind, "ckpt");

  // Downtime stops at the drain-wait span; latency covers the drains.
  EXPECT_EQ(a.downtime_us, 140u);
  EXPECT_EQ(a.latency_us, 410u);
  EXPECT_EQ(a.end, 1410u);

  // The walked segments tile exactly the downtime window — no drain
  // time is charged to any of them.
  ASSERT_FALSE(a.segments.empty());
  EXPECT_EQ(a.segments.front().start, a.start);
  EXPECT_EQ(a.segments.back().end, a.start + a.downtime_us);
  Time sum = 0;
  for (const CritSegment& seg : a.segments) {
    sum += seg.duration();
    EXPECT_NE(seg.phase, "ckpt.drain") << "drain leaked onto the path";
  }
  EXPECT_EQ(sum, a.downtime_us);

  // The drain shows up as its own off-path segment, attributed to the
  // pod, and max_drain_us reports its length.
  ASSERT_EQ(a.drain_segments.size(), 1u);
  EXPECT_EQ(a.drain_segments[0].phase, "ckpt.drain");
  EXPECT_EQ(a.drain_segments[0].pod, "a");
  EXPECT_EQ(a.drain_segments[0].duration(), 290u);
  EXPECT_EQ(a.max_drain_us(), 290u);

  // JSON round-trip keeps the split and the drain segments.
  auto back = attribution_from_json(attribution_to_json(a));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().latency_us, a.latency_us);
  EXPECT_EQ(back.value().downtime_us, a.downtime_us);
  ASSERT_EQ(back.value().drain_segments.size(), 1u);
  EXPECT_EQ(back.value().drain_segments[0].pod, "a");
  EXPECT_EQ(back.value().drain_segments[0].duration(), 290u);
  EXPECT_EQ(back.value().max_drain_us(), 290u);
}

/// Lazy restart shape: the restart's background epilogue is the cold-
/// region fill.  Downtime ends where the manager's lazy-wait span
/// begins, the fill is an off-path segment, and the gating agent's DONE
/// is anchored on its standalone phase, not its still-open root span.
TEST(CritPath, LazyFillStaysOffDowntimeCriticalPath) {
  SpanRecorder rec;
  const OpId op = 14;
  SpanId root = rec.begin_at(2000, "mgr.restart", "manager", 0, op);
  SpanId sp = rec.begin_at(2010, "restart", "agent@n3", root, op);
  rec.event_at(2010, "agent@n3", "1: pod p created for restart", sp, op);
  SpanId s = rec.begin_at(2010, "restart.connectivity", "agent@n3", sp, op);
  rec.end_at(2100, s);
  s = rec.begin_at(2100, "restart.netstate", "agent@n3", sp, op);
  rec.end_at(2150, s);
  s = rec.begin_at(2150, "restart.standalone", "agent@n3", sp, op);
  rec.end_at(2250, s);  // hot set restored, pod resumed, RESTART_DONE sent
  rec.event_at(2260, "manager", "2: 'done' received from p", root, op);

  // Downtime over; the cold regions fill while the pod runs (and the
  // agent's root span stays open until they have).
  SpanId lz = rec.begin_at(2250, "restart.lazy", "agent@n3", sp, op);
  SpanId lw =
      rec.begin_at(2260, "mgr.restart.lazy_wait", "manager", root, op);
  rec.end_at(2900, lz);
  rec.end_at(2900, sp);
  rec.event_at(2910, "manager", "6: 'lazy-done' received from p", lw, op);
  rec.end_at(2910, lw);
  rec.end_at(2910, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  EXPECT_EQ(a.kind, "restart");
  EXPECT_EQ(a.downtime_us, 260u);
  EXPECT_EQ(a.latency_us, 910u);

  // The walked segments tile exactly the downtime window, with the fill
  // nowhere on it: the costliest slice is the eager standalone restore.
  ASSERT_FALSE(a.segments.empty());
  EXPECT_EQ(a.segments.front().start, a.start);
  EXPECT_EQ(a.segments.back().end, a.start + a.downtime_us);
  Time sum = 0;
  for (const CritSegment& seg : a.segments) {
    sum += seg.duration();
    EXPECT_NE(seg.phase, "restart.lazy") << "lazy fill leaked onto the path";
  }
  EXPECT_EQ(sum, a.downtime_us);
  EXPECT_EQ(a.critical_phase, "restart.standalone");
  EXPECT_EQ(a.critical_phase_us, 100u);
  const CritSegment* done = find_phase(a, "edge:done");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->start, 2250u);
  EXPECT_EQ(done->end, 2260u);

  ASSERT_EQ(a.drain_segments.size(), 1u);
  EXPECT_EQ(a.drain_segments[0].phase, "restart.lazy");
  EXPECT_EQ(a.drain_segments[0].pod, "p");
  EXPECT_EQ(a.drain_segments[0].duration(), 650u);
}

TEST(CritPath, RejectsEmptyAndRootlessRecordSets) {
  EXPECT_FALSE(attribute_op(std::vector<const SpanRecord*>{}).is_ok());

  SpanRecorder rec;
  rec.event_at(10, "manager", "stray event", 0, 5);
  EXPECT_FALSE(attribute_op(rec.spans(), 5).is_ok());
}

TEST(CritPath, AttributionJsonRoundTrips) {
  SpanRecorder rec;
  const OpId op = 12;
  SpanId root = rec.begin_at(1000, "mgr.ckpt", "manager", 0, op);
  SpanId sa = rec.begin_at(1010, "ckpt", "agent@n1", root, op);
  rec.event_at(1010, "agent@n1", "1: suspend pod a, block network", sa, op);
  SpanId s = rec.begin_at(1010, "ckpt.standalone", "agent@n1", sa, op);
  rec.end_at(1200, s);
  rec.end_at(1210, sa);
  rec.event_at(1220, "manager", "4: 'done' received from a", root, op);
  rec.end_at(1230, root);

  auto res = attribute_op(rec.spans(), op);
  ASSERT_TRUE(res.is_ok());
  const OpAttribution& a = res.value();

  auto back = attribution_from_json(attribution_to_json(a));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const OpAttribution& b = back.value();
  EXPECT_EQ(b.op, a.op);
  EXPECT_EQ(b.kind, a.kind);
  EXPECT_EQ(b.downtime_us, a.downtime_us);
  EXPECT_EQ(b.critical_pod, a.critical_pod);
  EXPECT_EQ(b.critical_phase, a.critical_phase);
  EXPECT_EQ(b.critical_phase_us, a.critical_phase_us);
  ASSERT_EQ(b.segments.size(), a.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(b.segments[i].start, a.segments[i].start);
    EXPECT_EQ(b.segments[i].end, a.segments[i].end);
    EXPECT_EQ(b.segments[i].pod, a.segments[i].pod);
    EXPECT_EQ(b.segments[i].phase, a.segments[i].phase);
    EXPECT_EQ(b.segments[i].edge, a.segments[i].edge);
  }
  ASSERT_EQ(b.slack.size(), a.slack.size());
  expect_contiguous(b);
}

// ---- Ledger -----------------------------------------------------------------

TEST(Ledger, EntryJsonRoundTripsAllFields) {
  LedgerEntry e;
  e.op = 33;
  e.kind = "ckpt";
  e.outcome = "aborted";
  e.error = "deadline expired in meta_wait (server-pod)";
  e.transient = true;
  e.will_retry = true;
  e.attempt = 2;
  e.start_us = 5000;
  e.end_us = 9000;
  e.downtime_us = 4000;
  e.pods = 3;
  e.phase_us["suspend"] = 120;
  e.phase_us["standalone"] = 2500;
  e.image_bytes = 1 << 20;
  e.network_bytes = 4096;
  e.logical_bytes = 2 << 20;
  e.straggler_pod = "bt-3";
  e.straggler_phase = "ckpt.standalone";
  e.straggler_lag_us = 700;

  Json j = ledger_entry_to_json(e);
  EXPECT_EQ(j.find("schema")->str(), kLedgerSchemaVersion);
  auto back = ledger_entry_from_json(j);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const LedgerEntry& b = back.value();
  EXPECT_EQ(b.op, 33u);
  EXPECT_EQ(b.kind, "ckpt");
  EXPECT_EQ(b.outcome, "aborted");
  EXPECT_EQ(b.error, e.error);
  EXPECT_TRUE(b.transient);
  EXPECT_TRUE(b.will_retry);
  EXPECT_EQ(b.attempt, 2u);
  EXPECT_EQ(b.downtime_us, 4000u);
  EXPECT_EQ(b.pods, 3u);
  ASSERT_EQ(b.phase_us.size(), 2u);
  EXPECT_EQ(b.phase_us.at("standalone"), 2500u);
  EXPECT_EQ(b.image_bytes, u64{1} << 20);
  EXPECT_EQ(b.logical_bytes, u64{2} << 20);
  EXPECT_EQ(b.straggler_pod, "bt-3");
  EXPECT_EQ(b.straggler_lag_us, 700u);
  EXPECT_FALSE(b.has_attrib);
}

TEST(Ledger, RejectsWrongSchemaTag) {
  Json j = Json::object();
  j["schema"] = "zapc.obs.health.v1";
  j["op"] = 1;
  EXPECT_FALSE(ledger_entry_from_json(j).is_ok());
}

TEST(Ledger, PersistentAppendLoadsBackAndSkipsTornTail) {
  const std::string path = ::testing::TempDir() + "critpath_ledger.jsonl";
  std::remove(path.c_str());
  {
    Ledger led(path);
    ASSERT_TRUE(led.persistent());
    for (u64 i = 1; i <= 3; ++i) {
      LedgerEntry e;
      e.op = i;
      e.kind = "ckpt";
      e.outcome = i == 2 ? "aborted" : "ok";
      e.downtime_us = 100 * i;
      ASSERT_TRUE(led.append(e).is_ok());
    }
  }
  auto loaded = Ledger::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().entries.size(), 3u);
  EXPECT_EQ(loaded.value().skipped_torn, 0);
  EXPECT_EQ(loaded.value().entries[1].outcome, "aborted");
  EXPECT_EQ(loaded.value().entries[2].downtime_us, 300u);

  // A crash mid-append tears only the final line: it is skipped and
  // counted, the rest load fine.
  std::ofstream(path, std::ios::app) << "{\"schema\": \"zapc.obs.led";
  auto torn = Ledger::load(path);
  ASSERT_TRUE(torn.is_ok()) << torn.status().to_string();
  EXPECT_EQ(torn.value().entries.size(), 3u);
  EXPECT_EQ(torn.value().skipped_torn, 1);

  // A malformed line anywhere *else* means the file is not a ledger.
  std::ofstream(path, std::ios::app) << "\n{\"schema\": \"zapc.obs.ledger."
                                        "v1\", \"op\": 4, \"kind\": \"ckpt\","
                                        " \"outcome\": \"ok\"}\n";
  EXPECT_FALSE(Ledger::load(path).is_ok());
}

TEST(Ledger, WriteFileDumpsInMemoryEntries) {
  const std::string path = ::testing::TempDir() + "critpath_ledger_dump.jsonl";
  Ledger led;  // in-memory
  EXPECT_FALSE(led.persistent());
  LedgerEntry e;
  e.op = 5;
  e.kind = "restart";
  e.outcome = "ok";
  ASSERT_TRUE(led.append(e).is_ok());
  ASSERT_TRUE(led.write_file(path).is_ok());
  auto loaded = Ledger::load(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().entries.size(), 1u);
  EXPECT_EQ(loaded.value().entries[0].kind, "restart");
}

// ---- Acceptance: slow node dominates the attributed critical path -----------

net::IpAddr vip(u8 i) { return net::IpAddr(10, 79, 0, i); }

/// Four agents, one pod each; node n2 runs at 3x cost.  The attribution
/// must (a) sum its segments to the downtime within 1%, and (b) hand the
/// plurality of the downtime to the slow node's pod, in a costed
/// checkpoint phase — the same scenario zapc-top --check stages.
TEST(CritPathAcceptance, SlowNodePodHoldsPluralityOfDowntime) {
  fault::injector().clear();
  os::Cluster cl;
  core::Trace trace;
  os::Node& mgr_node = cl.add_node("mgr");
  std::vector<std::unique_ptr<core::Agent>> agents;
  std::vector<core::Manager::Target> targets;
  for (int i = 0; i < 4; ++i) {
    os::Node& n = cl.add_node("n" + std::to_string(i + 1));
    agents.push_back(std::make_unique<core::Agent>(
        n, core::Agent::kDefaultPort, core::CostModel{}, &trace));
    std::string pod = "p" + std::to_string(i + 1);
    pod::Pod& p = agents.back()->create_pod(vip(static_cast<u8>(i + 1)), pod);
    p.spawn(std::make_unique<test::EchoServer>(5000));
    targets.push_back({agents.back()->addr(), pod, "san://ckpt/" + pod});
  }
  core::Manager manager(mgr_node, &trace);
  obs::Ledger ledger;
  manager.set_ledger(&ledger);
  cl.run_for(50 * sim::kMillisecond);

  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::SLOW_NODE;
  slow.node = "n2";
  slow.multiplier = 3.0;
  fault::injector().arm(slow);

  core::Manager::CheckpointReport report;
  bool done = false;
  core::Manager::CkptOptions opts;
  opts.heartbeat_us = 5 * sim::kMillisecond;
  manager.checkpoint(targets, core::CkptMode::SNAPSHOT,
                     [&](core::Manager::CheckpointReport r) {
                       report = std::move(r);
                       done = true;
                     },
                     opts);
  for (int i = 0; i < 20000 && !done; ++i) cl.run_for(sim::kMillisecond);
  fault::injector().clear();
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.ok) << report.error;

  auto res = attribute_op(trace.recorder().spans(), report.op_id);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const OpAttribution& a = res.value();
  ASSERT_GT(a.downtime_us, 0u);

  // (a) Exact accounting: within 1% (by construction, exactly).
  Time sum = 0;
  for (const CritSegment& s : a.segments) sum += s.duration();
  const Time diff =
      sum > a.downtime_us ? sum - a.downtime_us : a.downtime_us - sum;
  EXPECT_LE(diff * 100, a.downtime_us)
      << "segments sum to " << sum << "us, downtime " << a.downtime_us;

  // (b) The slow node's pod gates the op and holds the plurality.
  EXPECT_EQ(a.critical_pod, "p2");
  const Time p2 = a.pod_critical_us("p2");
  for (const char* other : {"p1", "p3", "p4"}) {
    EXPECT_GT(p2, a.pod_critical_us(other)) << other;
  }
  // Its costed phase (not an edge, not coordination) is the headline.
  EXPECT_EQ(a.critical_phase.rfind("ckpt.", 0), 0u) << a.critical_phase;
  EXPECT_GT(a.critical_phase_us, 0u);
  // The gate has no done-side slack; everyone else has some.
  for (const PodSlack& ps : a.slack) {
    if (ps.pod == "p2") {
      EXPECT_EQ(ps.slack_us, 0u);
    } else {
      EXPECT_GT(ps.slack_us, 0u) << ps.pod;
    }
  }

  // The Manager's ledger captured the op with the same attribution.
  ASSERT_EQ(ledger.entries().size(), 1u);
  const LedgerEntry& le = ledger.entries().back();
  EXPECT_EQ(le.op, report.op_id);
  EXPECT_EQ(le.outcome, "ok");
  EXPECT_EQ(le.pods, 4u);
  ASSERT_TRUE(le.has_attrib);
  EXPECT_EQ(le.attrib.critical_pod, "p2");
  EXPECT_FALSE(le.phase_us.empty());
}

}  // namespace
}  // namespace zapc::obs
