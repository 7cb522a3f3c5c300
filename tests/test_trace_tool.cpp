// Offline trace analyzer (tools/zapc-trace): document loading, per-op
// grouping, timeline rendering, and the protocol-invariant validator —
// including that a deliberately corrupted timeline FAILS validation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/event.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tools/trace_analysis.h"

namespace zapc::tools {
namespace {

namespace ev = obs::ev;

/// A keyed protocol event naming one pod: `<name> pod=<pod>`.
std::string keyed(std::string_view name, const char* pod) {
  return ev::Text(name).kv(ev::kPod, pod);
}

/// A well-formed coordinated checkpoint: Manager root + continue, one
/// agent with NETWORK_FIRST phases, resume parented under the continue,
/// and a matched pair of restored sockets.
obs::SpanRecorder good_checkpoint(obs::OpId op) {
  obs::SpanRecorder rec;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  obs::SpanId net =
      rec.begin_at(120, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(140, net);
  obs::SpanId sa =
      rec.begin_at(140, "ckpt.standalone", "agent@n1", aroot, op);
  obs::SpanId cont =
      rec.event_at(150, "manager", std::string(ev::kContinue), root, op);
  rec.end_at(400, sa);
  rec.event_at(410, "agent@n1", keyed(ev::kResume, "p0"), cont, op);
  rec.end_at(420, aroot);
  rec.end_at(450, root);
  return rec;
}

TEST(TraceAnalysis, GroupsRecordsByOpAndDropsOplessOnes) {
  obs::SpanRecorder rec;
  rec.begin_at(1, "noise", "x");  // op-less
  rec.begin_at(2, "mgr.ckpt", "manager", 0, 7);
  rec.begin_at(3, "mgr.restart", "manager", 0, 9);
  auto ops = group_by_op(rec.spans());
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op, 7u);
  EXPECT_EQ(ops[1].op, 9u);
  EXPECT_EQ(ops[0].records.size(), 1u);
}

TEST(TraceAnalysis, GoodTimelineValidatesClean) {
  obs::SpanRecorder rec = good_checkpoint(3);
  auto bad = validate_ops(rec.spans());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(TraceAnalysis, TimelineRenderShowsTree) {
  obs::SpanRecorder rec = good_checkpoint(3);
  auto ops = group_by_op(rec.spans());
  ASSERT_EQ(ops.size(), 1u);
  std::string out = render_op_timeline(ops[0]);
  EXPECT_NE(out.find("op 3"), std::string::npos);
  EXPECT_NE(out.find("mgr.continue"), std::string::npos);
  EXPECT_NE(out.find("agent.resume"), std::string::npos);
  // Child phases are indented deeper than the agent root.
  EXPECT_NE(out.find("  ckpt.netckpt"), std::string::npos);
}

TEST(TraceAnalysis, DoubleContinueIsAViolation) {
  obs::SpanRecorder rec = good_checkpoint(3);
  // Corrupt: a second continue.
  rec.event_at(160, "manager", std::string(ev::kContinue), 0, 3);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("mgr.continue"), std::string::npos);
}

TEST(TraceAnalysis, MissingContinueIsAViolation) {
  obs::SpanRecorder rec;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, 4);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());

  // A snapshot (open spans allowed) may cut an op before its barrier...
  ValidateOptions opts;
  opts.allow_open_spans = true;
  EXPECT_TRUE(validate_ops(rec.spans(), opts).empty());
  // ...but an op that ended owes it.
  rec.end_at(200, root);
  bad = validate_ops(rec.spans(), opts);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad.front().find("mgr.continue"), std::string::npos);
}

TEST(TraceAnalysis, ResumeBeforeContinueIsAViolation) {
  obs::SpanRecorder rec;
  obs::OpId op = 5;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId cont =
      rec.event_at(300, "manager", std::string(ev::kContinue), root, op);
  rec.event_at(200, "agent@n1", keyed(ev::kResume, "p0"), cont, op);
  rec.end_at(400, root);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("before mgr.continue"), std::string::npos);
}

TEST(TraceAnalysis, UnparentedResumeIsAViolation) {
  obs::SpanRecorder rec;
  obs::OpId op = 5;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  rec.event_at(300, "manager", std::string(ev::kContinue), root, op);
  rec.event_at(400, "agent@n1", keyed(ev::kResume, "p0"), root, op);
  rec.end_at(500, root);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("not parented"), std::string::npos);
}

TEST(TraceAnalysis, NetworkLastOrderingFlaggedUnlessAllowed) {
  obs::SpanRecorder rec;
  obs::OpId op = 6;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  obs::SpanId sa =
      rec.begin_at(120, "ckpt.standalone", "agent@n1", aroot, op);
  rec.end_at(200, sa);
  obs::SpanId net =
      rec.begin_at(200, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(220, net);
  rec.event_at(230, "manager", std::string(ev::kContinue), root, op);
  rec.end_at(240, aroot);
  rec.end_at(250, root);

  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("NETWORK_FIRST"), std::string::npos);
}

TEST(TraceAnalysis, OpenSpanIsAViolationUnlessAllowed) {
  obs::SpanRecorder rec = good_checkpoint(3);
  rec.begin_at(500, "ckpt.barrier", "agent@n1", 0, 3);  // never ended
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("still open"), std::string::npos);

  // Postmortems snapshot mid-failure; their open spans are legitimate.
  ValidateOptions opts;
  opts.allow_open_spans = true;
  EXPECT_TRUE(validate_ops(rec.spans(), opts).empty());
}

TEST(TraceAnalysis, AbortWithoutPostmortemMarkerIsAViolation) {
  // The Manager closed the op past its continue, but pod p0's DONE never
  // arrived: the op failed, so its failure must have been recorded.
  obs::SpanRecorder rec;
  obs::OpId op = 9;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  rec.event_at(110, "agent@n1", keyed(ev::kSuspend, "p0"), aroot, op);
  rec.event_at(150, "manager", std::string(ev::kContinue), root, op);
  rec.end_at(190, aroot);
  rec.end_at(210, root);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("op.fail"), std::string::npos);

  // The op.fail marker obs::dump_op_failure emits satisfies it.
  rec.event_at(205, "manager",
               ev::Text(ev::kOpFail).kv(ev::kKind, "ckpt_fail").why("lost"),
               0, op);
  EXPECT_TRUE(validate_ops(rec.spans()).empty());
}

/// A well-formed COW checkpoint: the mark sits inside the stop-the-world
/// window, the drain starts only after the continue AND the pod's
/// resume, and the manager records the epilogue receipt after the drain
/// span closed.  Knobs deform it into each violation.
struct CowTimeline {
  obs::Time drain_start = 180;
  bool epilogue_receipt = true;
  bool drain_grant = true;  // the drain's agent.qos receipt
  obs::Time rtx_at = 0;     // 0 = no retransmit event
};

void cow_checkpoint(obs::SpanRecorder& rec, obs::OpId op,
                    const CowTimeline& t = {}) {
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  rec.event_at(110, "agent@n1", keyed(ev::kSuspend, "p0"), aroot, op);
  obs::SpanId net =
      rec.begin_at(120, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(140, net);
  obs::SpanId cm =
      rec.begin_at(140, "ckpt.cowmark", "agent@n1", aroot, op);
  rec.end_at(150, cm);
  obs::SpanId cont =
      rec.event_at(160, "manager", std::string(ev::kContinue), root, op);
  rec.event_at(170, "agent@n1", keyed(ev::kResume, "p0"), cont, op);
  rec.event_at(175, "manager", keyed(ev::kDone, "p0"), root, op);
  obs::SpanId drain =
      rec.begin_at(t.drain_start, "ckpt.drain", "agent@n1", aroot, op);
  if (t.drain_grant) {
    rec.event_at(t.drain_start, "agent@n1",
                 ev::Text(ev::kQos).kv(ev::kLeg, ev::kLegDrain), drain, op);
  }
  if (t.rtx_at != 0) {
    rec.event_at(t.rtx_at, "agent@n1",
                 ev::Text(ev::kFirstRtx)
                     .kv(ev::kLocal, "10.0.0.1:5000")
                     .kv(ev::kRemote, "10.0.0.2:6000")
                     .kv(ev::kPod, "p0"),
                 aroot, op);
  }
  rec.end_at(400, drain);
  if (t.epilogue_receipt) {
    rec.event_at(410, "manager", keyed(ev::kEpilogue, "p0"), root, op);
  }
  rec.end_at(410, aroot);
  rec.end_at(420, root);
}

obs::SpanRecorder cow_checkpoint(obs::OpId op, const CowTimeline& t = {}) {
  obs::SpanRecorder rec;
  cow_checkpoint(rec, op, t);
  return rec;
}

bool any_mentions(const std::vector<std::string>& bad,
                  const std::string& needle) {
  for (const std::string& b : bad) {
    if (b.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(TraceAnalysis, CowTimelineValidatesClean) {
  obs::SpanRecorder rec = cow_checkpoint(20);
  auto bad = validate_ops(rec.spans());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(TraceAnalysis, DrainBeforeContinueIsAViolation) {
  obs::SpanRecorder rec = cow_checkpoint(21, {.drain_start = 150});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "before mgr.continue")) << bad.front();
}

TEST(TraceAnalysis, DrainBeforePodResumeIsAViolation) {
  obs::SpanRecorder rec = cow_checkpoint(22, {.drain_start = 165});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "before its pod resumed")) << bad.front();
}

TEST(TraceAnalysis, UnacknowledgedDrainIsAViolation) {
  obs::SpanRecorder rec = cow_checkpoint(23, {.epilogue_receipt = false});
  auto bad = validate_ops(rec.spans());
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "ckpt.drain for pod p0 closed but the "
                                "manager never recorded its epilogue "
                                "receipt"))
      << bad.front();
}

TEST(TraceAnalysis, RetransmitInsideStopTheWorldWindowIsAViolation) {
  // A retransmit after the resume is the app legitimately waking up.
  obs::SpanRecorder ok = cow_checkpoint(24, {.rtx_at = 300});
  EXPECT_TRUE(validate_ops(ok.spans()).empty());
  // One inside the suspend→resume window means the simulation charged a
  // send to a frozen pod.
  obs::SpanRecorder rec = cow_checkpoint(25, {.rtx_at = 140});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "stop-the-world")) << bad.front();
}

/// A well-formed pipelined lazy restart of `pods`, all on one agent
/// (n3): per pod, the restore leg's QoS grant inside the hot-set phase,
/// the resume announcing two cold regions of vpid 1, a lazy window that
/// fills both, and the Manager's done and epilogue receipts.  Knobs
/// deform it into each lazy-restore violation.
struct LazyTimeline {
  std::vector<std::string> pods = {"p0"};
  obs::Time stream_at = 220;   // first restore-leg grant
  obs::Time resume_at = 300;   // agent.resume
  obs::Time lazy_start = 300;  // restart.lazy opens
  u64 announced = 2;           // agent.resume lazy_regions
  bool window = true;          // record the restart.lazy span at all
  bool refill_heap = false;    // a demand fault on an already-filled region
  bool epilogue_receipt = true;
};

void lazy_restart(obs::SpanRecorder& rec, obs::OpId op,
                  const LazyTimeline& t = {}) {
  const std::string who = "agent@n3";
  obs::SpanId root = rec.begin_at(100, "mgr.restart", "manager", 0, op);
  for (const std::string& pod : t.pods) {
    obs::SpanId aroot = rec.begin_at(110, "restart", who, root, op);
    rec.event_at(110, who,
                 ev::Text(ev::kCreate).kv(ev::kPod, pod).kv("bytes", 4096),
                 aroot, op);
    obs::SpanId standalone =
        rec.begin_at(200, "restart.standalone", who, aroot, op);
    rec.event_at(t.stream_at, who,
                 ev::Text(ev::kQos).kv(ev::kLeg, ev::kLegRestore),
                 standalone, op);
    rec.end_at(280, standalone);
    rec.event_at(t.resume_at, who,
                 ev::Text(ev::kResume)
                     .kv(ev::kPod, pod)
                     .kv(ev::kLazyRegions, t.announced),
                 aroot, op);
    rec.event_at(310, "manager", keyed(ev::kDone, pod.c_str()), root, op);
    if (t.window) {
      obs::SpanId lz = rec.begin_at(t.lazy_start, "restart.lazy", who,
                                    aroot, op);
      auto fill = [&](std::string_view name, obs::Time at, const char* r) {
        rec.event_at(at, who,
                     ev::Text(name)
                         .kv(ev::kPod, pod)
                         .kv(ev::kVpid, 1)
                         .kv(ev::kRegion, r),
                     lz, op);
      };
      fill(ev::kLazyFill, 320, "heap");
      fill(ev::kLazyFill, 340, "stack");
      if (t.refill_heap) fill(ev::kLazyFault, 350, "heap");
      rec.end_at(400, lz);
    }
    rec.end_at(400, aroot);
    if (t.epilogue_receipt) {
      rec.event_at(410, "manager", keyed(ev::kEpilogue, pod.c_str()), root,
                   op);
    }
  }
  rec.end_at(420, root);
}

/// Runs the lazy fixture deformed by `t` and returns its violations.
std::vector<std::string> lazy_violations(const LazyTimeline& t) {
  obs::SpanRecorder rec;
  lazy_restart(rec, 40, t);
  return validate_ops(rec.spans());
}

TEST(TraceAnalysis, LazyRestartTimelineValidatesClean) {
  auto bad = lazy_violations({});
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(TraceAnalysis, TwoPodsLazilyRestoredOnOneAgentValidateClean) {
  // Both pods fill region heap and stack of their own vpid 1 from the
  // same agent: bookkeeping keyed by agent would merge them into
  // "restored 2 times" and one announced count.
  auto bad = lazy_violations({.pods = {"p0", "p1"}});
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(TraceAnalysis, HotSetBeforeItsStreamIsAViolation) {
  auto bad = lazy_violations({.stream_at = 290});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "before its pipelined stream started"))
      << bad.front();
}

TEST(TraceAnalysis, ResumeBeforeHotSetIsAViolation) {
  auto bad = lazy_violations({.resume_at = 250});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "resumed before the hot set")) << bad.front();
}

TEST(TraceAnalysis, FillWindowBeforeResumeIsAViolation) {
  auto bad = lazy_violations({.lazy_start = 290});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "window opened before the pod resumed"))
      << bad.front();
}

TEST(TraceAnalysis, RegionRestoredTwiceIsAViolation) {
  auto bad = lazy_violations({.refill_heap = true});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "region 1/heap restored 2 times"))
      << bad.front();
}

TEST(TraceAnalysis, AnnouncedRegionsNotRestoredIsAViolation) {
  auto bad = lazy_violations({.announced = 3});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "announced 3 regions but 2 were restored"))
      << bad.front();
}

TEST(TraceAnalysis, UnacknowledgedLazyWindowIsAViolation) {
  auto bad = lazy_violations({.epilogue_receipt = false});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "restart.lazy for pod p0 closed but the "
                                "manager never recorded its epilogue "
                                "receipt"))
      << bad.front();
}

TEST(TraceAnalysis, LazyWindowNeverClosedIsAViolation) {
  auto bad = lazy_violations({.window = false});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "announced 2 regions but never closed"))
      << bad.front();
}

TEST(TraceAnalysis, DrainOverlappingRestoreStreamNeedsQosReceipt) {
  // A COW drain (op 50, 180..400) overlaps a pipelined restore's hot-set
  // phase (op 51, 200..280): with its share grant recorded it is clean.
  obs::SpanRecorder ok;
  cow_checkpoint(ok, 50);
  lazy_restart(ok, 51);
  auto clean = validate_ops(ok.spans());
  EXPECT_TRUE(clean.empty()) << clean.front();

  obs::SpanRecorder rec;
  cow_checkpoint(rec, 50, {.drain_grant = false});
  lazy_restart(rec, 51);
  auto bad = validate_ops(rec.spans());
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_TRUE(any_mentions(bad, "recorded no QoS share-grant receipt"))
      << bad.front();
}

TEST(TraceAnalysis, RecvAckedInvariantAcrossRestoredPair) {
  auto make = [](u64 recv_a, u64 acked_b) {
    obs::SpanRecorder rec;
    obs::OpId op = 8;
    obs::SpanId root = rec.begin_at(10, "mgr.restart", "manager", 0, op);
    auto restored = [](const char* local, const char* remote, u64 recv,
                       u64 acked) -> std::string {
      return ev::Text(ev::kSockRestored)
          .kv(ev::kLocal, local)
          .kv(ev::kRemote, remote)
          .kv(ev::kRecv, recv)
          .kv(ev::kAcked, acked);
    };
    rec.event_at(20, "agent@n1",
                 restored("10.0.0.1:5000", "10.0.0.2:6000", recv_a, 40),
                 root, op);
    rec.event_at(21, "agent@n2",
                 restored("10.0.0.2:6000", "10.0.0.1:5000", 60, acked_b),
                 root, op);
    rec.end_at(30, root);
    return rec;
  };
  // recv₁(50) ≥ acked₂(50): consistent.
  EXPECT_TRUE(validate_ops(make(50, 50).spans()).empty());
  // recv₁(49) < acked₂(50): the peer believes data was delivered that
  // the restored socket never received — a real loss. Must flag.
  auto bad = validate_ops(make(49, 50).spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("acked"), std::string::npos);
}

TEST(TraceAnalysis, LoadsEvidenceAndPostmortemDocsRejectsOthers) {
  std::string dir = ::testing::TempDir();
  obs::SpanRecorder rec = good_checkpoint(2);

  // zapc.obs.v1 evidence file.
  obs::MetricsRegistry reg;
  obs::Evidence ev{"unit", reg.snapshot(), rec.spans(), {}};
  std::string ev_path = dir + "trace_tool_ev.json";
  std::ofstream(ev_path) << obs::to_json(ev).dump(2);
  auto doc = load_trace_doc(ev_path);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().schema, obs::kSchemaVersion);
  EXPECT_EQ(doc.value().spans.size(), rec.spans().size());
  EXPECT_TRUE(validate_ops(doc.value().spans).empty());

  // Postmortem file.
  obs::Postmortem pm;
  pm.kind = "ckpt_fail";
  pm.op_id = 2;
  pm.phase = "mgr.ckpt.meta_wait";
  pm.spans = rec.spans();
  std::string pm_path = dir + "trace_tool_pm.json";
  std::ofstream(pm_path) << obs::to_json(pm).dump(2);
  auto pdoc = load_trace_doc(pm_path);
  ASSERT_TRUE(pdoc.is_ok()) << pdoc.status().to_string();
  EXPECT_EQ(pdoc.value().name, "ckpt_fail op=2 phase=mgr.ckpt.meta_wait");
  EXPECT_EQ(pdoc.value().spans.size(), rec.spans().size());

  // Unknown schema and malformed JSON are rejected, not crashed on.
  std::string bad_path = dir + "trace_tool_bad.json";
  std::ofstream(bad_path) << R"({"schema":"who.knows.v9"})";
  EXPECT_FALSE(load_trace_doc(bad_path).is_ok());
  std::ofstream(bad_path) << "{not json";
  EXPECT_FALSE(load_trace_doc(bad_path).is_ok());
  EXPECT_FALSE(load_trace_doc(dir + "does_not_exist.json").is_ok());
}

}  // namespace
}  // namespace zapc::tools
