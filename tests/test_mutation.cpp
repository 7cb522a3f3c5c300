// Seeded mutation harness for the binary strict readers: every protocol
// message type and every checkpoint-image record, mutated by one to three
// byte flips, inserts or deletes.  A strict message reader never throws
// and either rejects a mutant with Err::PROTO or reads it as the one value
// whose encoding is exactly the mutant's bytes.  A reader that tolerates a
// trailing byte, or map keys out of order, reads some mutant it cannot
// re-encode, and fails here.  The seed budget is fixed, so a failure
// replays by its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/image.h"
#include "core/protocol.h"
#include "tests/helpers.h"
#include "util/rng.h"

namespace zapc {
namespace {

constexpr u64 kSeedsPerInput = 1000;

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

net::SockAddr addr(u8 last, u16 port) {
  return net::SockAddr{net::IpAddr(10, 0, 0, last), port};
}

/// `in` after one to three random byte flips, inserts or deletes.
Bytes mutate(Bytes in, Rng& rng) {
  const u64 edits = 1 + rng.below(3);
  for (u64 i = 0; i < edits; ++i) {
    const u64 op = in.empty() ? 1 : rng.below(3);
    const auto at = static_cast<long>(rng.below(in.size() + (op == 1)));
    if (op == 0) {
      in[at] ^= static_cast<u8>(1 + rng.below(255));
    } else if (op == 1) {
      in.insert(in.begin() + at, static_cast<u8>(rng.below(256)));
    } else {
      in.erase(in.begin() + at);
    }
  }
  return in;
}

ckpt::NetMeta meta() {
  ckpt::NetMeta m;
  m.pod_vip = net::IpAddr(10, 0, 0, 1);
  ckpt::NetMetaEntry e;
  e.sock = 7;
  e.proto = net::Proto::TCP;
  e.source = addr(1, 5000);
  e.target = addr(2, 41000);
  e.state = ckpt::ConnState::HALF_DUPLEX;
  e.role = ckpt::PeerRole::ACCEPT;
  e.pcb_sent = 1000;
  e.pcb_acked = 900;
  e.pcb_recv = 2000;
  e.discard_send = 55;
  e.redirect_expected = true;
  m.entries.push_back(e);
  e.sock = 3;
  e.proto = net::Proto::UDP;
  e.state = ckpt::ConnState::LISTENER;
  m.entries.push_back(e);
  return m;
}

/// One fully populated instance of every message type (both shapes of
/// EPILOGUE_DONE), each with its reader.
struct Msg {
  std::string name;
  Bytes bytes;
  Status (*reread)(const Bytes& in, Bytes& out);
};

template <class M>
Msg msg(std::string name, const M& m) {
  return Msg{std::move(name), core::encode(m),
             [](const Bytes& in, Bytes& out) {
               auto back = core::decode<M>(in);
               if (back) out = core::encode(back.value());
               return back.status();
             }};
}

std::vector<Msg> messages() {
  core::CheckpointCmd cc;
  cc.op_id = 0x0102030405060708;
  cc.parent_span = 17;
  cc.pod_name = "pod-a";
  cc.dest_uri = "san://ckpt/a";
  cc.mode = core::CkptMode::MIGRATE;
  cc.redirect_send_queues = true;
  cc.fs_snapshot = true;
  cc.peer_agents = {{net::IpAddr(10, 0, 0, 2), addr(20, 7000)},
                    {net::IpAddr(10, 0, 0, 3), addr(30, 7001)}};
  cc.incremental = true;
  cc.chain_cap = 5;
  cc.codec_flags = 3;
  cc.pipelined = true;
  cc.barrier_wait_us = 1000000;
  cc.heartbeat_us = 50000;
  cc.cow = true;
  cc.drain_wait_us = 2000000;
  core::CkptDone cd;
  cd.op_id = 9;
  cd.pod_name = "pod-a";
  cd.error = "barrier timeout";
  cd.image_bytes = 1 << 24;
  cd.network_bytes = 4096;
  cd.total_us = 123456;
  cd.logical_bytes = 1 << 25;
  cd.delta_seq = 2;
  cd.transient = true;
  cd.suspend_us = 11;
  cd.netckpt_us = 22;
  cd.standalone_us = 33;
  cd.barrier_us = 44;
  cd.drain_pending = true;
  cd.cowmark_us = 55;
  core::EpilogueDone drain;
  drain.op_id = 42;
  drain.pod_name = "pod-a";
  drain.ok = true;
  drain.image_bytes = 1 << 20;
  drain.epilogue_us = 5000;
  drain.dirtied_bytes = 64;
  drain.throttled_us = 100;
  drain.contended_us = 200;
  drain.granted_bps = 300;
  core::EpilogueDone lazy = drain;
  lazy.error = "fill failed";
  lazy.lazy_bytes = 98765;
  lazy.faults = 7;
  lazy.fault_bytes = 4096;
  core::RestartCmd rc;
  rc.op_id = 99;
  rc.parent_span = 18;
  rc.pod_name = "pod-b";
  rc.source_uri = "stream://b";
  rc.meta = meta();
  rc.locations = {{net::IpAddr(10, 0, 0, 1), net::IpAddr(192, 168, 0, 1)},
                  {net::IpAddr(10, 0, 0, 2), net::IpAddr(192, 168, 0, 2)}};
  rc.stream_wait_us = 300000;
  rc.heartbeat_us = 40000;
  rc.replace_existing = true;
  rc.pipelined = true;
  rc.lazy = true;
  rc.lazy_hot_permille = 125;
  rc.lazy_wait_us = 5000000;
  core::RestartDone rd;
  rd.op_id = 10;
  rd.pod_name = "pod-b";
  rd.ok = true;
  rd.error = "none";
  rd.connectivity_us = 101;
  rd.net_restore_us = 102;
  rd.total_us = 103;
  rd.transient = true;
  rd.standalone_us = 104;
  rd.lazy_pending = true;
  rd.downtime_us = 105;
  rd.hot_bytes = 106;
  rd.lazy_bytes = 107;
  rd.fetch_us = 108;
  static const Bytes chunk = text("chunk bytes");
  return {
      msg("checkpoint_cmd", cc),
      msg("meta_report", core::MetaReport{7, "pod-a", meta(), 1234}),
      msg("continue", core::ContinueMsg{8, 77}),
      msg("ckpt_done", cd),
      msg("epilogue_done_drain", drain),
      msg("epilogue_done_lazy", lazy),
      msg("restart_cmd", rc),
      msg("restart_done", rd),
      msg("stream_open", core::StreamOpen{11, "tag-1"}),
      msg("stream_chunk",
          core::StreamChunk{"tag-1", ByteView{chunk.data(), chunk.size()}}),
      msg("stream_close", core::StreamClose{"tag-1"}),
      msg("redirect_data",
          core::RedirectData{12, net::IpAddr(10, 0, 0, 2), addr(2, 41000),
                             addr(1, 5000), 900, text("in flight")}),
      msg("abort", core::AbortMsg{13, "node lost"}),
      msg("heartbeat",
          core::HeartbeatMsg{14, "pod-a", "ckpt.standalone", 5555, 3}),
      msg("progress", core::ProgressMsg{15, "pod-a", "ckpt.stream", 6666,
                                        1000, 4000, 250000, 12}),
      msg("health_query", core::HealthQuery{16}),
      msg("health_snapshot", core::HealthSnapshotMsg{17, "{\"ok\":true}"}),
      msg("supervise_cmd", core::SuperviseCmd{20000}),
  };
}

ckpt::ProcessImage process(i32 vpid) {
  ckpt::ProcessImage p;
  p.vpid = vpid;
  p.kind = "test.counter";
  p.exited = true;
  p.exit_code = -3;
  p.next_fd = 6;
  p.program_state = text("state");
  p.fds = {{3, 7}, {5, 9}};
  p.timer_remaining = {{1, 5000}, {4, -20}};
  p.region_gen_counter = 12;
  p.regions["heap"] = RegionBuf(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  p.regions["zero"] = RegionBuf::zeros(16);
  p.manifest["heap"] = ckpt::RegionMeta{11, 8, 300};
  p.manifest["stack"] = ckpt::RegionMeta{4, 32, 7};
  p.manifest["zero"] = ckpt::RegionMeta{9, 16, 0};
  return p;
}

/// Every record type: a delta image under the plain codec with sockets,
/// a device and redirected data, and an image under zero elision and
/// dedup (zero and reference records).
std::vector<Bytes> images() {
  ckpt::PodImage plain;
  plain.header.pod_name = "pod-a";
  plain.header.vip = net::IpAddr(10, 0, 0, 1);
  plain.header.next_vpid = 3;
  plain.header.time_virt = true;
  plain.header.ckpt_virtual_time = 987654321;
  plain.header.time_delta = -4242;
  plain.header.codec_flags = ckpt::kCodecDelta;
  plain.header.delta_seq = 2;
  plain.header.base_uri = "san://ckpt/a.base";
  plain.meta = meta();
  ckpt::SocketImage s;
  s.old_id = 7;
  s.proto = net::Proto::TCP;
  for (std::size_t i = 0; i < s.params.size(); ++i) {
    s.params[i] = static_cast<i64>(i) * 1000 - 3;
  }
  s.local = addr(1, 5000);
  s.remote = addr(2, 41000);
  s.bound = s.owns_port = s.connecting = s.connected = true;
  s.shut_rd = s.shut_wr = s.peer_closed = true;
  s.backlog = 16;
  s.recv_queue.push_back(ckpt::SavedRecvItem{text("queued"), s.remote, false});
  s.recv_queue.push_back(ckpt::SavedRecvItem{text("!"), s.remote, true});
  s.send_queue = text("unacked data");
  s.send_queue_redirected = true;
  s.pcb_sent = 1000;
  s.pcb_acked = 900;
  s.pcb_recv = 2000;
  s.raw_proto = 89;
  plain.sockets.push_back(s);
  plain.has_gm_device = true;
  plain.gm_state = text("gm port state");
  plain.redirected_recv[7] = text("redirected");
  plain.redirected_recv[9] = text("more");
  plain.processes.push_back(process(1));

  ckpt::PodImage codec;
  codec.header.pod_name = "pod-c";
  codec.header.vip = net::IpAddr(10, 0, 0, 3);
  codec.header.codec_flags = ckpt::kCodecZeroElide | ckpt::kCodecDedup;
  codec.meta.pod_vip = codec.header.vip;
  codec.processes.push_back(process(1));
  codec.processes.push_back(process(2));
  return {ckpt::encode_image(plain), ckpt::encode_image(codec)};
}

TEST(Mutation, MessageReadersRejectOrReencodeEveryMutant) {
  for (const Msg& m : messages()) {
    u64 accepted = 0;
    for (u64 seed = 1; seed <= kSeedsPerInput; ++seed) {
      Rng rng(seed);
      const Bytes mutant = mutate(m.bytes, rng);
      Bytes back;
      Status st = Status::ok();
      ASSERT_NO_THROW(st = m.reread(mutant, back))
          << m.name << " seed " << seed;
      if (st) {
        ++accepted;
        EXPECT_EQ(back, mutant) << m.name << " seed " << seed
                                << ": read a mutant it cannot re-encode";
      } else {
        EXPECT_EQ(st.err(), Err::PROTO) << m.name << " seed " << seed;
      }
    }
    EXPECT_LT(accepted, kSeedsPerInput) << m.name;
  }
}

using Records = std::vector<std::pair<RecordTag, Bytes>>;

Records records_of(const Bytes& image) {
  Records out;
  (void)test::reframe_records(image, [&](RecordTag tag, Bytes& payload) {
    out.emplace_back(tag, payload);
  });
  return out;
}

// The image reader is held to a record-level property: it reads some
// mutants that are no image's encoding (region codec records against the
// header's codec flags, redirected-queue records out of socket order), so
// an accepted mutant's re-encoding need only hold the mutated record
// byte for byte, and read back to itself.
TEST(Mutation, ImageReaderRejectsOrReencodesEveryReframedRecord) {
  for (const Bytes& image : images()) {
    // Record i's payload mutated, the image framed anew with valid CRCs,
    // so the record reader passes it on to the payload readers.
    const std::size_t records = records_of(image).size();
    for (std::size_t i = 0; i < records; ++i) {
      for (u64 seed = 1; seed <= kSeedsPerInput / 4; ++seed) {
        Rng rng(seed * 1000 + i);
        std::size_t k = 0;
        const Bytes mutant =
            test::reframe_records(image, [&](RecordTag, Bytes& payload) {
              if (k++ == i) payload = mutate(std::move(payload), rng);
            });
        const auto mutated = records_of(mutant)[i];
        const std::string where = std::string(record_tag_name(mutated.first)) +
                                  " record " + std::to_string(i) + " seed ";
        Result<ckpt::PodImage> back = Status(Err::INVALID, "unread");
        ASSERT_NO_THROW(back = ckpt::decode_image(mutant)) << where << seed;
        if (!back) {
          EXPECT_EQ(back.err(), Err::PROTO)
              << where << seed << ": " << back.status().to_string();
          continue;
        }
        const Bytes once = ckpt::encode_image(back.value());
        const Records again = records_of(once);
        EXPECT_NE(std::find(again.begin(), again.end(), mutated), again.end())
            << where << seed << ": read a record it cannot re-encode";
        auto twice = ckpt::decode_image(once);
        ASSERT_TRUE(twice.is_ok()) << where << seed;
        EXPECT_TRUE(ckpt::encode_image(twice.value()) == once)
            << where << seed << ": re-encoding does not read back to itself";
      }
    }
  }
}

}  // namespace
}  // namespace zapc
