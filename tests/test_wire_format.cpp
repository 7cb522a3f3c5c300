// Golden bytes of every wire format: one fully populated instance of each
// Manager<->Agent message, of each checkpoint image record, of each guest
// program's saved state and of each guest-to-guest message, encoded and
// compared to pinned hex.  Message sizes drive simulated TCP time and
// image sizes drive the cost model, so an encoder change that moves a
// single byte must show up here; a deliberate format change updates the
// pinned hex in the same commit.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/bratu.h"
#include "apps/bt.h"
#include "apps/cpi.h"
#include "apps/ray.h"
#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "core/protocol.h"
#include "gm/device.h"
#include "mpi/comm.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "pod/syscalls.h"
#include "pvm/pvm.h"
#include "tests/scripted_syscalls.h"

namespace zapc {
namespace {

using Named = std::vector<std::pair<std::string, Bytes>>;

std::string hex(const u8* p, std::size_t n) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(digits[p[i] >> 4]);
    s.push_back(digits[p[i] & 0xF]);
  }
  return s;
}

std::string hex(const Bytes& b) { return hex(b.data(), b.size()); }

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

net::SockAddr addr(u8 last, u16 port) {
  return net::SockAddr{net::IpAddr(10, 0, 0, last), port};
}

ckpt::NetMeta golden_meta() {
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
  ckpt::NetMetaEntry l;
  l.sock = 3;
  l.proto = net::Proto::UDP;
  l.source = addr(1, 6000);
  l.state = ckpt::ConnState::LISTENER;
  m.entries.push_back(l);
  return m;
}

core::CheckpointCmd golden_checkpoint_cmd() {
  core::CheckpointCmd m;
  m.op_id = 0x0102030405060708;
  m.parent_span = 17;
  m.pod_name = "pod-a";
  m.dest_uri = "san://ckpt/a";
  m.mode = core::CkptMode::MIGRATE;
  m.redirect_send_queues = true;
  m.fs_snapshot = true;
  m.peer_agents = {{net::IpAddr(10, 0, 0, 2), addr(20, 7000)},
                   {net::IpAddr(10, 0, 0, 3), addr(30, 7001)}};
  m.incremental = true;
  m.chain_cap = 5;
  m.codec_flags = 3;
  m.pipelined = true;
  m.barrier_wait_us = 1000000;
  m.heartbeat_us = 50000;
  m.cow = true;
  m.drain_wait_us = 2000000;
  return m;
}

core::RestartCmd golden_restart_cmd() {
  core::RestartCmd m;
  m.op_id = 99;
  m.parent_span = 18;
  m.pod_name = "pod-b";
  m.source_uri = "stream://b";
  m.meta = golden_meta();
  m.locations = {{net::IpAddr(10, 0, 0, 1), net::IpAddr(192, 168, 0, 1)},
                 {net::IpAddr(10, 0, 0, 2), net::IpAddr(192, 168, 0, 2)}};
  m.stream_wait_us = 300000;
  m.heartbeat_us = 40000;
  m.replace_existing = true;
  m.pipelined = true;
  m.lazy = true;
  m.lazy_hot_permille = 125;
  m.lazy_wait_us = 5000000;
  return m;
}

core::EpilogueDone golden_drain_done() {
  core::EpilogueDone m;
  m.op_id = 42;
  m.pod_name = "pod-a";
  m.ok = true;
  m.error = "";
  m.transient = false;
  m.image_bytes = 1 << 20;
  m.epilogue_us = 5000;
  m.dirtied_bytes = 64;
  m.throttled_us = 100;
  m.contended_us = 200;
  m.granted_bps = 300;
  return m;
}

core::EpilogueDone golden_lazy_done() {
  core::EpilogueDone m = golden_drain_done();
  m.ok = false;
  m.error = "fill failed";
  m.transient = true;
  m.lazy_bytes = 98765;
  m.faults = 7;
  m.fault_bytes = 4096;
  return m;
}

/// Every message type, fully populated, encoded.
Named golden_messages() {
  Named out;
  out.emplace_back("checkpoint_cmd",
                   core::encode(golden_checkpoint_cmd()));
  out.emplace_back("meta_report", core::encode(core::MetaReport{
                                      7, "pod-a", golden_meta(), 1234}));
  out.emplace_back("continue",
                   core::encode(core::ContinueMsg{8, 77}));
  core::CkptDone cd;
  cd.op_id = 9;
  cd.pod_name = "pod-a";
  cd.ok = false;
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
  out.emplace_back("ckpt_done", core::encode(cd));
  out.emplace_back("epilogue_done_drain",
                   core::encode(golden_drain_done()));
  out.emplace_back("epilogue_done_lazy",
                   core::encode(golden_lazy_done()));
  out.emplace_back("restart_cmd",
                   core::encode(golden_restart_cmd()));
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
  out.emplace_back("restart_done", core::encode(rd));
  out.emplace_back("stream_open",
                   core::encode(core::StreamOpen{11, "tag-1"}));
  const Bytes chunk = text("chunk bytes");
  out.emplace_back("stream_chunk",
                   core::encode(core::StreamChunk{
                       "tag-1", ByteView{chunk.data(), chunk.size()}}));
  out.emplace_back("stream_close",
                   core::encode(core::StreamClose{"tag-1"}));
  out.emplace_back("redirect_data",
                   core::encode(core::RedirectData{
                       12, net::IpAddr(10, 0, 0, 2), addr(2, 41000),
                       addr(1, 5000), 900, text("in flight")}));
  out.emplace_back("abort",
                   core::encode(core::AbortMsg{13, "node lost"}));
  out.emplace_back("heartbeat", core::encode(core::HeartbeatMsg{
                                    14, "pod-a", "ckpt.standalone", 5555, 3}));
  out.emplace_back("progress", core::encode(core::ProgressMsg{
                                   15, "pod-a", "ckpt.stream", 6666, 1000,
                                   4000, 250000, 12}));
  out.emplace_back("health_query",
                   core::encode(core::HealthQuery{16}));
  out.emplace_back("health_snapshot",
                   core::encode(
                       core::HealthSnapshotMsg{17, "{\"ok\":true}"}));
  out.emplace_back("supervise_cmd",
                   core::encode(core::SuperviseCmd{20000}));
  return out;
}

ckpt::SocketImage golden_socket() {
  ckpt::SocketImage s;
  s.old_id = 7;
  s.proto = net::Proto::TCP;
  for (std::size_t i = 0; i < s.params.size(); ++i) {
    s.params[i] = static_cast<i64>(i) * 1000 - 3;
  }
  s.local = addr(1, 5000);
  s.remote = addr(2, 41000);
  s.bound = true;
  s.owns_port = true;
  s.listener = false;
  s.backlog = 16;
  s.connecting = true;
  s.connected = true;
  s.shut_rd = true;
  s.shut_wr = true;
  s.peer_closed = true;
  s.recv_queue.push_back(ckpt::SavedRecvItem{text("queued"), addr(2, 41000),
                                             false});
  s.recv_queue.push_back(ckpt::SavedRecvItem{text("!"), addr(2, 41000), true});
  s.send_queue = text("unacked data");
  s.send_queue_redirected = true;
  s.pcb_sent = 1000;
  s.pcb_acked = 900;
  s.pcb_recv = 2000;
  s.raw_proto = 89;
  return s;
}

ckpt::ProcessImage golden_process(i32 vpid) {
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

/// A full delta image under the plain codec: every record type except the
/// codec's zero and reference records, and a zero view written out raw.
ckpt::PodImage golden_plain_image() {
  ckpt::PodImage img;
  img.header.pod_name = "pod-a";
  img.header.vip = net::IpAddr(10, 0, 0, 1);
  img.header.next_vpid = 3;
  img.header.time_virt = true;
  img.header.ckpt_virtual_time = 987654321;
  img.header.time_delta = -4242;
  img.header.codec_flags = ckpt::kCodecDelta;
  img.header.delta_seq = 2;
  img.header.base_uri = "san://ckpt/a.base";
  img.meta = golden_meta();
  img.sockets.push_back(golden_socket());
  img.has_gm_device = true;
  img.gm_state = text("gm port state");
  img.redirected_recv[7] = text("redirected");
  img.processes.push_back(golden_process(1));
  return img;
}

/// The same process twice under zero elision and dedup: the second
/// process's regions become MEM_REGION_ZERO and MEM_REGION_REF records.
ckpt::PodImage golden_codec_image() {
  ckpt::PodImage img;
  img.header.pod_name = "pod-c";
  img.header.vip = net::IpAddr(10, 0, 0, 3);
  img.header.codec_flags = ckpt::kCodecZeroElide | ckpt::kCodecDedup;
  img.meta.pod_vip = img.header.vip;
  img.processes.push_back(golden_process(1));
  img.processes.push_back(golden_process(2));
  return img;
}

/// Splits an encoded image into its framed records, named
/// "<image>.<index>.<tag>".
Named records_of(const std::string& image, const Bytes& data) {
  Named out;
  RecordReader r(data);
  while (!r.at_end()) {
    auto rec = r.next();
    EXPECT_TRUE(rec.is_ok()) << rec.status().to_string();
    if (!rec) break;
    const RecordView& v = rec.value();
    const u8* begin = v.payload.data - 14;  // tag, version, length
    const u8* end = v.payload.data + v.payload.size + 4;  // crc
    out.emplace_back(image + "." + std::to_string(out.size()) + "." +
                         record_tag_name(v.tag),
                     Bytes(begin, end));
  }
  return out;
}

Named golden_records() {
  Named out = records_of("plain", ckpt::encode_image(golden_plain_image()));
  for (auto& r : records_of("codec", ckpt::encode_image(golden_codec_image()))) {
    out.push_back(std::move(r));
  }
  return out;
}

const std::map<std::string, std::string>& expected_hex() {
  static const std::map<std::string, std::string> kHex = {
      {"checkpoint_cmd",
       "0108070605040302011100000005000000706f642d610c00000073616e3a2f2f"
       "636b70742f61010101020000000200000a1400000a581b0300000a1e00000a59"
       "1b0105000000030000000140420f000000000050c30000000000000180841e00"
       "00000000"},
      {"meta_report",
       "02070000000000000005000000706f642d61500000000100000a020000000700"
       "0000060100000a88130200000a28a00101e803000084030000d0070000370000"
       "000103000000110100000a701700000000000004000000000000000000000000"
       "000000000000d204000000000000"},
      {"continue",
       "0308000000000000004d000000"},
      {"ckpt_done",
       "04090000000000000005000000706f642d61000f000000626172726965722074"
       "696d656f75740000000100000000001000000000000040e20100000000000000"
       "00020000000002000000010b0000000000000016000000000000002100000000"
       "0000002c00000000000000013700000000000000"},
      {"epilogue_done_drain",
       "102a0000000000000005000000706f642d610100000000000000100000000000"
       "881300000000000040000000000000006400000000000000c800000000000000"
       "2c01000000000000"},
      {"epilogue_done_lazy",
       "102a0000000000000005000000706f642d61000b00000066696c6c206661696c"
       "6564010000100000000000881300000000000040000000000000006400000000"
       "000000c8000000000000002c01000000000000cd810100000000000700000000"
       "0000000010000000000000"},
      {"restart_cmd",
       "0563000000000000001200000005000000706f642d620a00000073747265616d"
       "3a2f2f62500000000100000a0200000007000000060100000a88130200000a28"
       "a00101e803000084030000d0070000370000000103000000110100000a701700"
       "000000000004000000000000000000000000000000000000020000000100000a"
       "0100a8c00200000a0200a8c0e093040000000000409c0000000000000101017d"
       "000000404b4c0000000000"},
      {"restart_done",
       "060a0000000000000005000000706f642d6201040000006e6f6e656500000000"
       "0000006600000000000000670000000000000001680000000000000001690000"
       "00000000006a000000000000006b000000000000006c00000000000000"},
      {"stream_open",
       "070b00000000000000050000007461672d31"},
      {"stream_chunk",
       "08050000007461672d310b0000006368756e6b206279746573"},
      {"stream_close",
       "09050000007461672d31"},
      {"redirect_data",
       "0a0c000000000000000200000a0200000a28a00100000a881384030000090000"
       "00696e20666c69676874"},
      {"abort",
       "0b0d00000000000000090000006e6f6465206c6f7374"},
      {"heartbeat",
       "0c0e0000000000000005000000706f642d610f000000636b70742e7374616e64"
       "616c6f6e65b31500000000000003000000"},
      {"progress",
       "0d0f0000000000000005000000706f642d610b000000636b70742e7374726561"
       "6d0a1a000000000000e803000000000000a00f00000000000090d00300000000"
       "000c00000000000000"},
      {"health_query",
       "0e1000000000000000"},
      {"health_snapshot",
       "0f11000000000000000b0000007b226f6b223a747275657d"},
      {"supervise_cmd",
       "11204e000000000000"},
      {"plain.0.image_header",
       "01000000020043000000000000004350415a05000000706f642d610100000a03"
       "00000001b168de3a000000006eefffffffffffff040000000200000011000000"
       "73616e3a2f2f636b70742f612e626173652037e476"},
      {"plain.1.net_meta",
       "09000000020050000000000000000100000a0200000007000000060100000a88"
       "130200000a28a00101e803000084030000d00700003700000001030000001101"
       "00000a701700000000000004000000000000000000000000000000000000da95"
       "1349"},
      {"plain.2.socket_params",
       "050000000200e000000000000000070000000610000000fdffffffffffffffe5"
       "03000000000000cd07000000000000b50b0000000000009d0f00000000000085"
       "130000000000006d17000000000000551b0000000000003d1f00000000000025"
       "230000000000000d27000000000000f52a000000000000dd2e000000000000c5"
       "32000000000000ad36000000000000953a0000000000000100000a8813020000"
       "0a28a00101001000000001010101010200000006000000717565756564020000"
       "0a28a00001000000210200000a28a0010c000000756e61636b65642064617461"
       "01e803000084030000d00700005991c7b78a"},
      {"plain.3.gm_device",
       "0f00000002000d00000000000000676d20706f7274207374617465ef592c93"},
      {"plain.4.redirected_send_q",
       "0d00000002001200000000000000070000000a00000072656469726563746564"
       "996bf9f1"},
      {"plain.5.process",
       "0200000002005600000000000000010000000c000000746573742e636f756e74"
       "657201fdffffff06000000050000007374617465020000000300000007000000"
       "05000000090000000200000001000000881300000000000004000000ecffffff"
       "fffffffffb304379"},
      {"plain.6.region_manifest",
       "1000000002007100000000000000010000000c00000000000000030000000400"
       "0000686561700b00000000000000080000000000000005000000737461636b04"
       "000000000000002000000000000000040000007a65726f090000000000000010"
       "000000000000002c0100000000000007000000000000000000000000000000be"
       "545cd8"},
      {"plain.7.mem_region",
       "0300000002001800000000000000010000000400000068656170080000000102"
       "03040506070895040e52"},
      {"plain.8.mem_region",
       "030000000200200000000000000001000000040000007a65726f100000000000"
       "00000000000000000000000000002d63c351"},
      {"plain.9.image_end",
       "0e0000000200000000000000000051a2feb9"},
      {"codec.0.image_header",
       "01000000020032000000000000004350415a05000000706f642d630300000a01"
       "0000000100000000000000000000000000000000030000000000000000000000"
       "d374fb9f"},
      {"codec.1.net_meta",
       "09000000020008000000000000000300000a00000000f84927bf"},
      {"codec.2.process",
       "0200000002005600000000000000010000000c000000746573742e636f756e74"
       "657201fdffffff06000000050000007374617465020000000300000007000000"
       "05000000090000000200000001000000881300000000000004000000ecffffff"
       "fffffffffb304379"},
      {"codec.3.region_manifest",
       "1000000002007100000000000000010000000c00000000000000030000000400"
       "0000686561700b00000000000000080000000000000005000000737461636b04"
       "000000000000002000000000000000040000007a65726f090000000000000010"
       "000000000000002c0100000000000007000000000000000000000000000000be"
       "545cd8"},
      {"codec.4.mem_region",
       "0300000002001800000000000000010000000400000068656170080000000102"
       "03040506070895040e52"},
      {"codec.5.mem_region_zero",
       "110000000200140000000000000001000000040000007a65726f100000000000"
       "00008884869f"},
      {"codec.6.process",
       "0200000002005600000000000000020000000c000000746573742e636f756e74"
       "657201fdffffff06000000050000007374617465020000000300000007000000"
       "05000000090000000200000001000000881300000000000004000000ecffffff"
       "ffffffff0460ee0d"},
      {"codec.7.region_manifest",
       "1000000002007100000000000000020000000c00000000000000030000000400"
       "0000686561700b00000000000000080000000000000005000000737461636b04"
       "000000000000002000000000000000040000007a65726f090000000000000010"
       "000000000000002c0100000000000007000000000000000000000000000000e8"
       "2dd5d9"},
      {"codec.8.mem_region_ref",
       "1200000002001800000000000000020000000400000068656170010000000400"
       "0000686561708decfa99"},
      {"codec.9.mem_region_zero",
       "110000000200140000000000000002000000040000007a65726f100000000000"
       "000042c92f30"},
      {"codec.10.image_end",
       "0e0000000200000000000000000051a2feb9"},
  };
  return kHex;
}

void expect_golden(const Named& actual) {
  for (const auto& [name, bytes] : actual) {
    auto it = expected_hex().find(name);
    if (it == expected_hex().end()) {
      ADD_FAILURE() << "no pinned bytes for " << name << ": " << hex(bytes);
      continue;
    }
    EXPECT_EQ(hex(bytes), it->second) << name;
  }
}

TEST(WireFormat, MessagesMatchGoldenBytes) {
  const Named msgs = golden_messages();
  EXPECT_EQ(msgs.size(), 18u);  // 17 types, EPILOGUE_DONE in both shapes
  expect_golden(msgs);
}

TEST(WireFormat, ImageRecordsMatchGoldenBytes) {
  const Named recs = golden_records();
  EXPECT_EQ(recs.size(), 21u);
  expect_golden(recs);
}

TEST(WireFormat, GoldenImagesCoverEveryRecordType) {
  std::map<std::string, int> seen;
  for (const auto& [name, bytes] : golden_records()) {
    seen[name.substr(name.rfind('.') + 1)]++;
  }
  for (const char* tag :
       {"image_header", "net_meta", "socket_params", "gm_device",
        "redirected_send_q", "process", "region_manifest", "mem_region",
        "mem_region_zero", "mem_region_ref", "image_end"}) {
    EXPECT_GT(seen[tag], 0) << tag;
  }
}

// ---- Strict decoding ---------------------------------------------------------

template <class M>
Err decode_err(const Bytes& b) {
  return core::decode<M>(b).err();
}

template <class M>
Bytes reencode(const Bytes& b) {
  auto m = core::decode<M>(b);
  return m ? core::encode(m.value()) : Bytes{};
}

struct MsgCodec {
  Err (*decode_err)(const Bytes&);
  Bytes (*reencode)(const Bytes&);
};

template <class M>
MsgCodec codec() {
  return MsgCodec{&decode_err<M>, &reencode<M>};
}

const std::map<std::string, MsgCodec>& msg_codecs() {
  static const std::map<std::string, MsgCodec> kCodecs = {
      {"checkpoint_cmd", codec<core::CheckpointCmd>()},
      {"meta_report", codec<core::MetaReport>()},
      {"continue", codec<core::ContinueMsg>()},
      {"ckpt_done", codec<core::CkptDone>()},
      {"epilogue_done_drain", codec<core::EpilogueDone>()},
      {"epilogue_done_lazy", codec<core::EpilogueDone>()},
      {"restart_cmd", codec<core::RestartCmd>()},
      {"restart_done", codec<core::RestartDone>()},
      {"stream_open", codec<core::StreamOpen>()},
      {"stream_chunk", codec<core::StreamChunk>()},
      {"stream_close", codec<core::StreamClose>()},
      {"redirect_data", codec<core::RedirectData>()},
      {"abort", codec<core::AbortMsg>()},
      {"heartbeat", codec<core::HeartbeatMsg>()},
      {"progress", codec<core::ProgressMsg>()},
      {"health_query", codec<core::HealthQuery>()},
      {"health_snapshot", codec<core::HealthSnapshotMsg>()},
      {"supervise_cmd", codec<core::SuperviseCmd>()},
  };
  return kCodecs;
}

TEST(WireFormat, MessagesRoundTripByteForByte) {
  for (const auto& [name, bytes] : golden_messages()) {
    EXPECT_EQ(msg_codecs().at(name).reencode(bytes), bytes) << name;
  }
}

TEST(WireFormat, CutOrPaddedMessagesFailProto) {
  for (const auto& [name, bytes] : golden_messages()) {
    const MsgCodec& c = msg_codecs().at(name);
    // The one valid prefix: a lazy epilogue without its three counts is
    // a drain's short frame.
    const std::size_t short_frame =
        name == "epilogue_done_lazy" ? bytes.size() - 3 * sizeof(u64) : 0;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      if (short_frame != 0 && cut == short_frame) continue;
      Bytes prefix(bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_EQ(c.decode_err(prefix), Err::PROTO) << name << " cut at " << cut;
    }
    Bytes padded = bytes;
    padded.push_back(0);
    EXPECT_EQ(c.decode_err(padded), Err::PROTO) << name << " padded";
  }
}

TEST(WireFormat, BoolOtherThanZeroOrOneFailsProto) {
  Bytes msg = core::encode(golden_checkpoint_cmd());
  // Type, op id, parent span, pod name "pod-a", dest uri "san://ckpt/a"
  // and mode precede redirect_send_queues.
  const std::size_t at = 1 + 8 + 4 + (4 + 5) + (4 + 12) + 1;
  ASSERT_EQ(msg[at], 1);
  msg[at] = 2;
  EXPECT_EQ(decode_err<core::CheckpointCmd>(msg), Err::PROTO);
}

TEST(WireFormat, MessageOfAnotherTypeFailsProto) {
  const Bytes msg = core::encode(core::ContinueMsg{8, 77});
  EXPECT_EQ(decode_err<core::HealthQuery>(msg), Err::PROTO);
}

TEST(WireFormat, ImagesRoundTripByteForByte) {
  for (const ckpt::PodImage& img :
       {golden_plain_image(), golden_codec_image()}) {
    const Bytes data = ckpt::encode_image(img);
    auto back = ckpt::decode_image(data);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(ckpt::encode_image(back.value()), data);
  }
}

struct Record {
  RecordTag tag;
  u16 version;
  Bytes payload;
};

std::vector<Record> parse_records(const Bytes& data) {
  std::vector<Record> out;
  RecordReader r(data);
  while (!r.at_end()) {
    auto rec = r.next();
    if (!rec) break;
    out.push_back(Record{rec.value().tag, rec.value().version,
                         rec.value().payload.to_bytes()});
  }
  return out;
}

/// `records` framed anew (valid CRCs), with record `i`'s payload replaced.
Bytes reframe(const std::vector<Record>& records, std::size_t i,
              const Bytes& payload) {
  RecordWriter w;
  for (std::size_t k = 0; k < records.size(); ++k) {
    w.write(records[k].tag, records[k].version,
            k == i ? payload : records[k].payload);
  }
  return w.take();
}

TEST(WireFormat, CutOrPaddedRecordPayloadsFailProto) {
  for (const ckpt::PodImage& img :
       {golden_plain_image(), golden_codec_image()}) {
    const std::vector<Record> records =
        parse_records(ckpt::encode_image(img));
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& rec = records[i];
      if (rec.tag == RecordTag::GM_DEVICE) continue;  // opaque bytes
      const std::string name = record_tag_name(rec.tag);
      for (std::size_t cut = 0; cut < rec.payload.size(); ++cut) {
        Bytes prefix(rec.payload.begin(),
                     rec.payload.begin() + static_cast<long>(cut));
        EXPECT_EQ(ckpt::decode_image(reframe(records, i, prefix)).err(),
                  Err::PROTO)
            << name << " cut at " << cut;
      }
      Bytes padded = rec.payload;
      padded.push_back(0);
      EXPECT_EQ(ckpt::decode_image(reframe(records, i, padded)).err(),
                Err::PROTO)
          << name << " padded";
    }
  }
}

TEST(WireFormat, WrongSocketParamCountFailsProto) {
  ckpt::PodImage img = golden_plain_image();
  std::vector<Record> records = parse_records(ckpt::encode_image(img));
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].tag != RecordTag::SOCKET_PARAMS) continue;
    // The count follows the socket id (4) and protocol (1); one fewer
    // parameter, with the payload shortened to match.
    Bytes fewer = records[i].payload;
    fewer[5] = static_cast<u8>(fewer[5] - 1);
    fewer.erase(fewer.begin() + 9, fewer.begin() + 17);
    EXPECT_EQ(ckpt::decode_image(reframe(records, i, fewer)).err(),
              Err::PROTO);
  }
}

TEST(WireFormat, UnknownRecordTagOrVersionFailsProto) {
  const std::vector<Record> records =
      parse_records(ckpt::encode_image(golden_plain_image()));
  std::vector<Record> unknown = records;
  unknown.insert(unknown.end() - 1,
                 Record{static_cast<RecordTag>(4), 2, Bytes{1, 2, 3}});
  EXPECT_EQ(ckpt::decode_image(reframe(unknown, 0, unknown[0].payload)).err(),
            Err::PROTO);
  std::vector<Record> old = records;
  old[0].version = 1;
  EXPECT_EQ(ckpt::decode_image(reframe(old, 0, old[0].payload)).err(),
            Err::PROTO);
}

TEST(WireFormat, BytesAfterTheTerminatorFailProto) {
  Bytes data = ckpt::encode_image(golden_plain_image());
  data.push_back(0);
  EXPECT_EQ(ckpt::decode_image(data).err(), Err::PROTO);
}

// ---- Guest state and guest messages ------------------------------------------
//
// A guest's saved state is part of its PROCESS record, so its bytes count
// toward image sizes; a guest message's bytes cross the simulated network.
// Each state below is reached by stepping the real program against
// scripted syscalls, so every list, queue and partial frame in it is one
// the program built itself.

using test::ScriptedSys;

constexpr u32 kMpiHello = mpi::MpiComm::kReservedTagBase + 1;
constexpr u32 kMpiReduce = mpi::MpiComm::kReservedTagBase + 5;
constexpr u32 kPvmTask = 0x20000002;
constexpr u32 kPvmResult = 0x20000003;

/// `n` copies of `v` as raw doubles: a halo row.
Bytes doubles(std::size_t n, double v) {
  Encoder e;
  for (std::size_t i = 0; i < n; ++i) e.put_f64(v);
  return e.take();
}

Bytes mpi_hello(i32 rank) { return encode_fields(mpi::MpiHello{rank}); }

Bytes pvm_task(u32 id, const apps::RayTask& t) {
  return encode_fields(pvm::Task{id, encode_fields(t)});
}

Bytes pvm_result(u32 id, const apps::RayBand& b) {
  return encode_fields(pvm::TaskResult{id, encode_fields(b)});
}

/// BT rank 1 of 2 past INIT: connected to rank 0, grid initialised.
Bytes golden_bt_state() {
  apps::BtProgram::Params p;
  p.rank = 1;
  p.size = 2;
  p.n = 8;
  p.steps = 3;
  p.alpha_dt = 0.25;
  p.cost_per_row = 5;
  p.workspace_bytes = 4096;
  apps::BtProgram bt(p);
  ScriptedSys sys;
  (void)bt.step(sys);
  return bt.save();
}

/// Bratu rank 0 of 3 waiting in its first residual allreduce: rank 1's
/// part summed in, rank 2's missing; rank 1's next halo row queued in
/// the inbox behind a partial frame; this rank's halo row still in the
/// send queue; a third connection accepted but not yet identified.
Bytes golden_bratu_state() {
  apps::BratuProgram::Params p;
  p.rank = 0;
  p.size = 3;
  p.n = 6;
  p.lambda = 2.0;
  p.iterations = 5;
  p.reduce_every = 1;
  p.tol = 1e-3;
  p.cost_per_row = 3;
  p.workspace_bytes = 8192;
  apps::BratuProgram bratu(p);
  ScriptedSys sys;
  sys.sends_block = true;
  sys.accepts = {10, 11, 12};
  sys.inbound[10] = {ScriptedSys::frame(kMpiHello, mpi_hello(1))};
  sys.inbound[11] = {ScriptedSys::frame(kMpiHello, mpi_hello(2))};
  (void)bratu.step(sys);  // INIT
  (void)bratu.step(sys);  // EXCHANGE_SEND
  sys.inbound[10] = {ScriptedSys::frame(101, doubles(6, 0.5))};
  (void)bratu.step(sys);  // EXCHANGE_RECV
  (void)bratu.step(sys);  // SWEEP
  Bytes partial = ScriptedSys::frame(101, doubles(6, 0.125));
  partial.resize(5);
  sys.inbound[10] = {ScriptedSys::frame(kMpiReduce,
                                        encode_fields(std::vector{0.75})),
                     ScriptedSys::frame(101, doubles(6, 0.25)), partial};
  (void)bratu.step(sys);  // REDUCE, waiting for rank 2
  return bratu.save();
}

/// CPI rank 1 of 2 one work chunk into its first round.
Bytes golden_cpi_state() {
  apps::CpiProgram::Params p;
  p.rank = 1;
  p.size = 2;
  p.intervals = 10;
  p.rounds = 2;
  p.intervals_per_step = 3;
  p.cost_per_step = 7;
  p.workspace_bytes = 2048;
  apps::CpiProgram cpi(p);
  ScriptedSys sys;
  (void)cpi.step(sys);  // INIT
  (void)cpi.step(sys);  // COMPUTE, one chunk
  return cpi.save();
}

/// Ray master of 2 workers after its last band, shutting down: one worker
/// has a poison task stuck in its send queue, an unread message of
/// another tag in its inbox and a partial frame; the other worker hung
/// up, so its poison task stays in the backlog; a stray result waits.
Bytes golden_ray_master_state() {
  apps::RayMaster::Params p;
  p.port = 5600;
  p.workers = 2;
  p.width = 2;
  p.height = 4;
  p.band_rows = 2;
  apps::RayMaster master(p);
  ScriptedSys sys;
  sys.accepts = {10, 11};
  (void)master.step(sys);  // INIT
  (void)master.step(sys);  // SUBMIT
  (void)master.step(sys);  // COLLECT: both bands handed out
  const Bytes rgb = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  sys.inbound[10] = {
      ScriptedSys::frame(kPvmResult, pvm_result(0, apps::RayBand{0, 2, rgb}))};
  sys.inbound[11] = {
      ScriptedSys::frame(kPvmResult, pvm_result(1, apps::RayBand{2, 4, rgb}))};
  (void)master.step(sys);  // COLLECT: both bands back
  sys.sends_block = true;
  Bytes partial = ScriptedSys::frame(0x77, {9, 9, 9});
  partial.resize(6);
  sys.inbound[10] = {
      ScriptedSys::frame(0x77, {9, 9}),
      ScriptedSys::frame(kPvmResult, pvm_result(7, apps::RayBand{0, 1, {5}})),
      partial};
  sys.closed = {11};
  (void)master.step(sys);  // SHUTDOWN
  return master.save();
}

/// Ray worker holding its first task, about to render.
Bytes golden_ray_worker_state() {
  apps::RayWorker::Params p;
  p.master = net::SockAddr{net::IpAddr(10, 77, 0, 9), 5600};
  p.width = 2;
  p.rows_per_step = 1;
  p.cost_per_row = 600;
  p.scene_bytes = 4096;
  apps::RayWorker worker(p);
  ScriptedSys sys;
  (void)worker.step(sys);  // INIT
  sys.inbound[3] = {
      ScriptedSys::frame(kPvmTask, pvm_task(5, apps::RayTask{2, 4, 2, 4}))};
  (void)worker.step(sys);  // GET_TASK
  return worker.save();
}

/// A GM device with two open ports: two unacknowledged sends to one peer,
/// one acknowledged send to another, and one delivered message queued.
/// Also returns the DATA and ACK packets the device put on the wire.
struct GmGolden {
  Bytes state;
  Bytes data;
  Bytes ack;
};
GmGolden golden_gm() {
  sim::Engine engine;
  std::vector<net::Packet> out;
  const net::IpAddr vip(10, 0, 0, 1);
  gm::GmDevice dev(engine, vip,
                   [&out](net::Packet p) { out.push_back(std::move(p)); });
  EXPECT_TRUE(dev.open_port(1).is_ok());
  EXPECT_TRUE(dev.open_port(2).is_ok());
  EXPECT_TRUE(dev.send(1, addr(2, 3), {1, 2, 3}).is_ok());
  EXPECT_TRUE(dev.send(1, addr(2, 3), {4, 5}).is_ok());
  EXPECT_TRUE(dev.send(2, addr(3, 1), {6}).is_ok());
  EXPECT_EQ(out.size(), 3u);
  // Peer 10.0.0.4:5 sends port 2 the same DATA bytes as our first send.
  net::Packet in = out[0];
  in.src = addr(4, 5);
  in.dst = net::SockAddr{vip, 2};
  dev.handle_packet(in);
  EXPECT_EQ(out.size(), 4u);  // its ACK
  // Peer 10.0.0.3:1 acknowledges port 2's send.
  net::Packet ack = out[3];
  ack.src = addr(3, 1);
  ack.dst = net::SockAddr{vip, 2};
  dev.handle_packet(ack);
  return GmGolden{dev.extract_state(), out[0].payload, out[3].payload};
}

Named golden_guest_states() {
  return {{"state.bt", golden_bt_state()},
          {"state.bratu", golden_bratu_state()},
          {"state.cpi", golden_cpi_state()},
          {"state.ray_master", golden_ray_master_state()},
          {"state.ray_worker", golden_ray_worker_state()},
          {"state.gm_device", golden_gm().state}};
}

Named golden_guest_messages() {
  const GmGolden gm = golden_gm();
  return {
      {"msg.mpi_hello", mpi_hello(5)},
      {"msg.mpi_doubles", encode_fields(std::vector{1.5, -0.25, 1e300})},
      {"msg.pvm_task", pvm_task(3, apps::RayTask{4, 8, 640, 480})},
      {"msg.pvm_result", encode_fields(pvm::TaskResult{4, {0xAA, 0xBB}})},
      {"msg.ray_task", encode_fields(apps::RayTask{4, 8, 640, 480})},
      {"msg.ray_band", encode_fields(apps::RayBand{4, 6, {1, 2, 3, 4, 5, 6}})},
      {"msg.gm_data", gm.data},
      {"msg.gm_ack", gm.ack},
      {"msg.results_bt", encode_fields(apps::BtResult{0.5, 0.75, 60})},
      {"msg.results_bratu", encode_fields(apps::BratuResult{1.25e-9, 400})},
      {"msg.results_cpi", encode_fields(apps::CpiResult{3.141592653589793})}};
}

const std::map<std::string, std::string>& expected_guest_hex() {
  static const std::map<std::string, std::string> kHex = {
      {"state.bt",
       "01000000020000000800000003000000000000000000d03f0500000000000000"
       "0010000000000000010000000200000050140200000001014d0a02014d0a0200"
       "00000400000000000000000000000000000000ffffffff000000000000000000"
       "0000000002000000000000000000030000000101010000000000000000000004"
       "0000000000000000000000010000000000000001000000000000000000000000"
       "000000000000"},
      {"state.bratu",
       "00000000030000000600000000000000000000400500000001000000fca9f1d2"
       "4d62503f03000000000000000020000000000000000000000300000050140300"
       "000001014d0a02014d0a03014d0a03000000ffffffff00000000000000000000"
       "0000000a00000038000000660000003000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000000050000006500000030010000006500000030000000000000000000d03f"
       "000000000000d03f000000000000d03f000000000000d03f000000000000d03f"
       "000000000000d03f000b00000000000000000000000000000000030000000001"
       "01010000000c0000000000000000000000000000000003000000010101010000"
       "000000030000000001000c0000000100000001000000408eb040030000000000"
       "00000000000000000000040000000100000001000000808db040ea8ca039593e"
       "29460101"},
      {"state.cpi",
       "01000000020000000a0000000000000002000000030000000000000007000000"
       "000000000008000000000000010000000200000050140200000001014d0a0201"
       "4d0a020000000400000000000000000000000000000000ffffffff0000000000"
       "0000000000000000020000000000000000000300000001010100000000000000"
       "0000000400000000000000000000000100000000000000070000000000000078"
       "5ffd30cb1725400000000000000000"},
      {"state.ray_master",
       "e01502000000020000000400000002000000e015020000000300000001020000"
       "000a000000100000000200002008000000ffffffff0000000006000000770000"
       "00030001000000770000000200000009090001ffffffff0b0000000000000000"
       "0000000000000001000100000001000000ffffffff0000000001000000070000"
       "000d00000000000000010000000100000005010000000400000002000000"},
      {"state.ray_worker",
       "09004d0ae0150200000001000000580200000000000000100000000000000900"
       "4d0ae01503000000000000000000000000000000000102000000000000000500"
       "0000020000000400000004000000020000000c00000000000000000000000000"
       "0000"},
      {"state.gm_device",
       "020000000100000001000000000200000001010000000400000a050003000000"
       "01020302000000010000000200000a030002000000020000000300000a010001"
       "00000001000000020000000400000a0500010000000200000001000000020000"
       "0a03000200000000000000030000000102030100000002000000040502000000"
       "0300000a010000000000"},
      {"msg.mpi_hello",
       "05000000"},
      {"msg.mpi_doubles",
       "03000000000000000000f83f000000000000d0bf9c7500883ce4377e"},
      {"msg.pvm_task",
       "0300000010000000040000000800000080020000e0010000"},
      {"msg.pvm_result",
       "0400000002000000aabb"},
      {"msg.ray_task",
       "040000000800000080020000e0010000"},
      {"msg.ray_band",
       "040000000600000006000000010203040506"},
      {"msg.gm_data",
       "010000000003000000010203"},
      {"msg.gm_ack",
       "0200000000"},
      {"msg.results_bt",
       "000000000000e03f000000000000e83f3c000000"},
      {"msg.results_bratu",
       "3a8c30e28e79153e90010000"},
      {"msg.results_cpi",
       "182d4454fb210940"},
  };
  return kHex;
}

void expect_guest_golden(const Named& actual) {
  for (const auto& [name, bytes] : actual) {
    auto it = expected_guest_hex().find(name);
    if (it == expected_guest_hex().end()) {
      ADD_FAILURE() << "no pinned bytes for " << name << ": " << hex(bytes);
      continue;
    }
    EXPECT_EQ(hex(bytes), it->second) << name;
  }
}

TEST(WireFormat, GuestStatesMatchGoldenBytes) {
  expect_guest_golden(golden_guest_states());
}

TEST(WireFormat, GuestMessagesMatchGoldenBytes) {
  expect_guest_golden(golden_guest_messages());
}

/// The registered program kind behind each golden program state.
const std::map<std::string, std::string>& state_kinds() {
  static const std::map<std::string, std::string> kKinds = {
      {"state.bt", "apps.bt"},
      {"state.bratu", "apps.bratu"},
      {"state.cpi", "apps.cpi"},
      {"state.ray_master", "apps.ray_master"},
      {"state.ray_worker", "apps.ray_worker"}};
  return kKinds;
}

/// Loads `state` into a fresh program of `kind`, or a fresh GM device
/// for kind "gm"; on success `resaved` holds what it saves back.
Status load_state(const std::string& kind, const Bytes& state,
                  Bytes* resaved = nullptr) {
  if (kind == "gm") {
    sim::Engine engine;
    gm::GmDevice dev(engine, net::IpAddr(10, 0, 0, 1), [](net::Packet) {});
    Status s = dev.reinstate(state);
    if (s && resaved != nullptr) *resaved = dev.extract_state();
    return s;
  }
  auto prog = os::ProgramRegistry::instance().create(kind);
  EXPECT_TRUE(prog.is_ok()) << kind;
  if (!prog) return prog.status();
  Status s = prog.value()->load(state);
  if (s && resaved != nullptr) *resaved = prog.value()->save();
  return s;
}

std::string kind_of(const std::string& name) {
  auto it = state_kinds().find(name);
  return it == state_kinds().end() ? "gm" : it->second;
}

TEST(WireFormat, GuestStatesRoundTripByteForByte) {
  for (const auto& [name, bytes] : golden_guest_states()) {
    Bytes resaved;
    ASSERT_TRUE(load_state(kind_of(name), bytes, &resaved).is_ok()) << name;
    EXPECT_EQ(resaved, bytes) << name;
  }
}

TEST(WireFormat, CutOrPaddedGuestStatesFailProto) {
  for (const auto& [name, bytes] : golden_guest_states()) {
    const std::string kind = kind_of(name);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Bytes prefix(bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_EQ(load_state(kind, prefix).err(), Err::PROTO)
          << name << " cut at " << cut;
    }
    Bytes padded = bytes;
    padded.push_back(0);
    EXPECT_EQ(load_state(kind, padded).err(), Err::PROTO) << name << " padded";
  }
}

TEST(WireFormat, RestoreOrSpawnFromMalformedStateFailsProto) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  Bytes state = golden_bratu_state();
  state.pop_back();

  ckpt::ProcessImage img;
  img.vpid = 1;
  img.kind = "apps.bratu";
  img.program_state = state;
  EXPECT_EQ(ckpt::Standalone::restore_process(pod, img, {}).err(),
            Err::PROTO);
  EXPECT_EQ(pod.find_process(1), nullptr);  // nothing half-restored

  const i32 parent = pod.spawn(std::make_unique<apps::CpiProgram>());
  pod::PodSyscalls sys(pod, *pod.find_process(parent));
  EXPECT_EQ(sys.spawn("apps.bratu", state).err(), Err::PROTO);
  EXPECT_EQ(pod.process_count(), 1u);
}

}  // namespace
}  // namespace zapc
