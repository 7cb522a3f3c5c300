#include "core/protocol.h"

namespace zapc::core {
namespace {

Encoder header(MsgType t) {
  Encoder e;
  e.put_u8(static_cast<u8>(t));
  return e;
}

Result<Decoder> open_msg(const Bytes& msg, MsgType expect) {
  Decoder d(msg);
  auto t = d.u8_();
  if (!t) return Status(Err::PROTO, "empty message");
  if (static_cast<MsgType>(t.value()) != expect) {
    return Status(Err::PROTO, "unexpected message type");
  }
  return d;
}

void put_addr(Encoder& e, const net::SockAddr& a) {
  e.put_u32(a.ip.v);
  e.put_u16(a.port);
}

net::SockAddr get_addr(Decoder& d) {
  net::SockAddr a;
  a.ip.v = d.u32_().value_or(0);
  a.port = d.u16_().value_or(0);
  return a;
}

}  // namespace

Result<MsgType> peek_type(const Bytes& msg) {
  if (msg.empty()) return Status(Err::PROTO, "empty message");
  return static_cast<MsgType>(msg[0]);
}

Bytes encode_checkpoint_cmd(const CheckpointCmd& m) {
  Encoder e = header(MsgType::CHECKPOINT_CMD);
  e.put_u64(m.op_id);
  e.put_u32(m.parent_span);
  e.put_string(m.pod_name);
  e.put_string(m.dest_uri);
  e.put_u8(static_cast<u8>(m.mode));
  e.put_bool(m.redirect_send_queues);
  e.put_bool(m.fs_snapshot);
  e.put_u32(static_cast<u32>(m.peer_agents.size()));
  for (const auto& [vip, addr] : m.peer_agents) {
    e.put_u32(vip.v);
    put_addr(e, addr);
  }
  e.put_bool(m.incremental);
  e.put_u32(m.chain_cap);
  e.put_u32(m.codec_flags);
  e.put_bool(m.pipelined);
  e.put_u64(m.barrier_wait_us);
  e.put_u64(m.heartbeat_us);
  e.put_bool(m.cow);
  e.put_u64(m.drain_wait_us);
  return e.take();
}

Result<CheckpointCmd> decode_checkpoint_cmd(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::CHECKPOINT_CMD);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  CheckpointCmd m;
  m.op_id = d.u64_().value_or(0);
  m.parent_span = d.u32_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.dest_uri = d.string_().value_or("");
  m.mode = static_cast<CkptMode>(d.u8_().value_or(0));
  m.redirect_send_queues = d.bool_().value_or(false);
  m.fs_snapshot = d.bool_().value_or(false);
  u32 n = d.count_(10).value_or(0);
  for (u32 i = 0; i < n; ++i) {
    net::IpAddr vip(d.u32_().value_or(0));
    m.peer_agents.emplace_back(vip, get_addr(d));
  }
  m.incremental = d.bool_().value_or(false);
  m.chain_cap = d.u32_().value_or(8);
  m.codec_flags = d.u32_().value_or(0);
  m.pipelined = d.bool_().value_or(false);
  m.barrier_wait_us = d.u64_().value_or(0);
  m.heartbeat_us = d.u64_().value_or(0);
  m.cow = d.bool_().value_or(false);
  m.drain_wait_us = d.u64_().value_or(0);
  return m;
}

Bytes encode_meta_report(const MetaReport& m) {
  Encoder e = header(MsgType::META_REPORT);
  e.put_u64(m.op_id);
  e.put_string(m.pod_name);
  e.put_bytes(ckpt::encode_meta(m.meta));
  e.put_u64(m.net_ckpt_us);
  return e.take();
}

Result<MetaReport> decode_meta_report(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::META_REPORT);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  MetaReport m;
  m.op_id = d.u64_().value_or(0);
  m.pod_name = d.string_().value_or("");
  auto meta = ckpt::decode_meta(d.bytes_().value_or({}));
  if (!meta) return meta.status();
  m.meta = std::move(meta).value();
  m.net_ckpt_us = d.u64_().value_or(0);
  return m;
}

Bytes encode_continue(const ContinueMsg& m) {
  Encoder e = header(MsgType::CONTINUE);
  e.put_u64(m.op_id);
  e.put_u32(m.continue_event);
  return e.take();
}

Result<ContinueMsg> decode_continue(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::CONTINUE);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  ContinueMsg m;
  m.op_id = d.u64_().value_or(0);
  m.continue_event = d.u32_().value_or(0);
  return m;
}

Bytes encode_ckpt_done(const CkptDone& m) {
  Encoder e = header(MsgType::CKPT_DONE);
  e.put_u64(m.op_id);
  e.put_string(m.pod_name);
  e.put_bool(m.ok);
  e.put_string(m.error);
  e.put_u64(m.image_bytes);
  e.put_u64(m.network_bytes);
  e.put_u64(m.total_us);
  e.put_u64(m.logical_bytes);
  e.put_u32(m.delta_seq);
  e.put_bool(m.transient);
  e.put_u64(m.suspend_us);
  e.put_u64(m.netckpt_us);
  e.put_u64(m.standalone_us);
  e.put_u64(m.barrier_us);
  e.put_bool(m.drain_pending);
  e.put_u64(m.cowmark_us);
  return e.take();
}

Result<CkptDone> decode_ckpt_done(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::CKPT_DONE);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  CkptDone m;
  m.op_id = d.u64_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.ok = d.bool_().value_or(false);
  m.error = d.string_().value_or("");
  m.image_bytes = d.u64_().value_or(0);
  m.network_bytes = d.u64_().value_or(0);
  m.total_us = d.u64_().value_or(0);
  m.logical_bytes = d.u64_().value_or(0);
  m.delta_seq = d.u32_().value_or(0);
  m.transient = d.bool_().value_or(false);
  m.suspend_us = d.u64_().value_or(0);
  m.netckpt_us = d.u64_().value_or(0);
  m.standalone_us = d.u64_().value_or(0);
  m.barrier_us = d.u64_().value_or(0);
  m.drain_pending = d.bool_().value_or(false);
  m.cowmark_us = d.u64_().value_or(0);
  return m;
}

Bytes encode_epilogue_done(const EpilogueDone& m) {
  Encoder e = header(MsgType::EPILOGUE_DONE);
  e.put_u64(m.op_id);
  e.put_string(m.pod_name);
  e.put_bool(m.ok);
  e.put_string(m.error);
  e.put_bool(m.transient);
  e.put_u64(m.image_bytes);
  e.put_u64(m.epilogue_us);
  e.put_u64(m.dirtied_bytes);
  e.put_u64(m.throttled_us);
  e.put_u64(m.contended_us);
  e.put_u64(m.granted_bps);
  // A drain's epilogue stops here, byte for byte the old DRAIN_DONE frame.
  if (m.lazy_bytes == 0 && m.faults == 0 && m.fault_bytes == 0) {
    return e.take();
  }
  e.put_u64(m.lazy_bytes);
  e.put_u64(m.faults);
  e.put_u64(m.fault_bytes);
  return e.take();
}

Result<EpilogueDone> decode_epilogue_done(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::EPILOGUE_DONE);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  EpilogueDone m;
  m.op_id = d.u64_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.ok = d.bool_().value_or(false);
  m.error = d.string_().value_or("");
  m.transient = d.bool_().value_or(false);
  m.image_bytes = d.u64_().value_or(0);
  m.epilogue_us = d.u64_().value_or(0);
  m.dirtied_bytes = d.u64_().value_or(0);
  m.throttled_us = d.u64_().value_or(0);
  m.contended_us = d.u64_().value_or(0);
  m.granted_bps = d.u64_().value_or(0);
  m.lazy_bytes = d.u64_().value_or(0);
  m.faults = d.u64_().value_or(0);
  m.fault_bytes = d.u64_().value_or(0);
  return m;
}

Bytes encode_restart_cmd(const RestartCmd& m) {
  Encoder e = header(MsgType::RESTART_CMD);
  e.put_u64(m.op_id);
  e.put_u32(m.parent_span);
  e.put_string(m.pod_name);
  e.put_string(m.source_uri);
  e.put_bytes(ckpt::encode_meta(m.meta));
  e.put_u32(static_cast<u32>(m.locations.size()));
  for (const auto& [vip, real] : m.locations) {
    e.put_u32(vip.v);
    e.put_u32(real.v);
  }
  e.put_u64(m.stream_wait_us);
  e.put_u64(m.heartbeat_us);
  e.put_bool(m.replace_existing);
  e.put_bool(m.pipelined);
  e.put_bool(m.lazy);
  e.put_u32(m.lazy_hot_permille);
  e.put_u64(m.lazy_wait_us);
  return e.take();
}

Result<RestartCmd> decode_restart_cmd(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::RESTART_CMD);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  RestartCmd m;
  m.op_id = d.u64_().value_or(0);
  m.parent_span = d.u32_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.source_uri = d.string_().value_or("");
  auto meta = ckpt::decode_meta(d.bytes_().value_or({}));
  if (!meta) return meta.status();
  m.meta = std::move(meta).value();
  u32 n = d.count_(8).value_or(0);
  for (u32 i = 0; i < n; ++i) {
    net::IpAddr vip(d.u32_().value_or(0));
    net::IpAddr real(d.u32_().value_or(0));
    m.locations.emplace_back(vip, real);
  }
  m.stream_wait_us = d.u64_().value_or(0);
  m.heartbeat_us = d.u64_().value_or(0);
  m.replace_existing = d.bool_().value_or(false);
  m.pipelined = d.bool_().value_or(false);
  m.lazy = d.bool_().value_or(false);
  m.lazy_hot_permille = d.u32_().value_or(0);
  m.lazy_wait_us = d.u64_().value_or(0);
  return m;
}

Bytes encode_restart_done(const RestartDone& m) {
  Encoder e = header(MsgType::RESTART_DONE);
  e.put_u64(m.op_id);
  e.put_string(m.pod_name);
  e.put_bool(m.ok);
  e.put_string(m.error);
  e.put_u64(m.connectivity_us);
  e.put_u64(m.net_restore_us);
  e.put_u64(m.total_us);
  e.put_bool(m.transient);
  e.put_u64(m.standalone_us);
  e.put_bool(m.lazy_pending);
  e.put_u64(m.downtime_us);
  e.put_u64(m.hot_bytes);
  e.put_u64(m.lazy_bytes);
  e.put_u64(m.fetch_us);
  return e.take();
}

Result<RestartDone> decode_restart_done(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::RESTART_DONE);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  RestartDone m;
  m.op_id = d.u64_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.ok = d.bool_().value_or(false);
  m.error = d.string_().value_or("");
  m.connectivity_us = d.u64_().value_or(0);
  m.net_restore_us = d.u64_().value_or(0);
  m.total_us = d.u64_().value_or(0);
  m.transient = d.bool_().value_or(false);
  m.standalone_us = d.u64_().value_or(0);
  m.lazy_pending = d.bool_().value_or(false);
  m.downtime_us = d.u64_().value_or(0);
  m.hot_bytes = d.u64_().value_or(0);
  m.lazy_bytes = d.u64_().value_or(0);
  m.fetch_us = d.u64_().value_or(0);
  return m;
}

Bytes encode_stream_open(const StreamOpen& m) {
  Encoder e = header(MsgType::STREAM_OPEN);
  e.put_u64(m.op_id);
  e.put_string(m.tag);
  return e.take();
}

Result<StreamOpen> decode_stream_open(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::STREAM_OPEN);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  StreamOpen m;
  m.op_id = d.u64_().value_or(0);
  m.tag = d.string_().value_or("");
  return m;
}

Bytes encode_stream_chunk(const StreamChunk& m) {
  Encoder e = header(MsgType::STREAM_CHUNK);
  e.put_string(m.tag);
  e.put_bytes(m.data);
  return e.take();
}

Result<StreamChunk> decode_stream_chunk(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::STREAM_CHUNK);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  StreamChunk m;
  m.tag = d.string_().value_or("");
  m.data = d.bytes_().value_or({});
  return m;
}

Bytes encode_stream_close(const StreamClose& m) {
  Encoder e = header(MsgType::STREAM_CLOSE);
  e.put_string(m.tag);
  return e.take();
}

Result<StreamClose> decode_stream_close(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::STREAM_CLOSE);
  if (!dr) return dr.status();
  StreamClose m;
  m.tag = dr.value().string_().value_or("");
  return m;
}

Bytes encode_redirect_data(const RedirectData& m) {
  Encoder e = header(MsgType::REDIRECT_DATA);
  e.put_u64(m.op_id);
  e.put_u32(m.dst_pod_vip.v);
  put_addr(e, m.dst_local);
  put_addr(e, m.dst_remote);
  e.put_u32(m.sender_acked);
  e.put_bytes(m.data);
  return e.take();
}

Result<RedirectData> decode_redirect_data(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::REDIRECT_DATA);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  RedirectData m;
  m.op_id = d.u64_().value_or(0);
  m.dst_pod_vip.v = d.u32_().value_or(0);
  m.dst_local = get_addr(d);
  m.dst_remote = get_addr(d);
  m.sender_acked = d.u32_().value_or(0);
  m.data = d.bytes_().value_or({});
  return m;
}

Bytes encode_abort(const AbortMsg& m) {
  Encoder e = header(MsgType::ABORT);
  e.put_u64(m.op_id);
  e.put_string(m.reason);
  return e.take();
}

Result<AbortMsg> decode_abort(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::ABORT);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  AbortMsg m;
  m.op_id = d.u64_().value_or(0);
  m.reason = d.string_().value_or("");
  return m;
}

Bytes encode_heartbeat(const HeartbeatMsg& m) {
  Encoder e = header(MsgType::HEARTBEAT);
  e.put_u64(m.op_id);
  e.put_string(m.pod_name);
  e.put_string(m.phase);
  e.put_u64(m.t_us);
  e.put_u32(m.seq);
  return e.take();
}

Result<HeartbeatMsg> decode_heartbeat(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::HEARTBEAT);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  HeartbeatMsg m;
  m.op_id = d.u64_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.phase = d.string_().value_or("");
  m.t_us = d.u64_().value_or(0);
  m.seq = d.u32_().value_or(0);
  return m;
}

Bytes encode_progress(const ProgressMsg& m) {
  Encoder e = header(MsgType::PROGRESS);
  e.put_u64(m.op_id);
  e.put_string(m.pod_name);
  e.put_string(m.phase);
  e.put_u64(m.t_us);
  e.put_u64(m.bytes_done);
  e.put_u64(m.bytes_expected);
  e.put_u64(m.throughput_bps);
  e.put_u64(m.eta_us);
  return e.take();
}

Result<ProgressMsg> decode_progress(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::PROGRESS);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  ProgressMsg m;
  m.op_id = d.u64_().value_or(0);
  m.pod_name = d.string_().value_or("");
  m.phase = d.string_().value_or("");
  m.t_us = d.u64_().value_or(0);
  m.bytes_done = d.u64_().value_or(0);
  m.bytes_expected = d.u64_().value_or(0);
  m.throughput_bps = d.u64_().value_or(0);
  m.eta_us = d.u64_().value_or(0);
  return m;
}

Bytes encode_health_query(const HealthQuery& m) {
  Encoder e = header(MsgType::HEALTH_QUERY);
  e.put_u64(m.op_id);
  return e.take();
}

Result<HealthQuery> decode_health_query(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::HEALTH_QUERY);
  if (!dr) return dr.status();
  HealthQuery m;
  m.op_id = dr.value().u64_().value_or(0);
  return m;
}

Bytes encode_health_snapshot(const HealthSnapshotMsg& m) {
  Encoder e = header(MsgType::HEALTH_SNAPSHOT);
  e.put_u64(m.op_id);
  e.put_string(m.json);
  return e.take();
}

Result<HealthSnapshotMsg> decode_health_snapshot(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::HEALTH_SNAPSHOT);
  if (!dr) return dr.status();
  Decoder& d = dr.value();
  HealthSnapshotMsg m;
  m.op_id = d.u64_().value_or(0);
  m.json = d.string_().value_or("");
  return m;
}

Bytes encode_supervise_cmd(const SuperviseCmd& m) {
  Encoder e = header(MsgType::SUPERVISE_CMD);
  e.put_u64(m.heartbeat_us);
  return e.take();
}

Result<SuperviseCmd> decode_supervise_cmd(const Bytes& msg) {
  auto dr = open_msg(msg, MsgType::SUPERVISE_CMD);
  if (!dr) return dr.status();
  SuperviseCmd m;
  m.heartbeat_us = dr.value().u64_().value_or(0);
  return m;
}

}  // namespace zapc::core
