// Microbenchmarks (google-benchmark): hot paths of the checkpoint
// pipeline — record serialization, CRC validation, capture and image
// encode/decode, zero regions — and of the simulator — BT's line solves, TCP receive
// absorb, simulated TCP throughput, and engine event dispatch.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "apps/bt.h"
#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "net/stack.h"
#include "net/tcp.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "sim/engine.h"
#include "tests/guest_programs.h"
#include "tests/helpers.h"
#include "util/crc32.h"
#include "util/region_buf.h"
#include "util/serialize.h"

namespace zapc {
namespace {

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20);

// The slice-by-8 table walk alone: crc32_update's fallback on CPUs
// without PCLMULQDQ, and the "before" of the dispatched BM_Crc32 above.
void BM_Crc32Table(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    u32 c = crc32_update_slice8(crc32_init(), data.data(), data.size());
    benchmark::DoNotOptimize(crc32_final(c));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Table)->Arg(4 << 10)->Arg(1 << 20);

// Reference bytewise CRC loop: the before of both kernels above (same
// incremental API, same result).
void BM_Crc32Bytewise(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    u32 c = crc32_update_bytewise(crc32_init(), data.data(), data.size());
    benchmark::DoNotOptimize(crc32_final(c));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Bytewise)->Arg(4 << 10)->Arg(1 << 20);

// The register after a run of zeros: folding the zeros (arg 1 = 0), the
// before, against crc32_zeros (arg 1 = 1), which reads none of them.
void BM_Crc32Zeros(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool op = state.range(1) != 0;
  const Bytes zeros(n, 0);
  state.SetLabel(op ? "operator" : "fold");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        op ? crc32_zeros(crc32_init(), n)
           : crc32_update(crc32_init(), zeros.data(), n));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Zeros)
    ->Args({64 << 10, 0})
    ->Args({64 << 10, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_RecordWriteRead(benchmark::State& state) {
  Bytes payload(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    RecordWriter w;
    w.write(RecordTag::MEM_REGION, 1, payload);
    RecordReader r(w.bytes());
    benchmark::DoNotOptimize(r.next());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordWriteRead)->Arg(4 << 10)->Arg(1 << 20);

// Validating a record whose payload is all zero: each block is scanned
// once and the CRC register stepped over it, not folded.
void BM_RecordReadZeros(benchmark::State& state) {
  RecordWriter w;
  w.write(RecordTag::MEM_REGION, 1,
          Bytes(static_cast<std::size_t>(state.range(0)), 0));
  const Bytes image = w.take();
  for (auto _ : state) {
    RecordReader r(image);
    benchmark::DoNotOptimize(r.next());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordReadZeros)->Arg(1 << 20);

Bytes pattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 131 + 7);
  return b;
}

// Framing one region record: the body is copied and checksummed block by
// block, each block while it is still in cache.
void BM_RecordWriteSplit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Bytes body = pattern(n);
  const Bytes head(16, 1);
  for (auto _ : state) {
    Bytes out;
    out.reserve(RecordWriter::framed_size(head.size() + n));
    RecordWriter w(std::move(out));
    w.write_split(RecordTag::MEM_REGION, 2, head, body.data(), n);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordWriteSplit)->Arg(1 << 20)->Arg(64 << 20);

/// Adds one connected TCP socket with its meta entry and a few KiB of
/// queued bytes to `img`, shaped like an MPI rank's connection to a peer.
void add_mpi_socket(ckpt::PodImage& img, u32 i) {
  const net::SockAddr local{net::IpAddr(10, 77, 0, 9),
                            static_cast<u16>(6000 + i)};
  const net::SockAddr remote{net::IpAddr(10, 77, 0, static_cast<u8>(10 + i)),
                             7000};
  ckpt::NetMetaEntry e;
  e.sock = i + 1;
  e.source = local;
  e.target = remote;
  img.meta.entries.push_back(e);
  ckpt::SocketImage s;
  s.old_id = i + 1;
  s.local = local;
  s.remote = remote;
  s.bound = s.connected = true;
  s.recv_queue.push_back(ckpt::SavedRecvItem{pattern(1500), remote, false});
  s.send_queue = pattern(4096);
  img.sockets.push_back(std::move(s));
}

// The blocking checkpoint's byte path for one suspended pod: capture
// (which shares the pod's region, copying nothing) plus encode.  The
// second argument adds that many connected sockets with meta entries
// and queued bytes, as a bulk-snapshot BT rank's MPI mesh has: socket
// records are the ones an estimated, rather than planned, output size
// misses, which would cost one more whole-image copy.
void BM_CaptureEncode(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sockets = static_cast<u32>(state.range(1));
  os::Cluster cl;
  pod::Pod pod(cl.add_node("n1"), net::IpAddr(10, 77, 0, 9), "bench");
  i32 pid = pod.spawn(std::make_unique<test::CounterProgram>(1, 1));
  pod.find_process(pid)->region("heap", n) = pattern(n);
  pod.suspend();
  for (auto _ : state) {
    ckpt::PodImage img;
    img.header = ckpt::Standalone::save_header(pod);
    img.processes = ckpt::Standalone::save_processes(pod);
    for (u32 i = 0; i < sockets; ++i) add_mpi_socket(img, i);
    Bytes data = ckpt::encode_image(img);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CaptureEncode)->Args({64 << 20, 0})->Args({64 << 20, 4});

// A second-generation encode of the same pod: the image goes into the
// storage the previous generation displaced (VirtualSAN::take_spare), so
// the writes land on resident pages.  Against BM_CaptureEncode/64M/4 it
// shows what the fresh buffer's page faults cost.
void BM_EncodeIntoSpare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ckpt::PodImage img;
  img.header.pod_name = "bench";
  ckpt::ProcessImage p;
  p.vpid = 1;
  p.kind = "bench";
  p.regions["heap"] = pattern(n);
  img.processes.push_back(p);
  for (u32 i = 0; i < 4; ++i) add_mpi_socket(img, i);
  Bytes spare = ckpt::encode_image(img);  // the displaced generation
  for (auto _ : state) {
    Bytes data = ckpt::encode_image(img, std::move(spare));
    benchmark::DoNotOptimize(data.data());
    spare = std::move(data);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodeIntoSpare)->Arg(64 << 20);

ckpt::PodImage one_region_image(std::size_t region_bytes) {
  ckpt::PodImage img;
  img.header.pod_name = "bench";
  img.header.vip = net::IpAddr(10, 77, 0, 1);
  ckpt::ProcessImage p;
  p.vpid = 1;
  p.kind = "bench";
  p.regions["heap"] = Bytes(region_bytes, 3);
  img.processes.push_back(p);
  return img;
}

void BM_ImageEncodeDecode(benchmark::State& state) {
  ckpt::PodImage img =
      one_region_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes data = ckpt::encode_image(img);
    benchmark::DoNotOptimize(ckpt::decode_image(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ImageEncodeDecode)->Arg(1 << 20)->Arg(16 << 20);

// Decode alone, the restart leg: each record is CRC-checked in place in
// one pass that also finds its trailing zero run; a data region's bytes
// are copied once, out of the image buffer, and an all-zero region
// becomes a zero view.  The second argument adds a raw all-zero region
// of that size: {12M, 80M} is a bulk-snapshot BT rank (grid plus
// workspace).  The decoded image is dropped every iteration, as a
// restart's is once its pod is rebuilt and later torn down.
void BM_ImageDecode(benchmark::State& state) {
  ckpt::PodImage img =
      one_region_image(static_cast<std::size_t>(state.range(0)));
  if (state.range(1) > 0) {
    img.processes[0].regions["workspace"] =
        Bytes(static_cast<std::size_t>(state.range(1)), 0);
  }
  const Bytes data = ckpt::encode_image(img);
  img = ckpt::PodImage{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::decode_image(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_ImageDecode)
    ->Args({16 << 20, 0})
    ->Args({12 << 20, 80 << 20})
    ->Unit(benchmark::kMillisecond);

// A fresh all-zero region, created and then read in full: a zero view
// into the read-only zero mapping allocates nothing and every read hits
// the kernel's one zero page, where value-initialised bytes would fault
// in and clear every page.
void BM_ZeroRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    RegionBuf z = RegionBuf::zeros(n);
    benchmark::DoNotOptimize(is_all_zero(z.data(), z.size()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ZeroRegion)->Arg(80 << 20)->Unit(benchmark::kMillisecond);

void BM_EngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      e.schedule(static_cast<sim::Time>(i), [&count] { ++count; });
    }
    e.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1000);
}
BENCHMARK(BM_EngineEvents);

// Steady-state engine churn shaped like the simulator's: each of 64
// flows re-arms its next step and a retransmit-style timer that is
// cancelled before it fires.
void BM_EngineScheduleDispatch(benchmark::State& state) {
  constexpr int kFlows = 64;
  constexpr u64 kEvents = 100000;
  for (auto _ : state) {
    sim::Engine e;
    u64 dispatched = 0;
    std::vector<sim::EventId> timer(kFlows, 0);
    std::function<void(int)> tick = [&](int f) {
      if (++dispatched >= kEvents) return;
      if (timer[f] != 0) e.cancel(timer[f]);
      timer[f] = e.schedule(200000, [] {});
      e.schedule(static_cast<sim::Time>(1 + f % 7), [&tick, f] { tick(f); });
    };
    for (int f = 0; f < kFlows; ++f) {
      e.schedule(static_cast<sim::Time>(f), [&tick, f] { tick(f); });
    }
    e.run();
    benchmark::DoNotOptimize(dispatched);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kEvents);
}
BENCHMARK(BM_EngineScheduleDispatch);

// One BT step's line solves on one rank at the bulk-snapshot size: 256
// local rows of 1,024 (x-sweep), then 1,024 columns of 256 (y-sweep).
// PerLine is the reference Thomas solve, one line at a time, recomputing
// the elimination coefficients per line; Blocked is BtProgram's.
constexpr u32 kBtRows = 256;
constexpr u32 kBtCols = 1024;
constexpr double kBtAlpha = 0.1;

std::vector<double> bt_grid() {
  std::vector<double> g(static_cast<std::size_t>(kBtRows) * kBtCols);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = std::sin(1e-3 * static_cast<double>(i)) + 0.5;
  }
  return g;
}

// Each iteration restores the grid first so repeated diffusion never
// decays it into subnormals.
void BM_BtSweepPerLine(benchmark::State& state) {
  const std::vector<double> g0 = bt_grid();
  std::vector<double> g(g0.size());
  std::vector<double> scratch(kBtCols);
  for (auto _ : state) {
    std::memcpy(g.data(), g0.data(), g.size() * sizeof(double));
    for (u32 r = 0; r < kBtRows; ++r) {
      test::thomas_per_line(g.data() + static_cast<std::size_t>(r) * kBtCols,
                            kBtCols, kBtAlpha, scratch.data(), 1);
    }
    for (u32 c = 0; c < kBtCols; ++c) {
      test::thomas_per_line(g.data() + c, kBtRows, kBtAlpha, scratch.data(),
                            kBtCols);
    }
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(g.size()));
}
BENCHMARK(BM_BtSweepPerLine);

void BM_BtSweepBlocked(benchmark::State& state) {
  const std::vector<double> g0 = bt_grid();
  std::vector<double> g(g0.size());
  const apps::ThomasTable x_table(kBtCols, kBtAlpha);
  const apps::ThomasTable y_table(kBtRows, kBtAlpha);
  for (auto _ : state) {
    std::memcpy(g.data(), g0.data(), g.size() * sizeof(double));
    apps::thomas_rows(g.data(), kBtRows, x_table);
    apps::thomas_columns(g.data(), kBtCols, y_table);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(g.size()));
}
BENCHMARK(BM_BtSweepBlocked);

// TCP's receive path alone: 1 KiB in-order segments handed straight to
// an established socket, 64 per batch, read back out between batches.
void BM_TcpAbsorb(benchmark::State& state) {
  constexpr std::size_t kSegment = 1024;
  constexpr int kBatch = 64;
  test::TestNet net;
  net::Stack a(net.engine, net::IpAddr(10, 0, 0, 1), "A");
  net::Stack b(net.engine, net::IpAddr(10, 0, 0, 2), "B");
  net.add(a);
  net.add(b);
  net::SockId lst = b.sys_socket(net::Proto::TCP).value();
  (void)b.sys_bind(lst, net::SockAddr{net::kAnyAddr, 7000});
  (void)b.sys_listen(lst, 4);
  net::SockId cli = a.sys_socket(net::Proto::TCP).value();
  (void)a.sys_connect(cli, net::SockAddr{b.vip(), 7000});
  net.step_for(10 * sim::kMillisecond);
  net::SockId srv = b.sys_accept(lst, nullptr).value();
  net::TcpSocket* rcv = b.find_tcp(srv);

  net::Packet p;
  p.proto = net::Proto::TCP;
  p.src = a.sys_getsockname(cli).value();
  p.dst = b.sys_getsockname(srv).value();
  p.flags = net::kAck;
  p.ack = rcv->pcb_sent();
  p.wnd = 65535;
  p.payload = test::pattern_bytes(kSegment);
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      p.seq = rcv->pcb_recv();
      b.deliver(p);
    }
    while (b.sys_recv(srv, 65536, 0).is_ok()) {
    }
    net.step_for(sim::kMillisecond);  // deliver the ACKs
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * kBatch *
                          static_cast<i64>(kSegment));
}
BENCHMARK(BM_TcpAbsorb);

void BM_SimulatedTcpTransfer(benchmark::State& state) {
  const std::size_t total = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    test::TestNet net;
    net::Stack a(net.engine, net::IpAddr(10, 0, 0, 1), "A");
    net::Stack b(net.engine, net::IpAddr(10, 0, 0, 2), "B");
    net.add(a);
    net.add(b);
    net::SockId lst = b.sys_socket(net::Proto::TCP).value();
    (void)b.sys_bind(lst, net::SockAddr{net::kAnyAddr, 7000});
    (void)b.sys_listen(lst, 4);
    net::SockId cli = a.sys_socket(net::Proto::TCP).value();
    (void)a.sys_connect(cli, net::SockAddr{b.vip(), 7000});
    net.step_for(10 * sim::kMillisecond);
    net::SockId srv = b.sys_accept(lst, nullptr).value();

    Bytes data = test::pattern_bytes(total);
    std::size_t sent = 0, rcvd = 0;
    while (rcvd < total) {
      if (sent < total) {
        Bytes chunk(data.begin() + static_cast<long>(sent), data.end());
        auto w = a.sys_send(cli, chunk, 0);
        if (w.is_ok()) sent += w.value();
      }
      net.step_for(5 * sim::kMillisecond);
      while (true) {
        auto r = b.sys_recv(srv, 65536, 0);
        if (!r.is_ok() || r.value().eof) break;
        rcvd += r.value().data.size();
      }
    }
    benchmark::DoNotOptimize(rcvd);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulatedTcpTransfer)->Arg(1 << 20);

}  // namespace
}  // namespace zapc

BENCHMARK_MAIN();
