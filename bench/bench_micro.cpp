// Microbenchmarks (google-benchmark): hot paths of the checkpoint
// pipeline — record serialization, CRC validation, image encode/decode,
// simulated TCP throughput, and engine event dispatch.
#include <benchmark/benchmark.h>

#include "ckpt/image.h"
#include "net/stack.h"
#include "net/tcp.h"
#include "sim/engine.h"
#include "tests/helpers.h"
#include "util/crc32.h"
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

// Decode alone, the restart leg: records are CRC-checked in place and
// each region's bytes are copied once, out of the image buffer.
void BM_ImageDecode(benchmark::State& state) {
  Bytes data = ckpt::encode_image(
      one_region_image(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::decode_image(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ImageDecode)->Arg(16 << 20);

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
