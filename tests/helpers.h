// Shared test utilities.
#pragma once

#include <map>

#include "net/packet.h"
#include "net/stack.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/types.h"

namespace zapc::test {

/// A minimal wire between stacks: routes packets by destination address
/// with fixed latency and optional random loss.  Lets protocol tests run
/// without nodes/pods.
class TestNet {
 public:
  explicit TestNet(sim::Time latency = 50 * sim::kMicrosecond,
                   double loss = 0.0, u64 seed = 7)
      : latency_(latency), loss_(loss), rng_(seed) {}

  void add(net::Stack& s) {
    stacks_[s.vip()] = &s;
    s.set_output([this](net::Packet p) { send(std::move(p)); });
  }

  void send(net::Packet p) {
    ++sent_;
    if (loss_ > 0 && rng_.chance(loss_)) {
      ++dropped_;
      return;
    }
    engine.schedule(latency_, [this, p = std::move(p)] {
      auto it = stacks_.find(p.dst.ip);
      if (it != stacks_.end()) it->second->deliver(p);
    });
  }

  /// Advances virtual time by `dt`, running all due events.
  void step_for(sim::Time dt) { engine.run_until(engine.now() + dt); }

  void set_loss(double p) { loss_ = p; }
  u64 packets_sent() const { return sent_; }
  u64 packets_dropped() const { return dropped_; }

  sim::Engine engine;

 private:
  sim::Time latency_;
  double loss_;
  Rng rng_;
  std::map<net::IpAddr, net::Stack*> stacks_;
  u64 sent_ = 0;
  u64 dropped_ = 0;
};

/// Passes every record payload of a checkpoint image through
/// `edit(tag, payload)` and frames the records again with valid CRCs: a
/// corrupt field the record CRC no longer catches, as a fuzzer's
/// re-framed input.  Empty if `image` does not frame.
template <typename Edit>
Bytes reframe_records(const Bytes& image, Edit edit) {
  RecordReader r(image);
  RecordWriter w;
  while (!r.at_end()) {
    auto rec = r.next();
    if (!rec) return {};
    Bytes payload = rec.value().payload.to_bytes();
    edit(rec.value().tag, payload);
    w.write(rec.value().tag, rec.value().version, payload);
  }
  return w.take();
}

/// Deterministic payload of n bytes.
inline Bytes pattern_bytes(std::size_t n, u8 salt = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<u8>((i * 131 + salt) & 0xFF);
  }
  return b;
}

/// BT's per-line Thomas solve, the reference its blocked sweeps must
/// match bit for bit: the system (-a, 1+2a, -a) x = rhs solved in place
/// along `x` at `stride`, recomputing the elimination coefficients into
/// `scratch` (len entries).
inline void thomas_per_line(double* x, u32 len, double a, double* scratch,
                            u32 stride) {
  if (len == 0) return;
  const double b = 1.0 + 2.0 * a;
  scratch[0] = -a / b;
  x[0] = x[0] / b;
  for (u32 i = 1; i < len; ++i) {
    double m = 1.0 / (b + a * scratch[i - 1]);
    scratch[i] = -a * m;
    x[i * stride] = (x[i * stride] + a * x[(i - 1) * stride]) * m;
  }
  for (u32 i = len - 1; i-- > 0;) {
    x[i * stride] -= scratch[i] * x[(i + 1) * stride];
  }
}

}  // namespace zapc::test
