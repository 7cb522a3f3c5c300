// Small guest programs used by OS/pod/checkpoint tests.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>

#include "net/addr.h"
#include "os/program.h"
#include "os/san.h"
#include "util/types.h"

namespace zapc::test {

/// Counts to a target, spending `step_cost` virtual CPU time per tick.
class CounterProgram final : public os::FieldProgram<CounterProgram> {
 public:
  CounterProgram() = default;
  CounterProgram(u32 target, sim::Time step_cost)
      : target_(target), step_cost_(step_cost) {}

  const char* kind() const override { return "test.counter"; }

  os::StepResult step(os::Syscalls& sys) override {
    (void)sys;
    if (count_ >= target_) return os::StepResult::exit(0);
    ++count_;
    return os::StepResult::yield(step_cost_);
  }

  u32 count() const { return count_; }

 private:
  template <class F>
  friend void io(F& f, CounterProgram& p) {
    f(p.target_, p.count_, p.step_cost_);
  }

  u32 target_ = 0;
  sim::Time step_cost_ = 1;
  u32 count_ = 0;
};

/// TCP echo server: accepts one connection and echoes until EOF.
class EchoServer final : public os::FieldProgram<EchoServer> {
 public:
  EchoServer() = default;
  explicit EchoServer(u16 port) : port_(port) {}

  const char* kind() const override { return "test.echo_server"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {  // create/bind/listen
        sys.region("workspace", 4 << 20);  // typical app address space
        auto fd = sys.socket(net::Proto::TCP);
        if (!fd) return StepResult::exit(1);
        lfd_ = fd.value();
        if (!sys.bind(lfd_, net::SockAddr{net::kAnyAddr, port_})) {
          return StepResult::exit(1);
        }
        if (!sys.listen(lfd_, 4)) return StepResult::exit(1);
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {  // accept
        auto c = sys.accept(lfd_, nullptr);
        if (!c) {
          if (c.err() == Err::WOULD_BLOCK) {
            return StepResult::block(os::WaitSpec::on_fd(lfd_));
          }
          return StepResult::exit(1);
        }
        cfd_ = c.value();
        pc_ = 2;
        return StepResult::yield();
      }
      case 2: {  // echo loop
        auto r = sys.recv(cfd_, 4096, 0);
        if (!r) {
          if (r.err() == Err::WOULD_BLOCK) {
            return StepResult::block(os::WaitSpec::on_fd(cfd_));
          }
          return StepResult::exit(1);
        }
        if (r.value().eof) {
          (void)sys.close(cfd_);
          (void)sys.close(lfd_);
          return StepResult::exit(0);
        }
        echoed_ += static_cast<u32>(r.value().data.size());
        pending_ = std::move(r.value().data);
        pc_ = 3;
        return StepResult::yield();
      }
      case 3: {  // flush pending echo
        if (pending_.empty()) {
          pc_ = 2;
          return StepResult::yield();
        }
        auto w = sys.send(cfd_, pending_, 0);
        if (!w) {
          if (w.err() == Err::WOULD_BLOCK) {
            return StepResult::block(os::WaitSpec::on_fd(cfd_));
          }
          return StepResult::exit(1);
        }
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<long>(w.value()));
        return StepResult::yield();
      }
      default:
        return StepResult::exit(2);
    }
  }

  u32 echoed() const { return echoed_; }

 private:
  template <class F>
  friend void io(F& f, EchoServer& p) {
    f(p.port_, p.pc_, p.lfd_, p.cfd_, p.echoed_, p.pending_);
  }

  u16 port_ = 0;
  u32 pc_ = 0;
  i32 lfd_ = -1;
  i32 cfd_ = -1;
  u32 echoed_ = 0;
  Bytes pending_;
};

/// TCP echo client: connects, sends `total` patterned bytes, reads them
/// back, verifies, exits 0 on success (3 on a corrupted echo, 4 if the
/// stream ends early).
class EchoClient final : public os::FieldProgram<EchoClient> {
 public:
  EchoClient() = default;
  EchoClient(net::SockAddr server, u32 total)
      : server_(server), total_(total) {}

  const char* kind() const override { return "test.echo_client"; }

  static u8 byte_at(u32 i) { return static_cast<u8>((i * 131 + 17) & 0xFF); }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {  // connect
        sys.region("workspace", 4 << 20);  // typical app address space
        auto fd = sys.socket(net::Proto::TCP);
        if (!fd) return StepResult::exit(1);
        fd_ = fd.value();
        Status st = sys.connect(fd_, server_);
        if (!st.is_ok() && st.err() != Err::IN_PROGRESS) {
          return StepResult::exit(1);
        }
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {  // wait for establishment
        u32 ev = sys.poll(fd_);
        if ((ev & net::POLLERR) != 0) return StepResult::exit(1);
        if ((ev & net::POLLOUT) == 0) {
          return StepResult::block(os::WaitSpec::on_fd(fd_));
        }
        pc_ = 2;
        return StepResult::yield();
      }
      case 2: {  // send + receive until done
        const Bytes& pat = pattern();
        if (sent_ < total_) {
          u32 n = std::min<u32>(total_ - sent_, kChunk);
          const u8* from = pat.data() + sent_ % kPeriod;
          chunk_.assign(from, from + n);
          auto w = sys.send(fd_, chunk_, 0);
          if (w.is_ok()) sent_ += static_cast<u32>(w.value());
        }
        auto r = sys.recv(fd_, kRecvMax, 0);
        if (r.is_ok()) {
          const Bytes& got = r.value().data;
          if (r.value().eof) {
            if (rcvd_ < total_) return StepResult::exit(4);
          } else if (!got.empty()) {
            if (std::memcmp(got.data(), pat.data() + rcvd_ % kPeriod,
                            got.size()) != 0) {
              return StepResult::exit(3);
            }
            rcvd_ += static_cast<u32>(got.size());
          }
        }
        if (rcvd_ == total_) {
          (void)sys.close(fd_);
          return StepResult::exit(0);
        }
        if (r.err() == Err::WOULD_BLOCK && sent_ == total_) {
          return StepResult::block(os::WaitSpec::on_fd(fd_));
        }
        return StepResult::yield(5);
      }
      default:
        return StepResult::exit(2);
    }
  }

  u32 received() const { return rcvd_; }

 private:
  template <class F>
  friend void io(F& f, EchoClient& p) {
    f(p.server_, p.total_, p.pc_, p.fd_, p.sent_, p.rcvd_);
  }

  static constexpr u32 kChunk = 2048;    // bytes offered per send
  static constexpr u32 kRecvMax = 4096;  // bytes asked of each recv
  static constexpr u32 kPeriod = 256;    // byte_at(i) repeats every 256

  /// byte_at(0 .. kPeriod + kRecvMax): a window starting at any stream
  /// offset's phase (offset % kPeriod) holds a whole chunk or recv.
  static const Bytes& pattern() {
    static const Bytes pat = [] {
      Bytes b(kPeriod + kRecvMax);
      for (u32 i = 0; i < b.size(); ++i) b[i] = byte_at(i);
      return b;
    }();
    return pat;
  }

  net::SockAddr server_;
  u32 total_ = 0;
  u32 pc_ = 0;
  i32 fd_ = -1;
  u32 sent_ = 0;
  u32 rcvd_ = 0;
  Bytes chunk_;  // send scratch, refilled from pattern() each step
};

/// Touches one of its regions per step, round-robin, rewriting a byte
/// each time.  Two tests lean on this write pattern: the COW dirty-rate
/// observer sees every region's generation move between checkpoints (a
/// genuinely hot pod), and a lazy restore sees every cold region
/// demanded right after resume (fills race demand faults).
class RegionToucher final : public os::FieldProgram<RegionToucher> {
 public:
  RegionToucher() = default;
  RegionToucher(u32 nregions, u32 region_bytes)
      : nregions_(nregions), region_bytes_(region_bytes) {}

  const char* kind() const override { return "test.region_toucher"; }

  os::StepResult step(os::Syscalls& sys) override {
    Bytes& r = sys.region("r" + std::to_string(next_ % nregions_),
                          region_bytes_);
    r[next_ % r.size()] = static_cast<u8>(next_);
    ++next_;
    return os::StepResult::yield(sim::kMillisecond);
  }

 private:
  template <class F>
  friend void io(F& f, RegionToucher& p) {
    f(p.nregions_, p.region_bytes_, p.next_);
  }

  u32 nregions_ = 1;
  u32 region_bytes_ = 0;
  u32 next_ = 0;
};

/// Writes a timestamped note to the SAN, sleeps, and records the observed
/// (virtualized) elapsed time in a memory region.
class TimeLogger final : public os::FieldProgram<TimeLogger> {
 public:
  const char* kind() const override { return "test.time_logger"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    Bytes& reg = sys.region("log", 64);
    switch (pc_) {
      case 0: {
        start_ = sys.time();
        pc_ = 1;
        return StepResult::block(os::WaitSpec::sleep(1000));
      }
      case 1: {
        sim::Time elapsed = sys.time() - start_;
        Encoder e;
        e.put_u64(start_);
        e.put_u64(elapsed);
        std::copy(e.bytes().begin(), e.bytes().end(), reg.begin());
        return StepResult::exit(
            sys.san().write("timelog", e.bytes()).is_ok() ? 0 : 4);
      }
      default:
        return StepResult::exit(2);
    }
  }

 private:
  template <class F>
  friend void io(F& f, TimeLogger& p) {
    f(p.pc_, p.start_);
  }

  u32 pc_ = 0;
  sim::Time start_ = 0;
};

}  // namespace zapc::test
