// Network addresses: IPv4-style 32-bit addresses and (ip, port) pairs.
//
// Pods see only *virtual* addresses; the cluster routes on *real* node
// addresses.  Both use the same types — the distinction is which table
// they live in (see pod::LocationTable).
#pragma once

#include <compare>
#include <functional>
#include <string>

#include "util/status.h"
#include "util/types.h"

namespace zapc::net {

/// 32-bit IPv4-style address, host byte order.
struct IpAddr {
  u32 v = 0;

  constexpr IpAddr() = default;
  constexpr explicit IpAddr(u32 raw) : v(raw) {}
  constexpr IpAddr(u8 a, u8 b, u8 c, u8 d)
      : v((static_cast<u32>(a) << 24) | (static_cast<u32>(b) << 16) |
          (static_cast<u32>(c) << 8) | d) {}

  auto operator<=>(const IpAddr&) const = default;

  bool is_any() const { return v == 0; }

  /// Dotted-quad representation.
  std::string to_string() const;

  /// Parses "a.b.c.d"; Err::INVALID on malformed input.
  static Result<IpAddr> parse(const std::string& s);
};

/// Wildcard address (0.0.0.0), used for binds.
inline constexpr IpAddr kAnyAddr{};

/// Transport endpoint: address + port.
struct SockAddr {
  IpAddr ip;
  u16 port = 0;

  constexpr SockAddr() = default;
  constexpr SockAddr(IpAddr a, u16 p) : ip(a), port(p) {}

  auto operator<=>(const SockAddr&) const = default;

  std::string to_string() const;
};

/// Field lists for the wire formats (util/serialize.h).
template <class F>
void io(F& f, IpAddr& a) {
  f(a.v);
}
template <class F>
void io(F& f, SockAddr& a) {
  f(a.ip, a.port);
}

/// Transport protocols supported by the stack (paper §5: TCP, UDP, raw IP).
enum class Proto : u8 { TCP = 6, UDP = 17, RAW = 255 };

const char* proto_name(Proto p);

/// Connection 4-tuple + protocol, used for demultiplexing.
struct FlowKey {
  Proto proto{};
  SockAddr local;
  SockAddr remote;

  auto operator<=>(const FlowKey&) const = default;
};

}  // namespace zapc::net

template <>
struct std::hash<zapc::net::IpAddr> {
  std::size_t operator()(const zapc::net::IpAddr& a) const noexcept {
    return std::hash<zapc::u32>()(a.v);
  }
};

template <>
struct std::hash<zapc::net::SockAddr> {
  std::size_t operator()(const zapc::net::SockAddr& a) const noexcept {
    return std::hash<zapc::u64>()((static_cast<zapc::u64>(a.ip.v) << 16) ^
                                  a.port);
  }
};
