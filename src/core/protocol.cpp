#include "core/protocol.h"

#include <charconv>

namespace zapc::core {

Result<Uri> parse_uri(const std::string& s) {
  auto bad = [&s](const char* why) {
    return Status(Err::INVALID, std::string(why) + ": " + s);
  };
  auto sep = s.find("://");
  if (sep == std::string::npos) return bad("bad uri");
  Uri u{s.substr(0, sep), s.substr(sep + 3), {}};
  if (u.scheme == "san" || u.scheme == "stream") return u;
  if (u.scheme != "agent") return bad("unknown uri scheme");
  // agent://<ip>:<port>/<tag>: u.path still holds "<ip>:<port>/<tag>".
  auto slash = u.path.find('/');
  auto colon = u.path.find(':');
  if (slash == std::string::npos) return bad("agent uri missing tag");
  if (colon > slash) return bad("agent uri missing port");
  auto ip = net::IpAddr::parse(u.path.substr(0, colon));
  if (!ip) return bad("agent uri bad address");
  // Digits only, at most 65535: no sign, no blanks, no silent wrap.
  const char* first = u.path.data() + colon + 1;
  const char* last = u.path.data() + slash;
  u32 port = 0;
  auto [end, ec] = std::from_chars(first, last, port);
  if (first == last || ec != std::errc() || end != last || port > 65535) {
    return bad("agent uri bad port");
  }
  u.endpoint = net::SockAddr{ip.value(), static_cast<u16>(port)};
  u.path.erase(0, slash + 1);
  return u;
}

std::string staging_path(const std::string& path) { return path + ".tmp"; }

Result<MsgType> peek_type(const Bytes& msg) {
  if (msg.empty()) return Status(Err::PROTO, "empty message");
  return static_cast<MsgType>(msg[0]);
}

}  // namespace zapc::core
