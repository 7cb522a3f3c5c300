#include "super/catalog.h"

#include "util/log.h"

namespace zapc::super {
namespace {

std::string to_hex(const Bytes& b) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (u8 c : b) {
    s.push_back(kHex[c >> 4]);
    s.push_back(kHex[c & 0xF]);
  }
  return s;
}

Result<Bytes> from_hex(const std::string& s) {
  if (s.size() % 2 != 0) return Status(Err::PROTO, "odd hex length");
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi = nib(s[i]), lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return Status(Err::PROTO, "bad hex digit");
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return out;
}

}  // namespace

obs::Json catalog_entry_to_json(const CatalogEntry& e) {
  obs::Json j = obs::Json::object();
  j["schema"] = obs::kCatalogSchemaVersion;
  j["op"] = e.op;
  j["t_us"] = e.t_us;
  obs::Json images = obs::Json::array();
  for (const CatalogImage& im : e.images) {
    obs::Json ji = obs::Json::object();
    ji["agent_ip"] = im.agent_ip;
    ji["agent_port"] = static_cast<u32>(im.agent_port);
    ji["pod"] = im.pod;
    ji["uri"] = im.uri;
    ji["vip"] = im.vip.to_string();
    ji["meta"] = to_hex(encode_fields(im.meta));
    images.push(std::move(ji));
  }
  j["images"] = std::move(images);
  return j;
}

Result<CatalogEntry> catalog_entry_from_json(const obs::Json& j) {
  if (!j.is_obj()) return Status(Err::PROTO, "catalog entry: not an object");
  const obs::Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_str() ||
      schema->str() != obs::kCatalogSchemaVersion) {
    return Status(Err::PROTO, "catalog entry: bad schema tag");
  }
  CatalogEntry e;
  if (const obs::Json* v = j.find("op"); v != nullptr && v->is_num()) {
    e.op = v->num_u64();
  }
  if (const obs::Json* v = j.find("t_us"); v != nullptr && v->is_num()) {
    e.t_us = v->num_u64();
  }
  const obs::Json* images = j.find("images");
  if (images == nullptr || !images->is_arr()) {
    return Status(Err::PROTO, "catalog entry: missing images");
  }
  for (const obs::Json& ji : images->items()) {
    if (!ji.is_obj()) return Status(Err::PROTO, "catalog image: not object");
    CatalogImage im;
    auto str = [&](const char* k) {
      const obs::Json* v = ji.find(k);
      return v != nullptr && v->is_str() ? v->str() : std::string();
    };
    im.agent_ip = str("agent_ip");
    if (const obs::Json* v = ji.find("agent_port");
        v != nullptr && v->is_num()) {
      im.agent_port = static_cast<u16>(v->num_u64());
    }
    im.pod = str("pod");
    im.uri = str("uri");
    auto vip = net::IpAddr::parse(str("vip"));
    if (!vip) return vip.status();
    im.vip = vip.value();
    auto raw = from_hex(str("meta"));
    if (!raw) return raw.status();
    const Bytes& meta = raw.value();
    if (Status s = decode_fields(ByteView{meta.data(), meta.size()}, im.meta);
        !s) {
      return s;
    }
    e.images.push_back(std::move(im));
  }
  return e;
}

Catalog::Catalog(os::VirtualSAN& san, std::string path)
    : san_(san), path_(std::move(path)) {
  auto data = san_.read(path_);
  if (!data) return;  // no catalog yet
  const Bytes& raw = data.value();
  std::string text(raw.begin(), raw.end());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    bool has_newline = nl != std::string::npos;
    std::string line =
        text.substr(pos, has_newline ? nl - pos : std::string::npos);
    pos = has_newline ? nl + 1 : text.size();
    if (line.empty()) continue;
    bool is_last = pos >= text.size();
    auto j = obs::json_parse(line);
    Result<CatalogEntry> e = j.is_ok()
                                 ? catalog_entry_from_json(j.value())
                                 : Result<CatalogEntry>(j.status());
    if (!e.is_ok()) {
      if (is_last) {
        ++skipped_torn_;  // torn tail, same tolerance as the ledger
        continue;
      }
      ZLOG_WARN("catalog: malformed line ignored: "
                << e.status().to_string());
      continue;
    }
    entries_.push_back(std::move(e).value());
  }
}

Status Catalog::append(CatalogEntry e) {
  entries_.push_back(std::move(e));
  std::string text;
  for (const CatalogEntry& entry : entries_) {
    text += catalog_entry_to_json(entry).dump(0);
    text.push_back('\n');
  }
  // Two-phase commit: a crash between write and rename leaves the live
  // object on the previous generation, never torn.
  std::string tmp = path_ + ".tmp";
  Bytes data(text.begin(), text.end());
  if (Status st = san_.write(tmp, std::move(data)); !st) {
    entries_.pop_back();
    return st;
  }
  if (Status st = san_.rename(tmp, path_); !st) {
    entries_.pop_back();
    return st;
  }
  return Status::ok();
}

std::optional<CatalogEntry> Catalog::latest() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.back();
}

}  // namespace zapc::super
