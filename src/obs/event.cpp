#include "obs/event.h"

#include <cstdlib>

namespace zapc::obs::ev {

Text& Text::kv(std::string_view key, std::string_view value) {
  s_ += ' ';
  s_ += key;
  s_ += '=';
  s_ += value;
  return *this;
}

Text& Text::kv(std::string_view key, u64 value) {
  return kv(key, std::to_string(value));
}

std::string Text::why(std::string_view message) {
  kv(kWhy, message);
  return s_;
}

std::string_view name_of(std::string_view text) {
  return text.substr(0, text.find(' '));
}

std::string field(std::string_view text, std::string_view key) {
  // Fields before `why` only: its free text may itself contain " k=v".
  std::string needle = " " + std::string(kWhy) + "=";
  const std::size_t why_at = text.find(needle);
  const bool is_why = key == kWhy;
  std::string_view scope = is_why ? text : text.substr(0, why_at);
  needle = " " + std::string(key) + "=";
  std::size_t pos = scope.find(needle);
  if (pos == std::string_view::npos) return "";
  pos += needle.size();
  if (is_why) return std::string(scope.substr(pos));
  return std::string(scope.substr(pos, scope.find(' ', pos) - pos));
}

u64 field_u64(std::string_view text, std::string_view key) {
  std::string v = field(text, key);
  return v.empty() ? 0 : std::strtoull(v.c_str(), nullptr, 10);
}

std::map<SpanId, std::string> agent_pods(
    const std::vector<const SpanRecord*>& records) {
  std::map<SpanId, std::string> out;
  for (const SpanRecord* r : records) {
    if (r->kind == SpanKind::EVENT && r->parent != 0 &&
        (is(r->name, kSuspend) || is(r->name, kCreate))) {
      out.emplace(r->parent, field(r->name, kPod));
    }
  }
  return out;
}

}  // namespace zapc::obs::ev
