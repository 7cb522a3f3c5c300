// Minimal JSON tree, writer, strict parser, the named field lists every
// JSON record is written and read through, and the `zapc.obs.v1`
// evidence envelope benches write under bench_results/*.json (Evidence,
// at the end of this file).
//
// The writer emits object keys sorted (std::map) with a fixed number
// format, so identical data always produces identical bytes — snapshots
// round-trip exactly and diffs of bench_results/*.json stay readable.
// No external JSON dependency.  The parser reads back what the system
// wrote — the op ledger, the supervisor's catalog on the SAN, evidence,
// postmortems and health snapshots — so it accepts strict JSON only,
// nested at most kMaxJsonDepth levels.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/serialize.h"
#include "util/status.h"

namespace zapc::obs {

inline constexpr const char* kSchemaVersion = "zapc.obs.v1";

/// Schema of the flight-recorder failure dumps (obs/flight.h).
inline constexpr const char* kPostmortemSchemaVersion =
    "zapc.obs.postmortem.v1";

/// Schema of the live ClusterHealth snapshots (obs/health.h) served by
/// the Manager's status endpoint and rendered by zapc-top.
inline constexpr const char* kHealthSchemaVersion = "zapc.obs.health.v1";

/// Schema of the append-only per-op run ledger (obs/ledger.h), one JSONL
/// line per completed/aborted coordinated operation, read by zapc-report.
inline constexpr const char* kLedgerSchemaVersion = "zapc.obs.ledger.v1";

/// Schema of the supervisor's committed-image catalog (super/catalog.h):
/// the crash-safe record of every committed «node, pod, URI» image set a
/// recovery can restart from.
inline constexpr const char* kCatalogSchemaVersion = "zapc.obs.catalog.v1";

class Json {
 public:
  enum class Type { NUL, BOOL, NUM, STR, ARR, OBJ };

  Json() = default;
  Json(bool b) : type_(Type::BOOL), bool_(b) {}
  Json(double d) : type_(Type::NUM), num_(d) {}
  Json(int v) : type_(Type::NUM), num_(v) {}
  Json(u32 v) : type_(Type::NUM), num_(v) {}
  Json(i64 v) : type_(Type::NUM), num_(static_cast<double>(v)) {}
  Json(u64 v) : type_(Type::NUM), num_(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::STR), str_(std::move(s)) {}
  Json(const char* s) : type_(Type::STR), str_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::ARR;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::OBJ;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::NUL; }
  bool is_num() const { return type_ == Type::NUM; }
  bool is_str() const { return type_ == Type::STR; }
  bool is_arr() const { return type_ == Type::ARR; }
  bool is_obj() const { return type_ == Type::OBJ; }

  bool boolean() const { return bool_; }
  /// Records read their integers strictly through JsonReader.
  double num() const { return num_; }
  const std::string& str() const { return str_; }

  // Arrays.
  void push(Json v) { arr_.push_back(std::move(v)); }
  const std::vector<Json>& items() const { return arr_; }
  std::size_t size() const {
    return type_ == Type::ARR ? arr_.size() : obj_.size();
  }

  // Objects.  operator[] creates (and coerces a NUL value to OBJ).
  Json& operator[](const std::string& key) {
    type_ = Type::OBJ;
    return obj_[key];
  }
  const Json* find(const std::string& key) const {
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, Json>& fields() const { return obj_; }

  /// Serializes; indent 0 = compact single line, otherwise pretty with
  /// `indent` spaces per level.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::NUL;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

/// Deepest nesting of arrays and objects json_parse accepts.  The
/// deepest record written is about five levels.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one strict JSON document: Err::PROTO on malformed input, a
/// number outside JSON's grammar, a duplicate object key, a \u escape
/// above 0x7f or nesting deeper than kMaxJsonDepth.
Result<Json> json_parse(const std::string& text);

// ---- Named field lists ------------------------------------------------------
//
// Each JSON record describes its keys once, as a named field list found by
// argument-dependent lookup in the record's namespace:
//
//   template <class F> void json_io(F& f, Foo& m) {
//     f.constant("schema", kFooSchemaVersion);
//     f("op", m.op);
//     f.opt("error", m.error);                // omitted while ""
//     f.opt("trigger", m.trigger, "manual");  // omitted while "manual"
//     f.group(m.end);  // std::optional<G>: G's own keys, inline, or none
//   }
//
// JsonWriter walks the list to build an object and JsonReader walks the
// same list to read one, so the two directions cannot disagree.  A value
// maps by its type:
//
//   bool                      true / false
//   integers                  an integral number within the type
//   double                    a number
//   std::string               a string
//   std::vector<T>            an array
//   std::map<std::string, T>  an object keyed by the map's keys
//   std::optional<T>          T; opt() omits it while empty
//   Json                      itself, unread (bench rows)
//   Names{e, table}           an enum as one of its names
//   Text{v}                   v.to_string(), read by T::parse
//   Hex{v}                    the hex of v's binary field list
//   any other type            an object of its own json_io list
//
// Reading is strict: a missing required key, an unknown key, a wrong JSON
// type, a wrong constant, a failed check(), or an integer that is
// fractional, out of its type's range or beyond 2^53 in magnitude fails
// Err::PROTO naming the key.  An absent opt() key reads as its default;
// a group is present when any of its keys is, and then needs them all.

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
Json to_json(const T& v);

class JsonWriter {
 public:
  explicit JsonWriter(Json& obj) : obj_(obj) {}

  template <typename T>
  void operator()(const char* key, const T& v) {
    obj_[key] = to_json(v);
  }
  template <typename T>
  void opt(const char* key, const T& v) {
    if constexpr (requires { v.has_value(); }) {
      if (v.has_value()) (*this)(key, *v);
    } else if constexpr (requires { v.empty(); }) {
      if (!v.empty()) (*this)(key, v);
    } else if (!(v == T{})) {
      (*this)(key, v);
    }
  }
  template <typename T, typename D>
  void opt(const char* key, const T& v, const D& def) {
    if (!(v == def)) (*this)(key, v);
  }
  template <typename G>
  void group(std::optional<G>& g) {
    if (g.has_value()) json_io(*this, *g);
  }
  void constant(const char* key, const char* v) { obj_[key] = v; }
  void check(bool, const char*) {}

 private:
  Json& obj_;
};

class JsonReader {
 public:
  explicit JsonReader(const Json& obj) : obj_(obj) {}

  template <typename T>
  void operator()(const char* key, T&& v) {
    if (const Json* j = find(key)) {
      take(key, read(*j, v));
    } else if (st_) {
      st_ = Status(Err::PROTO, std::string(key) + ": missing");
    }
  }
  template <typename T, typename D = T>
  void opt(const char* key, T& v, const D& def = D{}) {
    if (const Json* j = find(key)) {
      if constexpr (requires { v.has_value(); }) {
        take(key, read(*j, v.emplace()));
      } else {
        take(key, read(*j, v));
      }
    } else {
      v = def;
    }
  }
  template <typename G>
  void group(std::optional<G>& g) {
    const std::size_t found = found_;
    const Status st = st_;
    json_io(*this, g.emplace());
    if (found_ == found) {  // none of its keys: the group is absent
      g.reset();
      st_ = st;
    }
  }
  void constant(const char* key, const char* v) {
    const Json* j = find(key);
    if (st_ && (j == nullptr || !j->is_str() || j->str() != v)) {
      st_ = Status(Err::PROTO, std::string(key) + ": not " + v);
    }
  }
  void check(bool ok, const char* what) {
    if (st_ && !ok) st_ = Status(Err::PROTO, what);
  }

  /// OK when every key decoded and the object holds no other key.
  Status finish() const;
  /// OK when every key so far decoded; other keys are not checked.
  const Status& status() const { return st_; }

  template <typename T>
  static Status read(const Json& j, T& v);

 private:
  const Json* find(const char* key) {
    keys_.push_back(key);
    const Json* j = obj_.find(key);
    if (j != nullptr) ++found_;
    return j;
  }
  void take(const char* key, const Status& st) {
    if (st_ && !st) st_ = Status(Err::PROTO, key + (": " + st.message()));
  }

  const Json& obj_;
  std::vector<const char*> keys_;  // every key the list named
  std::size_t found_ = 0;          // ...and how many of them were present
  Status st_;
};

/// An enum written as its name: `table[underlying value]`.
template <typename E, std::size_t N>
struct Names {
  E& value;
  const char* const (&table)[N];

  Json json() const { return Json(table[static_cast<std::size_t>(value)]); }
  Status read(const Json& j) {
    for (std::size_t i = 0; j.is_str() && i < N; ++i) {
      if (j.str() == table[i]) {
        value = static_cast<E>(i);
        return Status::ok();
      }
    }
    return Status(Err::PROTO, "not a known name");
  }
};

/// A value written as its text: T::to_string(), read by T::parse.
template <typename T>
struct Text {
  T& value;

  Json json() const { return Json(value.to_string()); }
  Status read(const Json& j) {
    auto r = j.is_str() ? T::parse(j.str())
                        : Result<T>(Err::PROTO, "expected a string");
    if (r) value = std::move(r).value();
    return r.status();
  }
};

std::string to_hex(const Bytes& b);
Result<Bytes> from_hex(const std::string& s);

/// A value written as the lower-case hex of its binary field list.
template <typename T>
struct Hex {
  T& value;

  Json json() const { return Json(to_hex(encode_fields(value))); }
  Status read(const Json& j) {
    if (!j.is_str()) return Status(Err::PROTO, "expected a string");
    auto raw = from_hex(j.str());
    if (!raw) return raw.status();
    return decode_fields(raw.value(), value);
  }
};


template <typename T>
Json to_json(const T& v) {
  if constexpr (requires { v.json(); }) {
    return v.json();
  } else if constexpr (std::is_same_v<T, Json>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool> ||
                       std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string>) {
    return Json(v);
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (std::is_signed_v<T>) {
      return Json(static_cast<i64>(v));
    } else {
      return Json(static_cast<u64>(v));
    }
  } else if constexpr (kIsVector<T>) {
    Json arr = Json::array();
    for (const auto& x : v) arr.push(to_json(x));
    return arr;
  } else if constexpr (requires { typename T::mapped_type; }) {
    Json obj = Json::object();
    for (const auto& [k, x] : v) obj[k] = to_json(x);
    return obj;
  } else {
    Json obj = Json::object();
    JsonWriter w(obj);
    // The list takes its struct non-const so it can serve the reader
    // too; the writer only reads through it.
    json_io(w, const_cast<T&>(v));
    return obj;
  }
}

template <typename T>
Status JsonReader::read(const Json& j, T& v) {
  if constexpr (requires { v.read(j); }) {
    return v.read(j);
  } else if constexpr (std::is_same_v<T, Json>) {
    v = j;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (j.type() != Json::Type::BOOL) {
      return Status(Err::PROTO, "expected a boolean");
    }
    v = j.boolean();
  } else if constexpr (std::is_same_v<T, double>) {
    if (!j.is_num()) return Status(Err::PROTO, "expected a number");
    v = j.num();
  } else if constexpr (std::is_integral_v<T>) {
    // Beyond 2^53 a double no longer holds every integer exactly.
    const double d = j.is_num() ? j.num() : 0.5;
    if (!(std::fabs(d) <= 0x1p53) || d != std::trunc(d) ||
        d < static_cast<double>(std::numeric_limits<T>::min()) ||
        d > static_cast<double>(std::numeric_limits<T>::max())) {
      return Status(Err::PROTO, "expected an integer in range");
    }
    v = static_cast<T>(d);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!j.is_str()) return Status(Err::PROTO, "expected a string");
    v = j.str();
  } else if constexpr (kIsVector<T>) {
    if (!j.is_arr()) return Status(Err::PROTO, "expected an array");
    v.resize(j.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      Status st = read(j.items()[i], v[i]);
      if (!st) {
        return Status(Err::PROTO, std::to_string(i) + ": " + st.message());
      }
    }
  } else if constexpr (requires { typename T::mapped_type; }) {
    if (!j.is_obj()) return Status(Err::PROTO, "expected an object");
    for (const auto& [k, x] : j.fields()) {
      Status st = read(x, v[k]);
      if (!st) return Status(Err::PROTO, k + ": " + st.message());
    }
  } else {
    if (!j.is_obj()) return Status(Err::PROTO, "expected an object");
    JsonReader r(j);
    json_io(r, v);
    return r.finish();
  }
  return Status::ok();
}

template <typename T>
Result<T> from_json(const Json& j) {
  T v{};
  Status st = JsonReader::read(j, v);
  if (!st) return st;
  return v;
}

/// The records of a JSONL document, one T per line.  A crash mid-append
/// can tear only the final line, so a malformed final line is skipped and
/// counted; the error of any other malformed line is kept.
template <typename T>
struct JsonLines {
  std::vector<T> entries;
  int skipped_torn = 0;
  std::vector<Status> malformed;
};
template <typename T>
JsonLines<T> read_json_lines(const std::string& text) {
  JsonLines<T> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    Result<Json> j = json_parse(line);
    Result<T> e = j ? from_json<T>(j.value()) : Result<T>(j.status());
    if (e) {
      out.entries.push_back(std::move(e).value());
    } else if (pos >= text.size()) {
      out.skipped_torn++;
    } else {
      out.malformed.push_back(e.status());
    }
  }
  return out;
}

// ---- The obs records' lists ------------------------------------------------

template <class F>
void json_io(F& f, GaugeValue& m) {
  f("value", m.value);
  f("max", m.max_seen);
}

template <class F>
void json_io(F& f, HistogramValue& m) {
  f("bounds", m.bounds);
  f("counts", m.counts);
  f("count", m.count);
  f("sum", m.sum);
  f("min", m.min);
  f("max", m.max);
  f.check(m.counts.size() == m.bounds.size() + 1,
          "counts: not one more than bounds");
}

template <class F>
void json_io(F& f, MetricsSnapshot& m) {
  f("counters", m.counters);
  f("gauges", m.gauges);
  f("histograms", m.histograms);
}

/// SpanKind names, by value.
inline constexpr const char* kSpanKindNames[] = {"span", "event"};

/// A span or event; "op" is omitted while 0 and "open" while false.
template <class F>
void json_io(F& f, SpanRecord& m) {
  f("id", m.id);
  f("parent", m.parent);
  f("kind", Names{m.kind, kSpanKindNames});
  f.opt("op", m.op);
  f("name", m.name);
  f("who", m.who);
  f("start_us", m.start);
  f("end_us", m.end);
  f.opt("open", m.open);
}

// ---- Evidence envelope -----------------------------------------------------

/// The zapc.obs.v1 document: a bench's metrics (the registry's delta
/// over its run), its span stream (omitted when the export has no span
/// recorder) and its printed table as free-form rows (omitted while
/// there are none).
struct Evidence {
  std::string name;
  MetricsSnapshot metrics;
  std::optional<std::vector<SpanRecord>> spans;
  std::vector<Json> rows;  // bench series, free-form
};

template <class F>
void json_io(F& f, Evidence& m) {
  f.constant("schema", kSchemaVersion);
  f("name", m.name);
  f("metrics", m.metrics);
  f.opt("spans", m.spans);
  f.opt("rows", m.rows);
}

}  // namespace zapc::obs
