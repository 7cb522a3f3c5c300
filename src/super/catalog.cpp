#include "super/catalog.h"

#include "util/log.h"

namespace zapc::super {

Catalog::Catalog(os::VirtualSAN& san, std::string path)
    : san_(san), path_(std::move(path)) {
  auto data = san_.read(path_);
  if (!data) return;  // no catalog yet
  const Bytes& raw = data.value();
  auto lines =
      obs::read_json_lines<CatalogEntry>(std::string(raw.begin(), raw.end()));
  for (const Status& st : lines.malformed) {
    ZLOG_WARN("catalog: malformed line ignored: " << st.to_string());
  }
  entries_ = std::move(lines.entries);
  skipped_torn_ = lines.skipped_torn;  // torn tail, as in the ledger
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
