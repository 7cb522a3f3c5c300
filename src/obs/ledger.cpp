#include "obs/ledger.h"

#include <fstream>
#include <sstream>

namespace zapc::obs {

Ledger::Ledger(const std::string& path) {
  file_ = std::fopen(path.c_str(), "ab");
}

Ledger::~Ledger() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Ledger::append(const LedgerEntry& e) {
  entries_.push_back(e);
  if (file_ == nullptr) return Status::ok();
  std::string line = to_json(e).dump(0);
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status(Err::IO, "ledger append failed");
  }
  std::fflush(file_);
  return Status::ok();
}

Status Ledger::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(Err::IO, "ledger: cannot open " + path);
  }
  for (const LedgerEntry& e : entries_) {
    std::string line = to_json(e).dump(0);
    line.push_back('\n');
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      std::fclose(f);
      return Status(Err::IO, "ledger: short write to " + path);
    }
  }
  std::fclose(f);
  return Status::ok();
}

Result<Ledger::LoadResult> Ledger::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(Err::NO_ENT, "ledger: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();

  LoadResult out = read_json_lines<LedgerEntry>(text.str());
  if (!out.malformed.empty()) {
    // Only the final line can be torn: this file is not a ledger.
    return Status(Err::PROTO, "ledger: malformed line: " +
                                  out.malformed.front().to_string());
  }
  return out;
}

}  // namespace zapc::obs
