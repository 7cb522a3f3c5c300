#include "os/san.h"

#include <algorithm>

#include "fault/fault.h"

namespace zapc::os {

Status VirtualSAN::write(const std::string& path, Bytes data) {
  if (fault::injector().enabled()) {
    auto v = fault::injector().on_san_write(path, data.size());
    if (v.fail) return Status(Err::IO, "injected write failure: " + path);
    if (v.keep_bytes < data.size()) {
      data.resize(v.keep_bytes);  // torn object, reported as success
    }
  }
  objects_[path] = std::move(data);
  return Status::ok();
}

Status VirtualSAN::rename(const std::string& from, const std::string& to) {
  auto it = objects_.find(from);
  if (it == objects_.end()) return Status(Err::NO_ENT, from);
  if (from == to) return Status::ok();
  auto old = objects_.find(to);
  if (old != objects_.end()) spares_[to] = std::move(old->second);
  objects_[to] = std::move(it->second);
  objects_.erase(it);
  return Status::ok();
}

Bytes VirtualSAN::take_spare(const std::string& path) {
  auto it = spares_.find(path);
  if (it == spares_.end()) return Bytes{};
  Bytes spare = std::move(it->second);
  spares_.erase(it);
  return spare;
}

void VirtualSAN::append(const std::string& path, const Bytes& data) {
  Bytes& obj = objects_[path];
  obj.insert(obj.end(), data.begin(), data.end());
}

Result<Bytes> VirtualSAN::read(const std::string& path) const {
  auto it = objects_.find(path);
  if (it == objects_.end()) return Status(Err::NO_ENT, path);
  return it->second;
}

Result<const Bytes*> VirtualSAN::view(const std::string& path) const {
  auto it = objects_.find(path);
  if (it == objects_.end()) return Status(Err::NO_ENT, path);
  return &it->second;
}

Result<Bytes> VirtualSAN::read_at(const std::string& path, std::size_t offset,
                                  std::size_t len) const {
  auto it = objects_.find(path);
  if (it == objects_.end()) return Status(Err::NO_ENT, path);
  const Bytes& obj = it->second;
  if (offset >= obj.size()) return Bytes{};
  len = std::min(len, obj.size() - offset);
  return Bytes(obj.begin() + static_cast<std::ptrdiff_t>(offset),
               obj.begin() + static_cast<std::ptrdiff_t>(offset + len));
}

Result<std::size_t> VirtualSAN::size_of(const std::string& path) const {
  auto it = objects_.find(path);
  if (it == objects_.end()) return Status(Err::NO_ENT, path);
  return it->second.size();
}

u64 VirtualSAN::stream_begin(SanStreamClass cls) {
  u64 id = next_stream_++;
  streams_[id] = cls;
  if (cls == SanStreamClass::FOREGROUND) {
    ++foreground_;
  } else {
    ++background_;
  }
  return id;
}

void VirtualSAN::stream_end(u64 id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) return;
  if (it->second == SanStreamClass::FOREGROUND) {
    if (foreground_ > 0) --foreground_;
  } else {
    if (background_ > 0) --background_;
  }
  streams_.erase(it);
}

double VirtualSAN::stream_share(u64 id) const {
  auto it = streams_.find(id);
  if (it == streams_.end()) return 1.0;
  const double floor = background_ > 0 ? qos_.background_floor : 0.0;
  if (it->second == SanStreamClass::FOREGROUND) {
    // Foregrounds split everything above the drains' trickle floor.
    return (1.0 - floor) / static_cast<double>(foreground_);
  }
  // Drains: the floor while any foreground is active, the whole pipe
  // otherwise — split evenly either way, each clipped at drain_cap.
  double pool = foreground_ > 0 ? qos_.background_floor : 1.0;
  double share = pool / static_cast<double>(background_);
  return std::min(share, qos_.drain_cap);
}

bool VirtualSAN::exists(const std::string& path) const {
  return objects_.count(path) != 0;
}

Status VirtualSAN::remove(const std::string& path) {
  spares_.erase(path);
  return objects_.erase(path) > 0 ? Status::ok() : Status(Err::NO_ENT, path);
}

std::vector<std::string> VirtualSAN::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

std::size_t VirtualSAN::snapshot(const std::string& prefix,
                                 const std::string& snapshot_prefix) {
  std::vector<std::pair<std::string, Bytes>> copies;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    copies.emplace_back(snapshot_prefix + it->first.substr(prefix.size()),
                        it->second);
  }
  for (auto& [path, data] : copies) objects_[path] = std::move(data);
  return copies.size();
}

std::size_t VirtualSAN::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [path, data] : objects_) n += data.size();
  return n;
}

}  // namespace zapc::os
