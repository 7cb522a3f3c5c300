// Committed-image catalog: the supervisor's crash-safe record of every
// *restorable* «node, pod, URI» image set (DESIGN.md §12).
//
// The Manager's in-memory `last_metas_` dies with the Manager, and a
// half-finished COW drain must never look restorable — so the catalog is
// written only from the Manager's commit hook (all images renamed into
// place, drains included) and stored on the shared SAN where any future
// manager can read it.  Appends reuse the two-phase .tmp/rename
// discipline: the whole JSONL document is staged at `<path>.tmp` and
// renamed over the live object, so a crash mid-append leaves the
// previous generation intact.  Records themselves are append-only; the
// newest entry is always the newest committed set.  A line is the
// CatalogEntry's field list (json_io below), read strictly.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ckpt/image.h"
#include "obs/json.h"
#include "os/san.h"
#include "sim/engine.h"

namespace zapc::super {

/// One committed pod image: where it lives and everything needed to
/// restart it anywhere (the serialized NetMeta travels with the entry so
/// a recovery does not depend on any manager's cached state).
struct CatalogImage {
  std::string agent_ip;  // real address of the agent that wrote it
  u16 agent_port = 0;
  std::string pod;
  std::string uri;  // committed image location ("san://...")
  net::IpAddr vip{};
  ckpt::NetMeta meta;
};
template <class F>
void json_io(F& f, CatalogImage& m) {
  f("agent_ip", m.agent_ip);
  f("agent_port", m.agent_port);
  f("pod", m.pod);
  f("uri", m.uri);
  f("vip", obs::Text{m.vip});
  f("meta", obs::Hex{m.meta});
}

/// One committed coordinated checkpoint: the full restorable set.
struct CatalogEntry {
  obs::OpId op = 0;
  sim::Time t_us = 0;  // commit instant (virtual)
  std::vector<CatalogImage> images;
};
template <class F>
void json_io(F& f, CatalogEntry& m) {
  f.constant("schema", obs::kCatalogSchemaVersion);
  f("op", m.op);
  f("t_us", m.t_us);
  f("images", m.images);
}

/// One catalog line.
inline obs::Json catalog_entry_to_json(const CatalogEntry& e) {
  return obs::to_json(e);
}

class Catalog {
 public:
  /// Binds to the SAN object at `path` and loads whatever a previous
  /// manager committed there (empty catalog when absent).  A torn tail
  /// line is skipped, mirroring the ledger loader.
  explicit Catalog(os::VirtualSAN& san,
                   std::string path = "super/catalog");

  /// Appends one committed set: stage full document at `<path>.tmp`,
  /// rename over the live object.  On a staging failure the in-memory
  /// and on-SAN state both keep the previous generation.
  Status append(CatalogEntry e);

  const std::vector<CatalogEntry>& entries() const { return entries_; }
  /// The newest committed — hence restorable — set (nullopt when no
  /// checkpoint has ever committed).
  std::optional<CatalogEntry> latest() const;
  std::size_t size() const { return entries_.size(); }

  /// Lines skipped as torn on load (0 on a clean catalog).
  int skipped_torn() const { return skipped_torn_; }

 private:
  os::VirtualSAN& san_;
  std::string path_;
  std::vector<CatalogEntry> entries_;
  int skipped_torn_ = 0;
};

}  // namespace zapc::super
