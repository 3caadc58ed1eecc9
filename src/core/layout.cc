#include "core/layout.h"

#include "fs/wire.h"

namespace loco::core {

std::vector<std::string> ListDirents(const kv::Kv& store, fs::Uuid dir) {
  std::vector<std::string> names;
  (void)store.VisitPrefix(
      DirentPrefix(dir), 0, [&names](std::string_view key, std::string_view) {
        names.emplace_back(key.substr(kDirentRouteBytes));
        return true;
      });
  return names;
}

bool HasDirents(const kv::Kv& store, fs::Uuid dir) {
  bool any = false;
  (void)store.VisitPrefix(DirentPrefix(dir), 1,
                          [&any](std::string_view, std::string_view) {
                            any = true;
                            return false;
                          });
  return any;
}

std::size_t DeleteDirents(kv::Kv* store, fs::Uuid dir) {
  // Collect first: a visitor must not call back into the store.
  std::vector<std::string> keys;
  (void)store->VisitPrefix(DirentPrefix(dir), 0,
                           [&keys](std::string_view key, std::string_view) {
                             keys.emplace_back(key);
                             return true;
                           });
  for (const std::string& key : keys) (void)store->Delete(key);
  return keys.size();
}

std::map<std::uint64_t, std::vector<std::string>> DirentsByDir(
    const kv::Kv& store) {
  // A directory's records sit in one stripe of an ordered store, so each
  // list comes out in name order.
  std::map<std::uint64_t, std::vector<std::string>> dirs;
  store.ForEach([&dirs](std::string_view key, std::string_view) {
    if (key.size() < kDirentRouteBytes) return true;
    dirs[common::LoadAt<std::uint64_t>(key, 0)].emplace_back(
        key.substr(kDirentRouteBytes));
    return true;
  });
  return dirs;
}

std::string DirentScanPayload(const kv::Kv& store) {
  std::vector<std::string> entries;
  for (const auto& [dir_raw, names] : DirentsByDir(store)) {
    entries.push_back(fs::Pack(fs::Uuid(dir_raw), names));
  }
  return fs::Pack(entries);
}

}  // namespace loco::core
