// A real in-memory key-value store with GET/SET/SCAN, in the spirit of the
// Memcached / RocksDB servers of §5.3. Used by the host-runtime examples
// (actual hash lookups on actual threads) and by the application tests.
//
// Entries live densely in one vector; an open-addressing index of 8-byte
// buckets (32-bit hash tag, 32-bit entry number) finds them by linear
// probing. Delete swap-removes the last entry into the hole. The ordered view
// SCAN needs is a sorted vector of entry numbers, rebuilt lazily on the first
// Scan() after a new key or a Delete; overwrites and index growth keep it
// (DESIGN.md §14). Nothing is allocated before the first Set or Reserve.
// Not thread-safe by itself, and that includes Scan(), which may rebuild
// the view: callers serialize through the runtime's mutex (as the example
// server does) or shard per core.
#ifndef SRC_APPS_KVSTORE_H_
#define SRC_APPS_KVSTORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace skyloft {

class KvStore {
 public:
  // Sizes the entries and the index for `keys` keys, so that inserting that
  // many grows neither.
  void Reserve(std::size_t keys);

  // Inserts or overwrites. Returns true if the key was new.
  bool Set(std::string_view key, std::string_view value);

  // The stored value, or nullptr. Valid until the next Set or Delete.
  const std::string* Find(std::string_view key) const;

  std::optional<std::string> Get(std::string_view key) const;

  bool Delete(std::string_view key);

  // Ordered range scan: up to `limit` (key, value) pairs with key >= start.
  // Costs one binary search plus `limit` steps once the ordered view is
  // built; a new key or a Delete invalidates the view, an overwrite or an
  // index growth does not.
  std::vector<std::pair<std::string, std::string>> Scan(std::string_view start,
                                                        std::size_t limit) const;

  std::size_t Size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  // `entry` is an index into `entries_`, or one of the two sentinels.
  struct Bucket {
    std::uint32_t tag;
    std::uint32_t entry;
  };
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  static constexpr std::uint32_t kTombstone = UINT32_MAX - 1;

  static std::uint32_t Hash(std::string_view key);
  // Rebuilds the index with room for `keys` keys, dropping tombstones.
  void Rehash(std::size_t keys);
  // Bucket holding `key`, or the bucket to insert it at (*found = false).
  std::size_t Probe(std::string_view key, std::uint32_t tag, bool* found) const;

  std::vector<Entry> entries_;
  std::vector<Bucket> index_;
  std::size_t tombstones_ = 0;
  // Ordered view for SCAN (RocksDB-style range queries): indices into
  // `entries_`, valid only while `order_valid_`.
  mutable std::vector<std::uint32_t> order_;
  mutable bool order_valid_ = false;
};

}  // namespace skyloft

#endif  // SRC_APPS_KVSTORE_H_
