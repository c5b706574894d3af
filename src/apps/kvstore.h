// A real in-memory key-value store with GET/SET/SCAN, in the spirit of the
// Memcached / RocksDB servers of §5.3. Used by the host-runtime examples
// (actual hash lookups on actual threads) and by the application tests.
//
// Open addressing with linear probing. Keys live only in the hash slots; the
// ordered view SCAN needs is a sorted vector of full-slot indices, rebuilt
// lazily on the first Scan() after the key set changed (DESIGN.md §14).
// Not thread-safe by itself, and that includes Scan(), which may rebuild
// the view: callers serialize through the runtime's mutex (as the example
// server does) or shard per core.
#ifndef SRC_APPS_KVSTORE_H_
#define SRC_APPS_KVSTORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace skyloft {

class KvStore {
 public:
  explicit KvStore(std::size_t initial_buckets = 1024);

  // Inserts or overwrites. Returns true if the key was new.
  bool Set(const std::string& key, const std::string& value);

  std::optional<std::string> Get(const std::string& key) const;

  bool Delete(const std::string& key);

  // Ordered range scan: up to `limit` (key, value) pairs with key >= start.
  // Costs one binary search plus `limit` steps once the ordered view is
  // built; an insert of a new key, a Delete or a Grow invalidates the view,
  // an overwrite does not.
  std::vector<std::pair<std::string, std::string>> Scan(const std::string& start,
                                                        std::size_t limit) const;

  std::size_t Size() const { return size_; }

 private:
  struct Slot {
    enum class State : std::uint8_t { kEmpty, kFull, kTombstone };
    State state = State::kEmpty;
    std::uint64_t hash = 0;
    std::string key;
    std::string value;
  };

  static std::uint64_t Hash(const std::string& key);
  void Grow();
  // Returns slot index for key: the match if present, else the insert slot.
  std::size_t Probe(const std::string& key, std::uint64_t hash, bool* found) const;
  // Refills `order_` with the full slots' indices, sorted by key.
  void BuildOrder() const;

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  // Ordered view for SCAN (RocksDB-style range queries): indices into
  // `slots_`, valid only while `order_valid_`.
  mutable std::vector<std::uint32_t> order_;
  mutable bool order_valid_ = false;
};

}  // namespace skyloft

#endif  // SRC_APPS_KVSTORE_H_
