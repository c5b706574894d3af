#include "src/apps/kvstore.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace skyloft {

std::uint32_t KvStore::Hash(std::string_view key) {
  // FNV-1a, then a splitmix finalizer for better high bits.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return static_cast<std::uint32_t>(h >> 32);
}

void KvStore::Reserve(std::size_t keys) {
  entries_.reserve(keys);
  if ((keys + tombstones_) * 4 > index_.size() * 3) {
    Rehash(keys);
  }
}

void KvStore::Rehash(std::size_t keys) {
  std::size_t buckets = 16;
  while (buckets * 3 < keys * 4) {  // load factor at most 3/4
    buckets <<= 1;
  }
  const std::vector<Bucket> old = std::exchange(index_, std::vector<Bucket>(buckets, {0, kEmpty}));
  tombstones_ = 0;
  for (const Bucket& bucket : old) {
    if (bucket.entry < kTombstone) {
      std::size_t i = bucket.tag & (buckets - 1);
      while (index_[i].entry != kEmpty) {
        i = (i + 1) & (buckets - 1);
      }
      index_[i] = bucket;
    }
  }
}

std::size_t KvStore::Probe(std::string_view key, std::uint32_t tag, bool* found) const {
  *found = false;
  if (index_.empty()) {
    return 0;
  }
  // Set keeps at least a quarter of the buckets empty, so the probe ends.
  const std::size_t mask = index_.size() - 1;
  std::size_t insert = index_.size();
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const Bucket& bucket = index_[i];
    if (bucket.entry == kEmpty) {
      return insert != index_.size() ? insert : i;
    }
    if (bucket.entry == kTombstone) {
      insert = insert != index_.size() ? insert : i;
    } else if (bucket.tag == tag && entries_[bucket.entry].key == key) {
      *found = true;
      return i;
    }
  }
}

bool KvStore::Set(std::string_view key, std::string_view value) {
  if ((entries_.size() + tombstones_ + 1) * 4 > index_.size() * 3) {
    Rehash(entries_.size() + entries_.size() / 2 + 1);
  }
  const std::uint32_t tag = Hash(key);
  bool found = false;
  Bucket& bucket = index_[Probe(key, tag, &found)];
  if (found) {
    entries_[bucket.entry].value.assign(value);
    return false;
  }
  if (bucket.entry == kTombstone) {
    tombstones_--;
  }
  bucket = {tag, static_cast<std::uint32_t>(entries_.size())};
  entries_.push_back({std::string(key), std::string(value)});
  order_valid_ = false;
  return true;
}

const std::string* KvStore::Find(std::string_view key) const {
  bool found = false;
  const std::size_t i = Probe(key, Hash(key), &found);
  return found ? &entries_[index_[i].entry].value : nullptr;
}

std::optional<std::string> KvStore::Get(std::string_view key) const {
  const std::string* value = Find(key);
  return value != nullptr ? std::optional<std::string>(*value) : std::nullopt;
}

bool KvStore::Delete(std::string_view key) {
  bool found = false;
  const std::size_t at = Probe(key, Hash(key), &found);
  if (!found) {
    return false;
  }
  const std::uint32_t hole = index_[at].entry;
  index_[at].entry = kTombstone;
  tombstones_++;
  // Swap-remove: the last entry moves into the hole, and its bucket follows.
  const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (hole != last) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Hash(entries_[last].key) & mask;
    while (index_[i].entry != last) {
      i = (i + 1) & mask;
    }
    index_[i].entry = hole;
    entries_[hole] = std::move(entries_[last]);
  }
  entries_.pop_back();
  order_valid_ = false;
  return true;
}

std::vector<std::pair<std::string, std::string>> KvStore::Scan(std::string_view start,
                                                               std::size_t limit) const {
  if (!order_valid_) {  // refill the view with every entry number, sorted by key
    order_.resize(entries_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
      return entries_[a].key < entries_[b].key;
    });
    order_valid_ = true;
  }
  auto it = std::lower_bound(order_.begin(), order_.end(), start,
                             [this](std::uint32_t entry, std::string_view key) {
                               return entries_[entry].key < key;
                             });
  const auto count = std::min<std::size_t>(limit, static_cast<std::size_t>(order_.end() - it));
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(count);
  for (const auto end = it + static_cast<std::ptrdiff_t>(count); it != end; ++it) {
    const Entry& entry = entries_[*it];
    out.emplace_back(entry.key, entry.value);
  }
  return out;
}

}  // namespace skyloft
