// kv's value encoding and the driver-side consistency oracle.
//
// Every value encodes its key and version: a 16-byte header {key, version,
// length} followed by bytes derived from (seed, key, version), so a torn,
// misrouted or stale value is recognisable wherever it is read.
//
// The model tracks, per key, the last version issued and the last version
// acknowledged.  A read issued when version `lo` was the last acknowledged
// one must return a version in [lo, last issued]; a final sweep checks
// every stored key the same way once traffic has stopped.
#pragma once

#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ValueHdr {
  uint64_t key;
  uint32_t version;
  uint32_t len;
};

/// Value size for (key, version): 64 B - 1 KiB, fixed by the seed.
inline uint32_t value_len(uint64_t seed, uint64_t key, uint32_t version) {
  return 64 + static_cast<uint32_t>(
                  mix64(seed * 31 + key * 0x10001ull + version) % 961);
}

inline uint64_t value_word(uint64_t seed, uint64_t key, uint32_t version,
                           size_t i) {
  return mix64((seed << 1) ^ (key << 20) ^ (uint64_t{version} << 44) ^ i);
}

inline void fill_value(uint64_t seed, uint64_t key, uint32_t version,
                       uint8_t* out) {
  const uint32_t len = value_len(seed, key, version);
  ValueHdr h{key, version, len};
  std::memcpy(out, &h, sizeof h);
  for (size_t off = sizeof h, i = 0; off < len; off += 8, ++i) {
    uint64_t w = value_word(seed, key, version, i);
    std::memcpy(out + off, &w, std::min<size_t>(8, len - off));
  }
}

/// Check a value's bytes against its own header.
inline bool check_value(uint64_t seed, const uint8_t* v, size_t len,
                        uint64_t* key, uint32_t* version) {
  if (len < sizeof(ValueHdr)) return false;
  ValueHdr h;
  std::memcpy(&h, v, sizeof h);
  if (h.len != len || value_len(seed, h.key, h.version) != len) return false;
  for (size_t off = sizeof h, i = 0; off < len; off += 8, ++i) {
    uint64_t w = value_word(seed, h.key, h.version, i);
    if (std::memcmp(v + off, &w, std::min<size_t>(8, len - off)) != 0)
      return false;
  }
  *key = h.key;
  *version = h.version;
  return true;
}

class KvModel {
 public:
  /// Every key starts preloaded at version 1.
  KvModel(uint64_t keys, uint64_t seed)
      : issued_(keys, 1), acked_(keys, 1), seed_(seed) {}

  uint32_t issue_update(uint64_t key) {
    std::lock_guard<std::mutex> g(mu_);
    return ++issued_[key];
  }
  uint32_t read_floor(uint64_t key) {
    std::lock_guard<std::mutex> g(mu_);
    return acked_[key];
  }
  /// An update was acknowledged; the store reports the version it holds
  /// (last writer by version wins, so never below the one sent).
  std::string ack_update(uint64_t key, uint32_t sent, uint32_t stored) {
    std::lock_guard<std::mutex> g(mu_);
    if (stored < sent || stored > issued_[key])
      return "key " + std::to_string(key) + ": update v" + std::to_string(sent) +
             " acknowledged holding v" + std::to_string(stored);
    if (sent > acked_[key]) acked_[key] = sent;
    return {};
  }

  std::string check_read(uint64_t key, uint32_t lo, const uint8_t* v,
                         size_t len) {
    uint64_t got_key = 0;
    uint32_t ver = 0;
    if (!check_value(seed_, v, len, &got_key, &ver) || got_key != key)
      return "key " + std::to_string(key) + ": read returned corrupt bytes";
    std::lock_guard<std::mutex> g(mu_);
    if (ver < lo || ver > issued_[key])
      return "key " + std::to_string(key) + ": stale read v" +
             std::to_string(ver) + " outside [" + std::to_string(lo) + ", " +
             std::to_string(issued_[key]) + "]";
    return {};
  }

  /// Sweep entry: `version` is UINT32_MAX when the owner found the stored
  /// bytes inconsistent with their header.
  std::string check_final(uint64_t key, uint64_t version) {
    std::lock_guard<std::mutex> g(mu_);
    if (key >= acked_.size())
      return "sweep returned unknown key " + std::to_string(key);
    if (version < acked_[key] || version > issued_[key])
      return "key " + std::to_string(key) + ": sweep found v" +
             std::to_string(version) + " outside [" +
             std::to_string(acked_[key]) + ", " +
             std::to_string(issued_[key]) + "]";
    return {};
  }
  void count_swept(uint64_t n) { swept_ += n; }
  uint64_t swept() const { return swept_; }

 private:
  std::mutex mu_;
  std::vector<uint32_t> issued_, acked_;
  uint64_t seed_;
  uint64_t swept_ = 0;
};

}  // namespace perfbench
