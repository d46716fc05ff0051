// Content-addressed result cache for the experiment scheduler.
//
// One durable segment store per workload under the cache directory
// (outputs/.cache/<workload>.qstore by default — a directory of
// checksummed segment files, see support/durable/segment_store.hpp).
// Each record maps the canonical key text to the serialized result.
// Lookups compare the full key text, not just a hash, so collisions are
// impossible. Serialization round-trips doubles bit-exactly (%.17g),
// which is what lets a warm run regenerate byte-identical tables without
// executing a single simulation.
//
// Robustness contract: every record is framed with a CRC32C and appended
// with a single write(); the store's typestate pipeline
// (Pending -> Written -> Synced -> Indexed) and the order of a store —
// append, sync, then index insert — keep the in-memory index from getting
// ahead of durable state, so a crash at any instant recovers every record
// the index ever exposed. Reload classifies damage: torn_tail() is the
// benign crash artifact at the end of the log, corrupt_lines() counts
// mid-log corruption events (both just recompute the points).
// Failure rows (PointResult::status set) are cached like results;
// storing a fresh result for a key whose cached entry is a failure row
// appends a superseding record (last record wins on reload).
//
// One mutex guards the index and orders every load and store, so a
// store's skip-or-supersede check and its append cannot be split by a
// racing store of the same key. The sweep scheduler does every lookup
// before any compute and drains its stores one at a time, so the lock is
// not contended. store()/store_one() are safe from concurrent sweep jobs;
// lookup() is a single-consumer API whose pointer stays valid until the
// next store.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/point.hpp"
#include "support/durable/segment_store.hpp"
#include "support/json.hpp"

namespace qsm::harness {

class ResultCache {
 public:
  /// `dir` need not exist yet; it is created on the first store().
  /// `store_opts` tunes the durable store, most notably the sync policy
  /// (--cache-sync).
  ResultCache(std::string dir, std::string workload,
              support::durable::StoreOptions store_opts = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Loads the store on first use, then looks `key` up. Returns nullptr
  /// on a miss. The pointer stays valid until the next store().
  [[nodiscard]] const PointResult* lookup(const PointKey& key);

  /// Appends `batch` to the store and the in-memory index, skipping keys
  /// already present (unless the present entry is a failure row — those
  /// are superseded).
  void store(const std::vector<std::pair<PointKey, PointResult>>& batch);

  /// Appends one record: what the scheduler calls as each point completes,
  /// so a killed sweep keeps everything finished before the kill.
  void store_one(const PointKey& key, const PointResult& result);

  /// The segment-store directory for this workload (<dir>/<stem>.qstore).
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Entries usable after load (diagnostics).
  [[nodiscard]] std::size_t loaded_entries();
  /// True when the log ended in an unterminated record — the signature of
  /// a process killed mid-append (or a truncated copy).
  [[nodiscard]] bool torn_tail();
  /// Mid-log corruption events survived on load (these suggest real
  /// damage, unlike a torn tail).
  [[nodiscard]] std::size_t corrupt_lines();

  /// The durable store under the index (bench/introspection access).
  [[nodiscard]] support::durable::SegmentStore& durable_store() {
    return store_;
  }

  /// JSON object text for one result (stable field order).
  [[nodiscard]] static std::string serialize(const PointResult& r);
  /// Inverse of serialize(); nullopt when the value is malformed.
  [[nodiscard]] static std::optional<PointResult> deserialize(
      const support::JsonValue& v);

 private:
  /// Loads the store into the index on first use. Caller holds mu_.
  void load_locked();
  /// The skip-or-supersede check, then append, sync, index insert and
  /// publish. Caller holds mu_.
  void store_locked(const PointKey& key, const PointResult& result);

  std::string path_;  ///< segment-store directory
  support::durable::SegmentStore store_;
  /// Guards everything below and orders each store's append, sync and
  /// index insert against every other store and load.
  std::mutex mu_;
  bool loaded_{false};
  bool torn_tail_{false};
  std::size_t corrupt_lines_{0};
  std::unordered_map<std::string, PointResult> index_;
};

/// Maps a workload id to a safe file stem ([A-Za-z0-9_-], others -> '_').
[[nodiscard]] std::string cache_file_stem(std::string_view workload);

}  // namespace qsm::harness
