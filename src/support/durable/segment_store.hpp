// Segmented, checksummed, compacting append-only record store.
//
// On disk a store is a directory of fixed-capacity segment files named
// seg-000000.qseg, seg-000001.qseg, ... scanned in id order. Each segment
// is a run of framed records:
//
//   u32le payload_len  (>= 1, <= kMaxPayloadBytes)
//   u32le crc          CRC32C over (payload_len bytes || payload)
//   payload
//
// The checksum covers the length prefix as well as the payload, so a
// zeroed page (a torn partial-page write) can never frame-parse: len 0 is
// rejected outright and any other zeroed header fails the CRC. The first
// payload byte is a record type: 'D' data records carry
// u32le key_len || key || value; 'F' is the segment footer, written once
// when a segment reaches capacity, carrying the segment's data-record
// count and a rollup CRC chained over each record's own CRC word. A
// segment ending in a valid footer is *sealed* — recovery can trust it
// without re-deriving; anything after a footer is garbage by definition.
//
// Recovery (`load()`) is strictly read-only so tests can replay crash
// prefixes against the same directory: it scans every segment, and on a
// frame that fails to parse it resyncs byte-by-byte looking for a later
// valid frame. A later valid frame means mid-file corruption (counted in
// ScanReport::corrupt_events); a failure that runs to end-of-file of the
// *last* segment is the ordinary torn tail a crash leaves. The torn bytes
// are only actually truncated away on the first subsequent append.
// Duplicate keys are expected — the store is a log, last writer wins, and
// the caller's index applies that rule; `compact()` rewrites the
// last-wins survivors into a single fresh segment, fsyncs it, renames it
// into place, fsyncs the directory, and only then unlinks the old
// segments, so a crash anywhere in compaction loses nothing (the
// compacted segment gets a higher id than every input, so id-ordered
// last-wins replay is unaffected by which side of the rename survives).
//
// Mutation ordering is typestate-enforced (see record.hpp): callers can
// only publish a record into an in-memory index by surrendering a Synced
// token, which this class only mints after write()+fdatasync succeeded.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "support/durable/record.hpp"

namespace qsm::support::durable {

inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;
inline constexpr char kSegmentSuffix[] = ".qseg";

struct StoreOptions {
  /// Seal the tail segment (footer + new file) once it holds at least this
  /// many bytes of records.
  std::size_t segment_bytes = std::size_t{1} << 18;
  SyncPolicy sync = SyncPolicy::Data;
  /// Compact after a seal when both thresholds are met.
  std::size_t compact_min_dead = 64;
  double compact_dead_ratio = 0.5;
  bool auto_compact = true;
};

struct StoreRecord {
  std::string key;
  std::string value;
};

/// What recovery found. `records` counts parsed data records including
/// duplicates; `live`/`dead` split them by last-writer-wins.
struct ScanReport {
  std::size_t segments = 0;
  std::size_t sealed = 0;
  std::uint64_t records = 0;
  std::uint64_t live = 0;
  std::uint64_t dead = 0;
  std::uint64_t corrupt_events = 0;
  bool torn_tail = false;
  std::uint64_t bytes = 0;
};

class SegmentStore {
 public:
  SegmentStore(std::string dir, StoreOptions options);
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Read-only scan of every segment in id order. Returns all parseable
  /// data records in scan order, duplicates included (the caller's index
  /// applies last-writer-wins by inserting them in order). Never writes:
  /// torn tails are noted in the report and repaired lazily by the first
  /// append. Safe to call repeatedly; each call rescans the directory.
  [[nodiscard]] std::vector<StoreRecord> load(ScanReport* report = nullptr);

  // -- The typestate pipeline ------------------------------------------
  /// Frame a record in memory. Pure; does not touch the store.
  [[nodiscard]] Pending make(std::string_view key,
                             std::string_view value) const;
  /// One write() to the tail segment (healing any torn tail first,
  /// sealing + rotating when full). nullopt = IO failure; nothing was
  /// published and the store is marked damaged for the next append to
  /// repair. Thread-safe.
  [[nodiscard]] std::optional<Written> append(Pending&& pending);
  /// Make everything up to `written` durable per the sync policy.
  /// nullopt = fdatasync failure, which vetoes publication. Fast no-op
  /// when a later sync already covered this sequence. Thread-safe.
  [[nodiscard]] std::optional<Synced> sync(Written&& written);
  /// Acknowledge that the caller's index now exposes this record.
  Indexed publish(Synced&& synced);

  /// Rewrite live (last-wins) records into one fresh sealed segment and
  /// remove the inputs. Returns false on IO failure (store left usable —
  /// at worst both old and new segments coexist, which replay tolerates).
  bool compact();

  // -- Introspection (all thread-safe) ---------------------------------
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const StoreOptions& options() const { return options_; }
  [[nodiscard]] std::uint64_t records() const;
  [[nodiscard]] std::uint64_t live_records() const;
  [[nodiscard]] std::uint64_t dead_records() const;
  [[nodiscard]] std::uint64_t indexed_records() const;
  [[nodiscard]] std::size_t segment_count() const;
  /// Id of the segment the next append lands in.
  [[nodiscard]] std::uint32_t tail_segment_id() const;
  /// Valid bytes in the tail segment (what survives a crash right now,
  /// ignoring any unhealed torn suffix).
  [[nodiscard]] std::uint64_t tail_bytes() const;

  [[nodiscard]] static std::string segment_name(std::uint32_t id);

 private:
  std::vector<StoreRecord> scan_locked(ScanReport* report);
  bool open_tail_locked();
  bool heal_locked();
  bool seal_locked();
  void maybe_compact_locked();
  bool compact_locked();
  bool sync_fd_locked(int fd) const;
  bool sync_dir_locked() const;

  std::string dir_;
  StoreOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint32_t tail_id_ = 0;
  std::uint64_t tail_valid_ = 0;   // valid bytes in the tail segment
  std::uint64_t tail_disk_ = 0;    // on-disk size (>= tail_valid_ if torn)
  std::uint64_t tail_records_ = 0;
  std::uint32_t tail_rollup_ = 0;  // incremental footer rollup CRC
  bool tail_sealed_ = false;       // scanned tail ended in a valid footer
  bool damaged_ = false;           // partial write; ftruncate before reuse
  bool scanned_ = false;

  std::uint64_t last_written_seq_ = 0;
  std::uint64_t synced_seq_ = 0;
  std::uint64_t sync_error_floor_ = 0;  // seqs <= this can never certify
  std::uint64_t indexed_ = 0;
  std::uint64_t records_ = 0;
  std::unordered_set<std::string> live_keys_;
  std::vector<std::uint32_t> segment_ids_;  // sorted, includes tail once open
};

}  // namespace qsm::support::durable
