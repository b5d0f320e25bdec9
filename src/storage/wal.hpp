#pragma once
// Write-ahead action log for the finalized chain (DESIGN_PERF.md
// "Durability").
//
// Append-only segments of length-prefixed, checksummed finalized blocks,
// reusing the serde Block encoding. Layout on disk:
//
//   <dir>/wal-<first_slot, 20 digits>.seg
//     [ header: magic 'TBWL' u32 | version u32 | first_slot u64 ]
//     [ record: len u32 | fnv1a64(block bytes) u64 | block bytes ]*
//
// A segment is named after the first slot it MAY contain (the slot after
// the durable tip when it was opened; a segment can be empty). Rotation
// opens a fresh segment once the current one passes `segment_bytes`;
// reclaim() deletes segments whose entire content is covered by a durable
// checkpoint. Recovery replays every record after the checkpoint slot,
// verifying length, checksum and parent linkage; the first bad record
// (torn tail from a crash mid-write) truncates the segment there and drops
// any later segments -- everything before the tear survives.
//
// Durability contract: records are fflush()ed every `flush_every` appends
// (and at checkpoint time), which survives process death (kill -9). Power-
// loss durability (fsync) is deliberately out of scope -- see the
// "Durability" section of DESIGN_PERF.md.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/serde.hpp"
#include "multishot/block.hpp"

namespace tbft::storage {

struct WalStats {
  std::uint64_t appended{0};         ///< records written this life
  std::uint64_t segments_opened{0};  ///< segments created this life
  std::uint64_t segments_reclaimed{0};
  std::uint64_t recovered{0};        ///< records replayed by recover()
  bool truncated_tail{false};        ///< recover() dropped a torn/corrupt tail
};

struct WalRecoveryResult {
  std::vector<multishot::Block> blocks;  ///< consecutive, parent-linked, slot order
  bool truncated{false};                 ///< a torn/corrupt tail was dropped
};

/// One per node data directory. Not thread-safe: the owning node appends
/// from its runner thread only; recovery happens before the thread starts.
class WriteAheadLog {
 public:
  static constexpr std::uint32_t kMagic = 0x4C57'4254;  // 'TBWL' little-endian
  static constexpr std::uint32_t kVersion = 1;

  /// Opens (creates) `dir`. No segment is opened until the first append.
  WriteAheadLog(std::filesystem::path dir, std::size_t segment_bytes,
                std::uint32_t flush_every);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Replay every valid record with slot > `after`, starting linkage at
  /// `parent_hash` (the checkpoint's boundary hash). Records at or below
  /// `after` are skipped (they are covered by the checkpoint). Stops -- and
  /// truncates the log there -- at the first torn, corrupt, out-of-order or
  /// unlinked record. Call before the first append().
  WalRecoveryResult recover(Slot after, std::uint64_t parent_hash);

  /// Append one finalized block (must be called in slot order). Throws
  /// std::runtime_error on I/O failure -- a replica that cannot persist must
  /// not acknowledge.
  void append(const multishot::Block& b);

  /// Flush buffered records to the OS (process-death durability point).
  void flush();

  /// Delete whole segments whose every record is at or below `upto` (their
  /// content is covered by a durable checkpoint). The active segment is
  /// never deleted.
  void reclaim(Slot upto);

  [[nodiscard]] const WalStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  struct Segment {
    Slot first_slot{0};
    std::filesystem::path path;
  };

  [[nodiscard]] std::vector<Segment> list_segments() const;
  void open_segment(Slot first_slot);
  void close_segment();

  std::filesystem::path dir_;
  std::size_t segment_bytes_;
  std::uint32_t flush_every_;
  std::FILE* file_{nullptr};
  std::filesystem::path file_path_;
  std::size_t file_bytes_{0};
  std::uint32_t unflushed_{0};
  Slot last_slot_{0};  ///< highest slot ever appended/recovered this life
  WalStats stats_{};
  /// Record encode buffer, reused across appends: grows to the largest
  /// block once, so steady-state appends allocate nothing.
  serde::Writer scratch_;
};

}  // namespace tbft::storage
