// Shared state threaded through the reorganization passes.

#ifndef SOREORG_REORG_CONTEXT_H_
#define SOREORG_REORG_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "src/btree/btree.h"
#include "src/reorg/reorg_log.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/txn/lock_manager.h"
#include "src/wal/log_manager.h"

namespace soreorg {

struct ReorgStats {
  uint64_t units = 0;
  uint64_t compact_units = 0;   // in-place compactions (pass 1)
  uint64_t move_units = 0;      // copy-switch to an empty page (pass 1 + 2)
  uint64_t swap_units = 0;      // pairwise swaps (pass 2)
  uint64_t records_moved = 0;
  uint64_t pages_freed = 0;
  uint64_t unit_retries = 0;    // deadlock-victim retries (§4.1, §5.2)
  uint64_t side_entries_applied = 0;
  /// Entries skipped by the drain's seq high-water mark (already applied in
  /// an earlier catch-up round; §7.4 step-aside re-drains).
  uint64_t side_duplicates_skipped = 0;
  /// Entries whose application found the base change already present — the
  /// recording updater also applied it directly after a Busy redirect — and
  /// verified the no-op instead of failing on the duplicate separator.
  uint64_t side_reapplied_noops = 0;
  uint64_t stable_points = 0;
  uint64_t units_resumed = 0;   // forward-recovery completions
};

/// Retries per pass-1/pass-2 unit after a deadlock abort (the reorganizer
/// is always the victim, §4.1).
inline constexpr int kMaxUnitRetries = 16;

struct ReorgContext {
  BTree* tree = nullptr;
  BufferPool* bp = nullptr;
  LogManager* log = nullptr;
  LockManager* locks = nullptr;
  DiskManager* disk = nullptr;
  ReorgTable* table = nullptr;
  ReorgStats* stats = nullptr;

  /// §5: with careful writing enforced by the buffer pool, MOVE records
  /// carry keys only; otherwise full record bodies.
  bool careful_writing = true;

  /// Monotonically increasing reorganization unit number.
  std::atomic<uint32_t> next_unit{1};
};

}  // namespace soreorg

#endif  // SOREORG_REORG_CONTEXT_H_
