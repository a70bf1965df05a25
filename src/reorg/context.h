// Shared state threaded through the reorganization passes.

#ifndef SOREORG_REORG_CONTEXT_H_
#define SOREORG_REORG_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <vector>

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

  /// Appends `rec` as a record of unit `unit`: stamps the reorganizer's txn
  /// id, the unit and, after BEGIN, the unit's prev_lsn chain, and records
  /// the LSN in the table. BEGIN opens the unit in the table. END is
  /// flushed, closes the unit and advances LK to its key; the flush status
  /// is returned.
  Status Log(uint32_t unit, LogRecord* rec) {
    rec->txn_id = kReorgTxnId;
    rec->unit = unit;
    if (rec->type == LogType::kReorgBegin) {
      log->Append(rec);
      table->BeginUnit(unit, rec->lsn);
      return Status::OK();
    }
    rec->prev_lsn = table->recent_lsn();
    if (rec->type == LogType::kReorgEnd) {
      Status s = log->AppendAndFlush(rec);
      table->EndUnit(rec->key);
      return s;
    }
    log->Append(rec);
    table->RecordLsn(rec->lsn);
    return Status::OK();
  }
};

/// The locks one unit attempt holds. They are released in reverse order of
/// acquisition when the holder goes out of scope, on every return path.
class UnitLocks {
 public:
  explicit UnitLocks(LockManager* locks) : locks_(locks) {}
  UnitLocks(const UnitLocks&) = delete;
  UnitLocks& operator=(const UnitLocks&) = delete;
  ~UnitLocks() {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      locks_->Unlock(kReorgTxnId, *it);
    }
  }

  Status Lock(const LockName& name, LockMode mode) {
    Status s = locks_->Lock(kReorgTxnId, name, mode);
    if (s.ok()) held_.push_back(name);
    return s;
  }
  /// Takes over a lock the reorganizer acquired elsewhere.
  void Adopt(const LockName& name) { held_.push_back(name); }

 private:
  LockManager* locks_;
  std::vector<LockName> held_;
};

}  // namespace soreorg

#endif  // SOREORG_REORG_CONTEXT_H_
