// SideFile (§7.2): the append-only system table that absorbs base-page
// updates made by user transactions while pass 3 rebuilds the upper levels.
//
// Concurrency follows the paper: an updater that needs to record an entry
// holds an IX lock on the side-file table (kept to end of transaction, which
// is what lets the switcher's X lock drain all in-flight updaters) and an X
// lock on the entry key. If the IX lock is unavailable the switch is in
// progress: the updater waits it out with an *instant-duration* IX request
// and then retries its operation against the new tree (MaybeRecord returns
// kBusy).
//
// Durability: every insertion is logged under the inserting transaction
// (kSideInsert); applications by the reorganizer are logged as kSideApply.
// The full entry list is also serialized into each checkpoint, and recovery
// prunes entries whose key lies beyond the most recent stable key (§7.3) —
// the builder will re-read those base pages anyway.

#ifndef SOREORG_REORG_SIDE_FILE_H_
#define SOREORG_REORG_SIDE_FILE_H_

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/txn/lock_manager.h"
#include "src/util/status.h"
#include "src/wal/log_manager.h"

namespace soreorg {

struct SideEntry {
  BaseUpdateOp op;
  std::string key;
  PageId leaf = kInvalidPageId;
  /// Monotonic insertion tag, assigned under the side-file mutex. PopFront
  /// re-verifies the front by seq after waiting out the recording
  /// transaction: field equality (op, key, leaf) is ABA-prone — a cancel
  /// followed by a fresh insert of the same logical update would pass the
  /// check while the new entry's transaction is still in flight. Not
  /// serialized; restart re-tags restored entries.
  uint64_t seq = 0;
};

class SideFile {
 public:
  SideFile(LockManager* locks, LogManager* log);

  /// Record a base-page change from a user transaction (already holding the
  /// base page X lock). Returns kBusy if the switch completed while waiting,
  /// in which case the caller retries its update against the new tree.
  Status Record(Transaction* txn, BaseUpdateOp op, const Slice& key,
                PageId leaf);

  /// Accept recordings (reorg start). The side file starts open.
  void Open();

  /// Stop accepting recordings: every later Record returns kBusy even if
  /// the table lock is free. Called by the Switcher — under the side-file X
  /// lock — just before it dismantles the pass-3 state, closing the race
  /// where an updater captured the base-update hook before cleanup cleared
  /// it and would otherwise insert a phantom entry nobody will ever drain.
  void Close();
  bool closed() const;

  /// Remove one entry (FIFO) for the reorganizer to apply; logs kSideApply.
  /// Sets *empty when nothing was pending. Acquires (and releases) the
  /// entry's record lock under the reorganizer id first, so an entry whose
  /// recording transaction is still in flight — and might still cancel it —
  /// is not consumed early (§7.2 record-level locking). The front is
  /// re-verified by SideEntry::seq after the wait; if it changed too many
  /// times in a row the retryable kBusy is returned and the caller simply
  /// calls again (progress was made by whoever kept changing the front).
  Status PopFront(SideEntry* entry, bool* empty);

  /// Compensate a recorded entry whose structure modification failed and
  /// will be retried or abandoned: drop the newest matching entry and log
  /// kSideCancel under the transaction's chain. No-op if nothing matches
  /// (the hook may not have recorded anything).
  void Cancel(Transaction* txn, BaseUpdateOp op, const Slice& key,
              PageId leaf);

  /// Undo of a kSideInsert (user transaction rollback): drop the newest
  /// matching entry.
  void UndoInsert(BaseUpdateOp op, const Slice& key);

  size_t size() const;
  uint64_t total_recorded() const;
  void Clear();

  /// Checkpoint/restart support. The image carries a watermark: the LSN of
  /// the newest side log record whose effect the entry list reflects.
  /// Record/PopFront/Cancel append their log record and mutate the list
  /// under one mutex hold, so the watermark is exact — recovery skips side
  /// records at or below it (RedoInsert/RedoApply are not idempotent) and
  /// replays only the tail the image has not seen.
  std::string Serialize() const;
  Status Restore(const Slice& image);
  /// Watermark carried by the image Restore() consumed (0 if none).
  Lsn restored_lsn() const;
  /// Re-apply a logged insertion during recovery redo.
  void RedoInsert(BaseUpdateOp op, const Slice& key, PageId leaf);
  /// Drop one entry during recovery redo of kSideApply.
  void RedoApply();
  /// Drop the newest matching entry during recovery redo of kSideCancel.
  void RedoCancel(BaseUpdateOp op, const Slice& key, PageId leaf);
  /// Re-add an entry (undo of kSideCancel during loser rollback).
  void ReAdd(BaseUpdateOp op, const Slice& key, PageId leaf);
  /// §7.3: entries past the most recent stable key will be re-read by the
  /// restarted builder — drop them.
  void PruneBeyond(const Slice& stable_key);

 private:
  LockManager* locks_;
  LogManager* log_;

  mutable std::mutex mu_;
  std::deque<SideEntry> entries_;
  uint64_t total_recorded_ = 0;
  uint64_t next_seq_ = 0;  // SideEntry::seq source; guarded by mu_
  bool closed_ = false;    // set under the side-file X lock; guarded by mu_
  /// LSN of the newest side record reflected in entries_; guarded by mu_.
  /// Updated atomically with the list mutation it describes, so a
  /// checkpoint's Serialize() snapshot is exact.
  Lsn last_lsn_ = kInvalidLsn;
  Lsn restored_lsn_ = kInvalidLsn;  // watermark from the restored image
};

}  // namespace soreorg

#endif  // SOREORG_REORG_SIDE_FILE_H_
