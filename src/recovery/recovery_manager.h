// RecoveryManager: restart processing.
//
// Standard part (ARIES-lite, [GR93]):
//   * analysis — locate the latest checkpoint, restore allocation state,
//     the active-transaction table, the reorganization table and the side
//     file image;
//   * redo — replay the log forward, pageLSN-idempotently, including the
//     reorganizer's MOVE/MODIFY records. Redo only fetches their pages,
//     gates each page on its LSN and refuses a stale page of the wrong
//     type; the page effect itself is the one the passes apply live
//     (src/reorg/reorg_log.h). Keys-only MOVE redo relies on the
//     careful-writing invariant: a source page whose move is not yet
//     reflected on disk still holds the record bodies;
//   * undo — roll back loser transactions *logically* with CLRs.
//
// Paper-specific part (§5.1, Forward Recovery): the one possibly-incomplete
// reorganization unit is NOT undone. Its records are collected and handed
// to Reorganizer::FinishIncompleteUnit, which re-acquires the unit's locks
// and completes the remaining work. For the E4 ablation an explicit
// kRollback policy is also implemented: the unit's records are walked
// backwards, and each one's compensation (ReorgCompensation) is logged and
// then applied the way redo applies it. The unit's work is lost, exactly
// what the paper's comparison baseline does, and redo after a later crash
// replays the rollback like any other logged work.
//
// Pass-3 restart (§7.3): internal-page allocations after the most recent
// STABLE_KEY record are reclaimed, side-file entries beyond the stable key
// are pruned, and the (stable key, partial-tree top) pair is reported so
// the caller can resume TreeBuilder from there.

#ifndef SOREORG_RECOVERY_RECOVERY_MANAGER_H_
#define SOREORG_RECOVERY_RECOVERY_MANAGER_H_

#include <map>
#include <vector>

#include "src/btree/btree.h"
#include "src/reorg/side_file.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/wal/checkpoint.h"
#include "src/wal/log_manager.h"

namespace soreorg {

enum class RecoveryPolicy : uint8_t {
  kForward = 0,   // the paper's contribution
  kRollback = 1,  // conventional: abort the incomplete unit
};

struct RecoveryResult {
  PageId tree_root = kInvalidPageId;
  uint8_t tree_height = 0;
  uint64_t tree_incarnation = 1;
  TxnId next_txn_id = kFirstUserTxnId;
  ReorgTableSnapshot reorg;
  std::vector<std::pair<TxnId, Lsn>> losers;
  /// Records (BEGIN..last) of the one possibly-incomplete reorg unit.
  std::vector<LogRecord> incomplete_unit_records;
  /// Pass-3 restart point (empty stable key = no build in progress).
  std::string pass3_stable_key;
  PageId pass3_partial_top = kInvalidPageId;

  uint64_t records_scanned = 0;
  uint64_t records_redone = 0;
  uint64_t pass3_pages_reclaimed = 0;

  // I/O forensics for this recovery. A torn WAL tail is the normal
  // post-crash state (surfaced here, not an error); mid-log corruption and
  // page-checksum failures make Recover return Status::Corruption instead.
  bool wal_tail_torn = false;
  uint64_t wal_bytes_dropped = 0;
  uint64_t page_checksum_failures = 0;

  // Segment-level forensics (segmented WAL). segments_scanned counts the
  // segments redo actually visited — after a checkpoint it is bounded by
  // the log written since the redo floor, not by the log ever written.
  uint64_t segments_scanned = 0;
  uint64_t segments_recycled = 0;
  bool tail_segment_torn = false;
  uint64_t wal_bytes_scanned = 0;  // redo scan volume, for MB/s reporting

  // Redo-lane forensics. With redo_threads = 1 redo runs the serial oracle
  // on one lane; otherwise page-redo records are grouped into page-disjoint
  // components, each replayed to its end by one of this many lanes
  // (per-lane counters are distinct pages touched / records replayed).
  int redo_threads_used = 1;
  std::vector<uint64_t> redo_pages_per_thread;
  std::vector<uint64_t> redo_records_per_thread;
};

class RecoveryManager {
 public:
  RecoveryManager(DiskManager* disk, BufferPool* bp, LogManager* log,
                  CheckpointMaster* master, SideFile* side_file);

  /// Redo lanes: 0 = page by page on the recovering thread, 1 = serial
  /// replay in global log order (the verification oracle), N>1 = N
  /// page-by-page lanes. Page by page, records are grouped into page-disjoint
  /// components and each component is replayed to its end, in log order,
  /// before its lane takes the next one, so a page is fetched about once.
  /// Any order of components gives the log-order images: page redo is gated
  /// by each page's LSN, components share no page, and all allocation
  /// replay finishes, in log order, before any page redo starts.
  void set_redo_threads(int n) { redo_threads_ = n; }

  /// Analysis + redo. Call before constructing/attaching the BTree.
  Status Recover(RecoveryResult* result);

  /// Logical undo of loser transactions with CLRs (call after Attach).
  Status UndoLosers(BTree* tree, const RecoveryResult& result);

  /// kRollback policy only (E4 ablation): log and apply the compensation of
  /// each of the incomplete unit's records, newest first, then log its END.
  Status UndoIncompleteUnit(BTree* tree, const RecoveryResult& result);

  /// Rewrite every leaf's prev/next from key order (used after a rollback
  /// recovery, whose inversion cannot restore side pointers from the log).
  Status RepairSideChain(BTree* tree);

 private:
  Status RedoReorgMove(const LogRecord& rec);
  Status RedoReorgModify(const LogRecord& rec);
  /// Dispatch one page-redo record (kInsert..kNodeFree via BTree::RedoApply,
  /// kReorgMove/kReorgModify via the handlers above).
  Status ApplyPageRedo(const LogRecord& rec);
  /// Replay the page-redo records named by `indices` (frame numbers in
  /// `frames`, in ascending log order): in log order when `threads` is 1,
  /// else component by component on max(1, threads) lanes. Fills the
  /// per-lane forensics in `result`.
  Status RunPageRedo(const LogFrames& frames,
                     const std::vector<size_t>& indices, int threads,
                     RecoveryResult* result);

  DiskManager* disk_;
  BufferPool* bp_;
  LogManager* log_;
  CheckpointMaster* master_;
  SideFile* side_file_;
  int redo_threads_ = 0;
};

}  // namespace soreorg

#endif  // SOREORG_RECOVERY_RECOVERY_MANAGER_H_
