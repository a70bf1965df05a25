// Database: the embedding facade. Wires Env → DiskManager → BufferPool →
// LogManager → LockManager → TransactionManager → BTree → SideFile →
// Reorganizer, and runs restart recovery (including Forward Recovery for an
// interrupted reorganization unit) on Open.
//
// Quickstart:
//   soreorg::MemEnv env;
//   soreorg::DatabaseOptions opts;
//   std::unique_ptr<soreorg::Database> db;
//   soreorg::Database::Open(&env, opts, &db);
//   db->Put("key", "value");
//   std::string v;
//   db->Get("key", &v);
//   db->Reorganize();   // the paper's three passes

#ifndef SOREORG_DB_DATABASE_H_
#define SOREORG_DB_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/recovery/recovery_manager.h"
#include "src/reorg/reorganizer.h"
#include "src/reorg/side_file.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/env.h"
#include "src/txn/lock_manager.h"
#include "src/txn/txn_manager.h"
#include "src/wal/checkpoint.h"
#include "src/wal/log_manager.h"

namespace soreorg {

struct DatabaseOptions {
  size_t buffer_pool_pages = 4096;
  /// Lock-table stripe count; 0 = auto (16). 1 gives the old single-mutex
  /// lock manager with exact legacy wait/wake semantics.
  size_t lock_table_stripes = 0;
  /// WAL group-commit buffer cap (see LogManager::set_buffer_limit).
  size_t log_buffer_bytes = 256 * 1024;
  /// WAL segment size; the log rotates to <prefix>.wal.NNNNNN files of this
  /// size.
  uint64_t wal_segment_bytes = 4 * 1024 * 1024;
  /// Truncated WAL segments are parked for reuse up to this pool size;
  /// beyond it they are deleted.
  size_t wal_recycle_segments = 2;
  /// Drop WAL segments wholly below the recovery floor at each checkpoint.
  /// The floor respects the redo LSN, the checkpoint record, active
  /// transactions' undo chains, and an open reorganization unit.
  bool wal_truncate_on_checkpoint = true;
  /// Redo worker count at recovery: 1 = serial replay (the verification
  /// oracle), 0 = auto (min(4, hardware threads)), N>1 = partitioned
  /// parallel redo over page-disjoint components.
  int redo_threads = 1;
  BTreeOptions tree;
  ReorganizerOptions reorg;
  RecoveryPolicy recovery_policy = RecoveryPolicy::kForward;
  /// File name prefix: <prefix>.pages, <prefix>.wal, <prefix>.ckpt.
  std::string name = "soreorg";
};

class Database {
 public:
  /// Open (creating if empty) the database, running restart recovery —
  /// redo, loser undo, and (policy-dependent) forward recovery of an
  /// interrupted reorganization unit.
  static Status Open(Env* env, DatabaseOptions options,
                     std::unique_ptr<Database>* db);

  ~Database();

  // --- transactions ---------------------------------------------------------
  Transaction* Begin();
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  // --- auto-commit convenience ops -------------------------------------------
  Status Put(const Slice& key, const Slice& value);
  Status Update(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Status Get(const Slice& key, std::string* value);
  Status Scan(const Slice& lo, const Slice& hi,
              const std::function<bool(const Slice&, const Slice&)>& cb);

  /// Bottom-up initial load from sorted records at the given fill factor.
  /// Replaces the current (must-be-empty) tree; checkpoints afterwards.
  Status BulkLoad(
      const std::vector<std::pair<std::string, std::string>>& sorted_records,
      double leaf_fill, double internal_fill = 0.9);

  // --- reorganization ----------------------------------------------------------
  /// All three passes with the configured options.
  Status Reorganize();
  Reorganizer* reorganizer() { return reorganizer_.get(); }

  /// True when a pass-3 build was interrupted by the crash this Open
  /// recovered from; ResumeInternalPass() continues it (§7.3).
  bool pass3_pending() const { return pass3_pending_; }
  Status ResumeInternalPass();

  // --- durability ---------------------------------------------------------------
  /// Flush + fsync everything and write a checkpoint record.
  Status Checkpoint();

  // --- accessors ------------------------------------------------------------------
  BTree* tree() { return tree_.get(); }
  BufferPool* buffer_pool() { return bp_.get(); }
  LogManager* log_manager() { return log_.get(); }
  LockManager* lock_manager() { return &locks_; }
  TransactionManager* txn_manager() { return txn_mgr_.get(); }
  DiskManager* disk_manager() { return disk_.get(); }
  SideFile* side_file() { return side_file_.get(); }
  ReorgTable* reorg_table() { return &reorg_table_; }
  const RecoveryResult& recovery_result() const { return recovery_result_; }
  const DatabaseOptions& options() const { return options_; }

 private:
  explicit Database(DatabaseOptions options)
      : options_(std::move(options)), locks_(options_.lock_table_stripes) {}

  DatabaseOptions options_;
  Env* env_ = nullptr;

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CheckpointMaster> master_;
  std::unique_ptr<BufferPool> bp_;
  LockManager locks_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  std::unique_ptr<SideFile> side_file_;
  ReorgTable reorg_table_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<Reorganizer> reorganizer_;

  RecoveryResult recovery_result_;
  bool pass3_pending_ = false;
};

}  // namespace soreorg

#endif  // SOREORG_DB_DATABASE_H_
