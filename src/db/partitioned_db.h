// PartitionedDatabase: the multi-tree serving layer.
//
// N independent Database instances (each its own B+tree, WAL/checkpoint
// namespace, lock manager, buffer pool, and reorganizer) behind one API. A
// router maps every key to exactly one partition — by key hash (default) or
// by explicit range boundaries — and a thread-per-core Executor carries the
// requests: each worker owns a bounded MPSC queue and serves the partitions
// that hash onto it, so a reorganization or a hot key in one partition
// cannot queue-starve the others.
//
//   * Point ops (Get/Put/Update/Delete/ReadModifyWrite) run on the routed
//     partition's worker; per-op deadlines bound queue wait and surface
//     TimedOut instead of queueing unboundedly (see executor.h).
//   * Scan merges the per-partition trees into one globally key-ordered
//     stream: batches are fetched from each partition (through the routed
//     worker) and k-way merged by smallest head key. Keys are unique across
//     partitions (the router is a function), so the merge never yields
//     duplicates.
//   * Reorganization is per-partition: ReorganizePartition(i) runs the
//     paper's three passes on tree i only, while the other partitions keep
//     serving untouched. ReorganizeAll() walks the partitions round-robin
//     (rotating its starting point call-to-call) under a global
//     concurrent-reorg cap, so at most `max_concurrent_reorgs` trees pay
//     reorganization cost at any instant.
//
// With partitions == 1 the router is constant and the scan merge is a
// passthrough: behavior is identical to a plain Database (pinned by
// partitioned_db_test), the executor adding only admission control.

#ifndef SOREORG_DB_PARTITIONED_DB_H_
#define SOREORG_DB_PARTITIONED_DB_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/db/executor.h"

namespace soreorg {

enum class PartitioningScheme {
  /// fmix64 over the key bytes, mod N. Spreads any workload; scans touch
  /// every partition (the merge reassembles global order).
  kHash,
  /// Partition i serves [boundaries[i-1], boundaries[i]); requires
  /// `range_boundaries` (sorted, size N-1). Scans touch only the
  /// partitions overlapping [lo, hi].
  kRange,
};

struct PartitionedDBOptions {
  size_t partitions = 4;
  PartitioningScheme scheme = PartitioningScheme::kHash;
  /// kRange split keys: partition 0 is (-inf, boundaries[0]), partition i
  /// is [boundaries[i-1], boundaries[i]), the last [boundaries[N-2], +inf).
  std::vector<std::string> range_boundaries;

  /// Template for every partition. `base.name` is the namespace prefix:
  /// partition i's files are "<name>.p<i>.{pages,wal,ckpt}".
  DatabaseOptions base;

  ExecutorOptions executor;

  /// Global cap on concurrently reorganizing partitions.
  size_t max_concurrent_reorgs = 1;

  /// Records pulled per partition per fetch during a merged Scan.
  size_t scan_batch = 64;
};

struct PartitionedDBStats {
  ExecutorStats executor;
  uint64_t reorgs_completed = 0;
  /// High-water mark of concurrently running partition reorganizations
  /// (never exceeds max_concurrent_reorgs).
  uint64_t max_concurrent_reorgs_seen = 0;
};

class PartitionedDatabase {
 public:
  static Status Open(Env* env, PartitionedDBOptions options,
                     std::unique_ptr<PartitionedDatabase>* out);

  /// Shuts down the executor (queued-but-unstarted ops fail Aborted), then
  /// closes every partition.
  ~PartitionedDatabase();

  // --- user operations (deadline_ms: start deadline, <= 0 = none) ---------
  Status Put(const Slice& key, const Slice& value, int64_t deadline_ms = 0);
  Status Update(const Slice& key, const Slice& value, int64_t deadline_ms = 0);
  Status Delete(const Slice& key, int64_t deadline_ms = 0);
  Status Get(const Slice& key, std::string* value, int64_t deadline_ms = 0);
  /// Get + modify + Update as one routed request (the YCSB-F primitive).
  /// `modify` receives the current value; absent keys return NotFound.
  Status ReadModifyWrite(const Slice& key,
                         const std::function<std::string(const std::string&)>&
                             modify,
                         int64_t deadline_ms = 0);

  /// Globally key-ordered scan of [lo, hi] across all partitions; cb returns
  /// false to stop. Batches are fetched through the executor (deadline per
  /// fetch).
  Status Scan(const Slice& lo, const Slice& hi,
              const std::function<bool(const Slice&, const Slice&)>& cb,
              int64_t deadline_ms = 0);

  /// Bottom-up initial load: `sorted_records` is routed and each partition
  /// bulk-loaded at the given fill factors. The partitions must be empty.
  Status BulkLoad(
      const std::vector<std::pair<std::string, std::string>>& sorted_records,
      double leaf_fill, double internal_fill = 0.9);

  // --- reorganization ------------------------------------------------------
  /// Run the three passes on partition i, counted against the global
  /// concurrent-reorg cap (blocks for a slot if the cap is reached).
  Status ReorganizePartition(size_t i);
  /// Reorganize every partition once, round-robin from a rotating starting
  /// point, with at most max_concurrent_reorgs running at a time. Returns
  /// the first non-OK partition status (all partitions are still attempted).
  Status ReorganizeAll();

  /// Checkpoint every partition.
  Status Checkpoint();

  // --- introspection -------------------------------------------------------
  size_t partitions() const { return dbs_.size(); }
  /// The router: which partition serves `key`. Total and deterministic —
  /// every key maps to exactly one partition.
  size_t PartitionOf(const Slice& key) const;
  /// Worker lane serving partition i.
  int WorkerOf(size_t partition) const;
  Database* partition(size_t i) { return dbs_[i].get(); }
  Executor* executor() { return executor_.get(); }
  PartitionedDBStats stats() const;
  const PartitionedDBOptions& options() const { return options_; }

 private:
  explicit PartitionedDatabase(PartitionedDBOptions options)
      : options_(std::move(options)) {}

  PartitionedDBOptions options_;
  std::vector<std::unique_ptr<Database>> dbs_;
  std::unique_ptr<Executor> executor_;

  // Reorg admission: cap + round-robin cursor + stats, all under reorg_mu_.
  mutable std::mutex reorg_mu_;
  std::condition_variable reorg_slot_free_;
  size_t active_reorgs_ = 0;
  size_t next_reorg_partition_ = 0;
  uint64_t reorgs_completed_ = 0;
  uint64_t max_concurrent_seen_ = 0;
};

}  // namespace soreorg

#endif  // SOREORG_DB_PARTITIONED_DB_H_
