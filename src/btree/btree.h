// BTree: the primary-index B+-tree under reorganization.
//
// Shape: height >= 2 always (a root internal node above at least one leaf),
// so "base pages" (parents of leaves, level 1) exist from the start. An
// internal node with n keys has n children (the paper's variation); the
// leftmost separator of the whole tree is the empty slice (= -infinity).
//
// Concurrency follows §4.1 of the paper exactly:
//   * readers:  IS tree lock, S lock-couple to the leaf; if the leaf lock
//     request hits a granted RX lock the lock manager answers kBackoff and
//     the reader releases its base-page S lock, waits on an unconditional
//     instant-duration RS lock on the base page, then retries the descent;
//   * updaters: IX tree lock, S lock-couple, X on the leaf; same RX
//     back-off rule. If a split / free-at-empty is needed the operation
//     restarts with Bayer-Scholnick X lock-coupling, releasing ancestors
//     above the deepest safe node — this is what waits for (rather than
//     backs off from) a reorganizer holding R on a base page;
//   * deletions never consolidate: a leaf is deallocated only when it
//     becomes completely empty (free-at-empty, [JS93]) — this is the policy
//     that produces the sparse trees the reorganizer exists to fix.
//
// Structure modifications (splits, free-at-empty) are logged as single
// atomic WAL records (kLeafSplit / kInternalSplit / kNodeFree) so redo can
// replay them page-by-page against pageLSNs; record-level changes use
// physiological kInsert/kDelete/kUpdate records undone *logically* (ARIES
// index-management style) via the TransactionManager's undo applier.
//
// Pass-3 integration (§7.2): when the reorganization bit is set, every
// committed base-page modification is reported — under the base page's X
// lock — to the registered BaseUpdateHook, which implements the CK
// comparison and side-file insertion. A hook return of kBusy means "the
// switch completed under you": the operation re-reads the (new) root and
// retries against the new tree.

#ifndef SOREORG_BTREE_BTREE_H_
#define SOREORG_BTREE_BTREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/btree/node.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/lock_manager.h"
#include "src/txn/transaction.h"
#include "src/util/status.h"
#include "src/wal/log_manager.h"

namespace soreorg {

enum class SidePointerMode : uint8_t { kNone = 0, kOneWay = 1, kTwoWay = 2 };

struct BTreeOptions {
  SidePointerMode side_pointers = SidePointerMode::kTwoWay;
  /// Serve ephemeral point reads and iterator leaf batches latch-free when
  /// possible: snapshot page images against the frame version stamp and
  /// validate, consulting only the lock manager's page-mark counters. Any
  /// validation failure falls back to the Table-1 S-lock protocol. With
  /// this off every read takes exactly the locks it did before the
  /// optimistic path existed (the lock-trace oracle of read_path_test).
  bool optimistic_reads = true;
};

/// Fraction of used bytes kept in the left page on a split.
inline constexpr double kSplitFraction = 0.5;
/// Max op-level retries after Backoff/Deadlock before giving up.
inline constexpr int kMaxRetries = 256;
/// Full-descent restarts before an optimistic read gives up and falls back
/// to the S-lock path.
inline constexpr int kOptimisticRestarts = 4;

/// What kind of base-page change an updater performed (for the side file).
enum class BaseUpdateOp : uint8_t { kInsert = 0, kDelete = 1 };

/// Counters for the latch-free read path (relaxed; test/bench use).
struct ReadPathStats {
  uint64_t optimistic_gets = 0;     // point reads served without any lock
  uint64_t optimistic_batches = 0;  // iterator leaf batches served likewise
  uint64_t fallbacks = 0;           // reads that fell back to the S-lock path
};

/// Aggregate shape statistics (drives the before/after tables).
struct BTreeStats {
  uint64_t height = 0;
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;  // includes base pages and the root
  uint64_t base_pages = 0;
  uint64_t records = 0;
  double avg_leaf_fill = 0.0;
  double avg_internal_fill = 0.0;
  /// Leaves whose page id is exactly prev leaf id + 1 (disk contiguity).
  uint64_t leaves_in_disk_order = 0;
};

class BTree {
 public:
  /// (txn, op, key, leaf, base page id) -> OK, or kBusy if the tree
  /// switched while the caller waited (retry against the new tree).
  /// Invoked under the base page's X lock (§7.2).
  using BaseUpdateHook =
      std::function<Status(Transaction* txn, BaseUpdateOp op, const Slice& key,
                           PageId leaf, PageId base_page)>;
  /// Compensation for a successful BaseUpdateHook whose structure
  /// modification then failed and will be retried or abandoned.
  using BaseUpdateCancelHook = std::function<void(
      Transaction* txn, BaseUpdateOp op, const Slice& key, PageId leaf)>;

  BTree(BufferPool* bp, LogManager* log, LockManager* locks,
        BTreeOptions options);

  /// Create a fresh tree: one empty leaf under a root base page.
  Status Create();

  /// Adopt existing on-disk state (after recovery / on reopen).
  void Attach(PageId root, uint8_t height, uint64_t incarnation);

  // --- user operations -----------------------------------------------------
  Status Insert(Transaction* txn, const Slice& key, const Slice& value);
  Status Update(Transaction* txn, const Slice& key, const Slice& value);
  Status Delete(Transaction* txn, const Slice& key);
  /// txn may be null for an ephemeral (non-transactional) read.
  Status Get(Transaction* txn, const Slice& key, std::string* value);

  /// Ordered scan of [lo, hi]; cb returns false to stop early. Follows side
  /// pointers when available, re-descends otherwise (and on RX back-off).
  Status Scan(Transaction* txn, const Slice& lo, const Slice& hi,
              const std::function<bool(const Slice& key, const Slice& value)>&
                  cb);

  // --- introspection -------------------------------------------------------
  PageId root() const { return root_.load(); }
  uint8_t height() const { return height_.load(); }
  uint64_t incarnation() const { return incarnation_.load(); }

  /// Full-tree statistics (walks every page; test/bench use).
  Status ComputeStats(BTreeStats* stats);

  /// Deep invariant check: key order, separator correctness, side-pointer
  /// symmetry, level sanity. Test use.
  Status CheckConsistency();

  /// All leaf page ids in key order (reorg pass 2 + tests).
  Status CollectLeaves(std::vector<PageId>* leaves);
  /// All base page ids in key order.
  Status CollectBasePages(std::vector<PageId>* bases);

  // --- reorganizer integration --------------------------------------------
  bool reorg_bit() const { return reorg_bit_.load(); }
  void set_reorg_bit(bool b) { reorg_bit_.store(b); }
  void set_base_update_hook(BaseUpdateHook hook);
  void set_base_update_cancel_hook(BaseUpdateCancelHook hook);

  /// Apply a base-level change directly: insert or remove the (key -> leaf)
  /// entry in the base page covering `key`, splitting base pages if needed.
  /// Used by the pass-3 builder to apply side-file entries to the new tree
  /// (which is Attach()-ed to a temporary BTree object before the switch).
  /// Duplicate-tolerant (§7.4 step-aside): inserting a separator that is
  /// already present is a verified no-op, not an error — the recording
  /// updater may have applied its split to this tree directly after a Busy
  /// redirect, with the side entry drained afterwards; so is inserting a
  /// separator for a leaf that already covers it by slot-0 clamping. A
  /// separator the old tree lowered at a base page's slot 0 may fall below a
  /// base-page boundary of this tree while the leaf's other keys lie above
  /// it; the boundary then moves down to the separator. When the change was
  /// found already in effect, *already_applied (if non-null) is set true.
  Status BaseApply(Transaction* txn, BaseUpdateOp op, const Slice& key,
                   PageId leaf, bool* already_applied = nullptr);

  /// Undo one of this transaction's record operations (logical, ARIES
  /// style): performs the inverse change wherever the key now lives and
  /// logs a CLR whose undo-next is original.prev_lsn.
  Status UndoRecordOp(Transaction* txn, const LogRecord& original);

  /// Atomically install a new root/height/incarnation (the pass-3 switch).
  /// Logs kTreeSwitch. The caller (Switcher) owns the locking protocol.
  Status SwitchRoot(PageId new_root, uint8_t new_height,
                    uint64_t new_incarnation);

  /// Ids of the internal pages (all levels >= 1) reachable from `root`;
  /// used to discard the old tree's upper levels after the switch.
  Status CollectInternalPages(PageId root, std::vector<PageId>* pages);

  BufferPool* buffer_pool() { return bp_; }
  LogManager* log_manager() { return log_; }
  LockManager* lock_manager() { return locks_; }
  const BTreeOptions& options() const { return options_; }

  /// Ephemeral lock-owner id for non-transactional work (readers, the
  /// reorganizer's scouting descents).
  TxnId NewEphemeralId() { return ephemeral_next_.fetch_add(1); }

  ReadPathStats read_path_stats() const {
    ReadPathStats s;
    s.optimistic_gets = opt_gets_.load(std::memory_order_relaxed);
    s.optimistic_batches = opt_batches_.load(std::memory_order_relaxed);
    s.fallbacks = opt_fallbacks_.load(std::memory_order_relaxed);
    return s;
  }

  /// How Descend reads each node on its way down.
  enum class Access : uint8_t {
    /// Validated page images: no locks, no pins, no shard mutex. Per node:
    /// capture an image against the frame version stamp, consult the lock
    /// manager's page mark (an S-incompatible page lock anywhere on the
    /// node fails the descent), then revalidate the parent image — in that
    /// order; see DESIGN.md §13 for why the order makes cross-SMO routing
    /// safe. Any thread may run it at any time.
    kOptimistic,
    /// S lock-coupling (§4.1); the stop node is locked in `stop_mode`. A
    /// request that meets a granted RX backs off: the parent's S lock is
    /// released, an unconditional instant-duration RS lock on the parent
    /// waits the reorganizer out, and the descent restarts.
    kShared,
    /// Bayer-Schkolnick X lock-coupling: locks are kept down the path, and
    /// every ancestor above a node that cannot propagate the pending
    /// modification is released. Same RX back-off.
    kExclusive,
  };

  /// One root-to-level descent toward a key: how to make it, and what it
  /// found.
  struct Descent {
    Access access = Access::kShared;
    uint8_t stop_level = 0;             // 0 = leaf, 1 = base page
    LockMode stop_mode = LockMode::kS;  // kShared: the stop node's lock
    /// kExclusive: bytes the pending insert needs in the leaf; 0 when the
    /// modification removes an entry (then a node with two is safe).
    size_t insert_bytes = 0;
    /// kOptimistic: two caller-owned image slots, alternating as parent
    /// and child (a grandparent image is never needed once its child
    /// validated); `image` ends pointing into one of them.
    OptimisticPageGuard* images = nullptr;
    /// Fill lo/hi/separator. They cost two key decodes per level, which a
    /// point read does not need.
    bool range = true;

    PageId pid = kInvalidPageId;  // the stop node
    /// The stop node's key range [lo, hi), read from the separators on the
    /// path taken: exactly the keys that routed to `pid`. lo empty =
    /// -infinity, hi empty = +infinity. The next page in key order is the
    /// one covering `hi`.
    std::string lo{};
    std::string hi{};
    std::string separator{};     // the parent's entry key for `pid`
    std::vector<PageId> path{};  // page locks held on return, top-down
    Page* image = nullptr;     // kOptimistic: the stop node's image
  };

  /// Descend toward `key` until `d->stop_level`. Once the stop node is
  /// locked (or validated), the §7.4 incarnation is re-checked: a descent
  /// that straddled a pass-3 switch may have routed through superseded
  /// upper levels, so it starts over from the new root. On OK the pages in
  /// `d->path` are locked under `locker` (kShared: the stop node alone;
  /// kOptimistic: none) and nothing is pinned. kOptimistic makes a single
  /// attempt and answers Busy on any validation failure or non-resident
  /// page; the locked modes retry back-offs and root races internally.
  Status Descend(TxnId locker, const Slice& key, Descent* d);

  /// Bounded-restart optimistic point read. True when the read completed
  /// latch-free (*found says whether the key exists); false directs the
  /// caller to the Table-1 S-lock path.
  bool TryGetOptimistic(const Slice& key, std::string* value, bool* found);

  // Exposed for recovery redo (applies physiological records to pages).
  static Status RedoApply(BufferPool* bp, const LogRecord& rec);

 private:
  friend class BTreeIterator;

  /// Split the leaf at the end of `path` and insert its separator upward.
  /// All pages in `path` are X-locked by txn. All fallible steps (locks,
  /// allocation, internal splits) happen before any leaf cell moves, so a
  /// failure never leaves records unreachable.
  Status SplitLeaf(Transaction* txn, const std::vector<PageId>& path,
                   const Slice& key);

  /// Make sure the internal node path[idx] (or a split half of it) has room
  /// for `separator`; splits propagate recursively up `path`. On return,
  /// *target is the X-locked node covering `separator` with room, and every
  /// newly created right half is appended to *extra_locked (caller unlocks
  /// after its insert).
  Status EnsureSeparatorRoom(Transaction* txn, const std::vector<PageId>& path,
                             size_t idx, const Slice& separator,
                             PageId* target, std::vector<PageId>* extra_locked);

  /// Split the internal node path[idx]; requires that path[idx-1] already
  /// has room for the promoted separator (or idx == 0: a root split).
  Status SplitInternal(Transaction* txn, const std::vector<PageId>& path,
                       size_t idx, std::string* out_separator,
                       PageId* out_new_pid);

  /// Insert (separator, child) into an internal node that is guaranteed to
  /// have room, with logging.
  Status InsertSeparatorInto(Transaction* txn, PageId node_pid,
                             const Slice& separator, PageId child);

  /// Free-at-empty: deallocate the (empty) leaf at the end of `path`,
  /// remove its separator from the base page, fix side pointers, cascade
  /// upward if internal nodes empty. Failure is benign (the empty leaf
  /// simply stays linked).
  Status FreeEmptyLeaf(Transaction* txn, const std::vector<PageId>& path);

  /// Keep separators exact: if the base entry routing `key` has a separator
  /// above `key` (the key would only be reachable via slot-0 clamping,
  /// which pass 3's flat rebuild cannot preserve), lower the separator to
  /// `key` under the base page's X lock, with pass-3 side-file
  /// notification. Idempotent; retries internally on deadlock.
  Status LowerSeparatorIfNeeded(Transaction* txn, const Slice& key);

  /// Replace the base-page boundary `from` by the lower key `to` in the
  /// internal node above the base level that holds it (BaseApply).
  Status LowerBoundary(Transaction* txn, const Slice& from, const Slice& to);

  /// Invoke the base-update hook if the reorganization bit is set.
  Status NotifyBaseUpdate(Transaction* txn, BaseUpdateOp op, const Slice& key,
                          PageId leaf, PageId base_pid);
  /// Invoke the cancel hook (after a successful NotifyBaseUpdate whose
  /// operation then failed).
  void CancelBaseUpdate(Transaction* txn, BaseUpdateOp op, const Slice& key,
                        PageId leaf);

  /// Log a record-level op for txn and stamp the page LSN.
  void LogRecordOp(Transaction* txn, LogType type, PageId page,
                   const Slice& key, const Slice& old_value,
                   const Slice& new_value, Page* page_obj);

  Status UnlockPages(TxnId locker, std::vector<PageId>* pids);

  /// Recursive invariant check for CheckConsistency().
  Status CheckSubtree(PageId pid, const Slice& lo, const Slice& hi,
                      uint8_t expect_level, bool is_root);

  BufferPool* bp_;
  LogManager* log_;
  LockManager* locks_;
  BTreeOptions options_;

  std::atomic<PageId> root_{kInvalidPageId};
  std::atomic<uint8_t> height_{0};
  std::atomic<uint64_t> incarnation_{1};
  std::atomic<bool> reorg_bit_{false};
  std::atomic<TxnId> ephemeral_next_{1ull << 62};

  std::atomic<uint64_t> opt_gets_{0};
  std::atomic<uint64_t> opt_batches_{0};
  std::atomic<uint64_t> opt_fallbacks_{0};

  BaseUpdateHook base_update_hook_;
  BaseUpdateCancelHook base_update_cancel_hook_;
  std::mutex hook_mu_;
};

}  // namespace soreorg

#endif  // SOREORG_BTREE_BTREE_H_
