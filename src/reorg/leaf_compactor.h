// Pass 1 (§4.1, §5, §6): compact groups of sparse leaves that share one base
// page, either in place (into the group's first leaf) or by copying into a
// well-placed empty page chosen by Find-Free-Space (§6.1).
//
// Each group is one *reorganization unit*:
//   1. IX the tree lock; S lock-couple to the base page; hold it in R mode.
//   2. RX lock the unit's leaves; RX/X lock side-pointer neighbors (§4.3):
//      RX when the neighbor is a child of the same base page, X otherwise.
//      All locks are taken before any record moves, so a deadlock abort
//      loses no work (the reorganizer is always the deadlock victim).
//   3. Log (BEGIN, unit, type, base pages, leaf pages).
//   4. Move records source-by-source into the destination, logging one
//      (MOVE, org, dest, contents|keys) per source; with careful writing
//      the buffer pool is told dest-must-precede-source and the source's
//      deallocation is gated on the destination being durable.
//   5. Upgrade the base-page R lock to X; apply + log the (MODIFY, ...) key
//      and pointer changes; fix side pointers.
//   6. Log (END, unit); advance LK in the reorganization table; release.
//
// ExecuteUnit is idempotent: forward recovery re-runs it after a crash and
// it skips whatever the redo pass already reinstalled.

#ifndef SOREORG_REORG_LEAF_COMPACTOR_H_
#define SOREORG_REORG_LEAF_COMPACTOR_H_

#include <string>
#include <vector>

#include "src/reorg/context.h"
#include "src/reorg/find_free_space.h"

namespace soreorg {

struct LeafCompactorOptions {
  /// f2: the post-reorganization leaf fill target.
  double target_fill = 0.9;
  FreeSpacePolicy free_space_policy = FreeSpacePolicy::kPaperHeuristic;
  /// Upper bound on leaves per unit (lock-hold bound; the paper compacts
  /// d = ceil(f2/f1) pages per unit on average).
  size_t max_group = 16;
  /// If set, each unit executes inside this wrapper. The Smith '90 baseline
  /// uses it to hold a whole-tree X lock and run one database transaction
  /// per block operation.
  std::function<Status(const std::function<Status()>&)> unit_wrapper;
};

class LeafCompactor {
 public:
  LeafCompactor(ReorgContext* ctx, LeafCompactorOptions options);

  /// Run pass 1 over the whole tree (or resume from the reorganization
  /// table's LK after a restart).
  Status Run();

  /// Execute one unit: move every record of `sources` into `dest`
  /// (dest == sources[0] means in-place; otherwise dest must be a free page
  /// already chosen by Find-Free-Space). Exposed for the swap/move pass and
  /// for forward recovery. If `resume` is set, the unit's BEGIN was already
  /// logged (recovery) and locks are re-acquired fresh.
  Status ExecuteUnit(uint32_t unit, PageId base_pid,
                     const std::vector<PageId>& sources, PageId dest,
                     bool resume);

  PageId last_finished() const { return last_finished_; }

 private:
  /// Plan the next unit after `cursor`: the base page, the source group and
  /// the destination. Returns kNotFound when the pass is complete,
  /// kNotSupported when this position has nothing to compact (caller
  /// advances the cursor).
  Status PlanNextUnit(std::string* cursor, PageId* base_pid,
                      std::vector<PageId>* sources, PageId* dest);

  /// One attempt at a unit; kDeadlock means the reorganizer was chosen as
  /// the victim (work already done was undone per §5.2) and may retry.
  Status ExecuteUnitOnce(uint32_t unit, PageId base_pid,
                         const std::vector<PageId>& sources, PageId dest,
                         bool resume);

  ReorgContext* ctx_;
  LeafCompactorOptions options_;
  FindFreeSpace ffs_;
  PageId last_finished_ = kInvalidPageId;
};

}  // namespace soreorg

#endif  // SOREORG_REORG_LEAF_COMPACTOR_H_
