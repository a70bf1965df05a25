// Pass 2 (§3, §4.1, §6): put the compacted leaves into key order on disk.
//
// The pass snapshots the leaves in key order, computes the target layout —
// the N lowest page ids among (current leaf pids ∪ free pids) assigned in
// key order — and then, leaf by leaf:
//   * if the target slot is a free page, runs a MOVE unit (new-place, cheap
//     keys-only logging under careful writing);
//   * if the target slot currently holds another leaf, runs a SWAP unit —
//     an in-place exchange of two pages' contents that locks up to two base
//     pages (this is why the paper prefers moving to swapping) and must log
//     at least one full page image.
//
// The pass is optional ("choose to do swapping only when range query
// performance falls below some acceptable level") and tolerates concurrent
// splits: the result need not be perfectly ordered.

#ifndef SOREORG_REORG_SWAP_PASS_H_
#define SOREORG_REORG_SWAP_PASS_H_

#include <vector>

#include "src/reorg/context.h"
#include "src/reorg/leaf_compactor.h"

namespace soreorg {

struct SwapPassOptions {
  /// See LeafCompactorOptions::unit_wrapper.
  std::function<Status(const std::function<Status()>&)> unit_wrapper;
};

class SwapPass {
 public:
  SwapPass(ReorgContext* ctx, LeafCompactor* compactor, SwapPassOptions opts);

  Status Run();

  /// One swap unit: exchange the contents of leaves a and b (full §4.1
  /// two-base-page protocol). Public for tests and forward recovery.
  Status SwapUnit(uint32_t unit, PageId a, PageId b, bool resume);

 private:
  Status SwapUnitOnce(uint32_t unit, PageId a, PageId b, bool resume);

  /// Base page currently holding `leaf` (R-locked on success; caller
  /// unlocks). Verified by child lookup.
  Status FindAndLockBaseOf(PageId leaf, PageId* base_pid);

  ReorgContext* ctx_;
  LeafCompactor* compactor_;
  SwapPassOptions options_;
};

}  // namespace soreorg

#endif  // SOREORG_REORG_SWAP_PASS_H_
