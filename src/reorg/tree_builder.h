// Pass 3 (§7.1–§7.3): rebuild the internal levels new-place.
//
// The builder reads the old tree's base pages left to right — holding only
// one S lock at a time — and feeds their (separator, leaf) entries to a
// bottom-up InternalBuilder, producing a compact new upper tree over the
// *same leaf pages*. While it runs:
//   * CK (Get_Current) is the key the read has reached: the builder reads
//     the base page covering CK, takes its entries at or above CK, and
//     moves CK to that page's upper bound before releasing it. The
//     base-update hook compares an updater's key with CK to decide whether
//     a side-file entry is needed (§7.2);
//   * every `stable_every` new pages, the builder force-writes the new
//     pages plus the open ancestors and logs a STABLE_KEY record (§7.3), so
//     a crash restarts from the most recent stable key instead of from
//     scratch;
//   * after the last base page, it drains the side file into the new tree
//     (catch-up) via a temporary BTree attached to the new root.
//
// The final switch (§7.4) is the Switcher's job.

#ifndef SOREORG_REORG_TREE_BUILDER_H_
#define SOREORG_REORG_TREE_BUILDER_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/btree/bulk_builder.h"
#include "src/reorg/context.h"
#include "src/reorg/side_file.h"

namespace soreorg {

struct TreeBuilderOptions {
  double internal_fill = 0.9;
  /// Force-write + STABLE_KEY every N completed new pages (paper: "say 5").
  int stable_every = 5;
  /// Artificial pacing: sleep this long after reading each base page (with
  /// no locks held). Simulates the multi-minute builds of very large trees
  /// so experiments can observe concurrent side-file traffic mid-build.
  int base_page_delay_ms = 0;
};

class TreeBuilder {
 public:
  TreeBuilder(ReorgContext* ctx, SideFile* side_file,
              TreeBuilderOptions options);

  /// Build the new upper levels and run catch-up until the side file is
  /// empty. On return *new_tree() is ready for the switch. `resume_key` is
  /// empty for a fresh run, or the stable key + partial-tree top recovered
  /// after a crash.
  Status Run(const Slice& resume_key = Slice(),
             PageId resume_top = kInvalidPageId);

  /// Get_Current (§7.1): every base entry below this key has been read.
  /// Once reading has finished every key is "already read", represented by
  /// all_read() == true.
  std::string CurrentKey() const;
  bool all_read() const;

  /// The new tree (valid after Run): same leaves, fresh upper levels.
  BTree* new_tree() { return new_tree_.get(); }

  /// Drain side-file entries into the new tree; used by Run and again by
  /// the Switcher for the final catch-up under the side-file X lock — and,
  /// under the step-aside protocol (§7.4), once more per step-aside round
  /// for the delta recorded while the X lock was released.
  Status DrainSideFile();

  /// Apply one side entry to the new tree, idempotently. Entries carry
  /// monotonic seq tags and the drain pops them in seq order, so a seq at
  /// or below the applied high-water mark is a duplicate from an earlier
  /// round and is skipped outright; a fresh entry whose base change turns
  /// out to be already present (the recording updater also applied it
  /// directly after a Busy redirect) is verified as a no-op. Exposed for
  /// the drain-idempotency property test.
  Status ApplyEntry(const SideEntry& entry);

  /// Highest SideEntry::seq already applied to the new tree.
  uint64_t applied_seq_hwm() const { return applied_seq_hwm_; }

 private:
  Status StablePoint();
  /// Read the base page covering CK and advance CK past it; *last is set
  /// once the rightmost page has been read.
  Status ReadBasePage(bool* last);

  ReorgContext* ctx_;
  SideFile* side_file_;
  TreeBuilderOptions options_;
  InternalBuilder builder_;

  mutable std::mutex mu_;
  std::string current_key_;
  bool all_read_ = false;

  std::unique_ptr<BTree> new_tree_;
  uint64_t applied_seq_hwm_ = 0;  // only the drain thread writes it
  Transaction reorg_txn_{kReorgTxnId};
  int pages_since_stable_ = 0;
};

}  // namespace soreorg

#endif  // SOREORG_REORG_TREE_BUILDER_H_
