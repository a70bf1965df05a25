// Bottom-up B+-tree construction from sorted input (Salzberg '88, ch. 5 §5):
// records are appended to the current page until it reaches the target fill
// factor, then a fresh page is opened and an entry for it is added to the
// level above — no splits ever happen.
//
// Two layers:
//   * InternalBuilder — builds the internal levels from a sorted stream of
//     (separator, child) entries. This is exactly what pass 3 of the
//     reorganizer needs: it feeds the base-page contents of the old tree in
//     key order and gets back a new, compact upper tree whose leaves are the
//     *existing* leaf pages. It does no logging: pass-3 durability comes
//     from the stable-point force-writes (§7.3), and the builder reports
//     every page it creates so the caller can force and/or reclaim them.
//   * BulkBuilder — builds a whole tree (leaves + internals) from sorted
//     (key, value) records; used for initial loads and experiment setup.
//     Callers must checkpoint afterwards (the builder does not WAL-log each
//     record).

#ifndef SOREORG_BTREE_BULK_BUILDER_H_
#define SOREORG_BTREE_BULK_BUILDER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/btree/btree.h"

namespace soreorg {

class InternalBuilder {
 public:
  /// internal_fill in (0, 1]: pages are closed once UsedSpace reaches
  /// internal_fill * Capacity.
  InternalBuilder(BufferPool* bp, double internal_fill);

  /// Add the next (separator, child) in strictly increasing separator
  /// order. The very first separator at every level is stored as "" (-inf).
  Status Add(const Slice& separator, PageId child);

  /// Close all open pages and return the root (creating a trivial root base
  /// page when no entry was ever added is an error).
  Status Finish(PageId* root, uint8_t* height);

  /// Every internal page allocated so far, in creation order.
  const std::vector<PageId>& created_pages() const { return created_; }

  /// Pages completed (filled + closed) since the last call; the pass-3
  /// stable-point logic forces these. Clears the pending list.
  std::vector<PageId> TakeCompletedPages();

  /// The currently open page at every level (rightmost spine); these are
  /// the "changed ancestors" a stable point must force (§7.3).
  std::vector<PageId> OpenPages() const;

  /// The open page of the highest level so far (the partial tree's top).
  PageId TopPage() const;

  /// Pass-3 restart (§7.3): rebuild builder state from the durable partial
  /// tree whose top page is `top`. Walks the rightmost spine to recover the
  /// open pages and the leftmost spine to recover each level's first page,
  /// and trims every open page of entries with separator > stable_key
  /// (those were lost with the crash and will be re-read).
  Status RestoreSpine(PageId top, const Slice& stable_key);

  /// Called with each freshly allocated page id BEFORE the page is formatted
  /// (and so before its image can ever reach disk); returns the LSN the page
  /// is stamped with. Pass 3 logs its kAllocPage record here: the stamp makes
  /// redo skip old-tree records aimed at a recycled page id, and the buffer
  /// pool's WAL interlock then forces the allocation record durable before
  /// the unlogged page image — careful writing for built pages (§7.3).
  /// Without a logger (initial bulk loads) pages keep LSN 0 and the
  /// follow-up checkpoint is the recovery baseline.
  using AllocLogger = std::function<Lsn(PageId)>;
  void set_alloc_logger(AllocLogger logger) { alloc_logger_ = std::move(logger); }

 private:
  struct Level {
    PageId open = kInvalidPageId;   // page currently accepting entries
    PageId first = kInvalidPageId;  // first page ever created at this level
  };

  /// Open a fresh page at builder level `level` (tree level `level`+1) with
  /// the given low mark; updates levels_[level].open.
  Status OpenPageAt(size_t level, const Slice& low_mark);
  Status AddAt(size_t level, const Slice& separator, PageId child);
  Status InsertInto(PageId pid, const Slice& separator, PageId child);

  BufferPool* bp_;
  double fill_;
  std::vector<Level> levels_;  // levels_[0] = base-page level (tree level 1)
  std::vector<PageId> created_;
  std::vector<PageId> completed_;
  /// Set by RestoreSpine: the resumed read may offer the stable key's own
  /// entry again, which an untrimmed open page can already hold.
  bool skip_duplicates_ = false;
  AllocLogger alloc_logger_;
};

class BulkBuilder {
 public:
  BulkBuilder(BufferPool* bp, const BTreeOptions& options, double leaf_fill,
              double internal_fill);

  /// Keys must arrive in strictly increasing order.
  Status Add(const Slice& key, const Slice& value);

  Status Finish(PageId* root, uint8_t* height);

  uint64_t leaves_built() const { return leaves_built_; }

 private:
  Status OpenLeaf();
  Status CloseLeaf();

  BufferPool* bp_;
  BTreeOptions options_;
  double leaf_fill_;
  InternalBuilder internal_;

  PageId cur_leaf_ = kInvalidPageId;
  PageId prev_leaf_ = kInvalidPageId;
  std::string cur_first_key_;
  bool any_ = false;
  bool any_after_first_leaf_ = false;
  uint64_t leaves_built_ = 0;
};

}  // namespace soreorg

#endif  // SOREORG_BTREE_BULK_BUILDER_H_
