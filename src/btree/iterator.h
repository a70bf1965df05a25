// BTreeIterator: a batched, cursor-stability iterator over the tree.
//
// Each hop descends to the leaf covering the probe key — latch-free when
// optimistic reads are on and the path validates, otherwise with a short S
// lock via the reader protocol (including the RX back-off/RS wait dance) —
// copies the qualifying records into a private buffer, and releases
// everything. The next hop probes at the leaf's upper bound `hi`, read
// from the separators on the path the descent took: it is exact for the
// tree the descent validated (or locked), and the descent restarts if a
// pass-3 switch flipped the root under it. So iteration never chases raw
// side pointers into pages the reorganizer may be relocating, never asks
// the tree for "the next page" a second time, and tolerates empty leaves,
// leaf frees and splits happening mid-scan. As a last guard, a hop drops
// any record at or below the last key the iterator returned, so keys come
// out strictly ascending and at most once.
//
// Isolation is cursor stability, not serializability: records inserted or
// moved behind the cursor are not revisited; records committed ahead of the
// cursor are seen.

#ifndef SOREORG_BTREE_ITERATOR_H_
#define SOREORG_BTREE_ITERATOR_H_

#include <string>
#include <utility>
#include <vector>

#include "src/btree/btree.h"

namespace soreorg {

class BTreeIterator {
 public:
  /// txn may be null: the iterator then locks under an ephemeral owner id.
  BTreeIterator(BTree* tree, Transaction* txn);
  ~BTreeIterator();

  BTreeIterator(const BTreeIterator&) = delete;
  BTreeIterator& operator=(const BTreeIterator&) = delete;

  /// Position at the first record with key >= `key`.
  Status Seek(const Slice& key);

  bool Valid() const { return idx_ < buf_.size(); }
  Slice key() const { return buf_[idx_].first; }
  Slice value() const { return buf_[idx_].second; }

  Status Next();

  /// Physical page ids the iterator has touched (leaf visits in order);
  /// feeds the range-scan I/O experiments.
  const std::vector<PageId>& leaf_trail() const { return leaf_trail_; }

 private:
  /// Load the batch for the leaf covering `from_key`, hopping forward past
  /// empty leaves.
  Status LoadBatch(const Slice& from_key);

  /// Append the records of `leaf` at or above `probe` (and above the last
  /// returned key) to buf_.
  void CopyBatch(Page* leaf, const Slice& probe);

  BTree* tree_;
  TxnId locker_;
  bool ephemeral_;
  uint64_t tree_lock_inc_ = 0;
  bool tree_locked_ = false;

  std::vector<std::pair<std::string, std::string>> buf_;
  size_t idx_ = 0;
  std::string upper_bound_;  // next batch starts here; empty = end of tree
  std::string last_;         // the last key returned, when have_last_
  bool have_last_ = false;
  std::vector<PageId> leaf_trail_;
};

}  // namespace soreorg

#endif  // SOREORG_BTREE_ITERATOR_H_
