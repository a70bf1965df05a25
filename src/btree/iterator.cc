#include "src/btree/iterator.h"

namespace soreorg {

BTreeIterator::BTreeIterator(BTree* tree, Transaction* txn)
    : tree_(tree),
      locker_(txn != nullptr ? txn->id() : tree->NewEphemeralId()),
      ephemeral_(txn == nullptr) {}

BTreeIterator::~BTreeIterator() {
  if (tree_locked_ && ephemeral_) {
    tree_->lock_manager()->Unlock(locker_, TreeLock(tree_lock_inc_));
  }
}

Status BTreeIterator::Seek(const Slice& key) {
  if (!tree_locked_) {
    tree_lock_inc_ = tree_->incarnation();
    Status s = tree_->lock_manager()->Lock(locker_, TreeLock(tree_lock_inc_),
                                           LockMode::kIS);
    if (!s.ok()) return s;
    tree_locked_ = true;
  }
  buf_.clear();  // a new position: nothing returned from it yet
  have_last_ = false;
  return LoadBatch(key);
}

void BTreeIterator::CopyBatch(Page* leaf, const Slice& probe) {
  LeafNode ln(leaf);
  bool exact;
  for (int i = ln.LowerBound(probe, &exact); i < ln.Count(); ++i) {
    Slice k = ln.KeyAt(i);
    if (have_last_ && k.compare(last_) <= 0) continue;
    buf_.emplace_back(k.ToString(), ln.ValueAt(i).ToString());
  }
}

Status BTreeIterator::LoadBatch(const Slice& from_key) {
  if (!buf_.empty()) {
    last_ = std::move(buf_.back().first);
    have_last_ = true;
  }
  buf_.clear();
  idx_ = 0;
  std::string probe = from_key.ToString();

  // Hop leaves until a non-empty batch or the end of the tree. Bounded by
  // the retry budget to stay robust against pathological concurrent churn.
  for (int hops = 0; hops < kMaxRetries; ++hops) {
    BTree::Descent d;
    bool served = false;
    if (tree_->options().optimistic_reads) {
      // The iterator's leaf S locks are transient by design (cursor
      // stability), so a validated image loses no isolation; the per-scan
      // tree IS lock taken in Seek is retained either way.
      OptimisticPageGuard images[2];
      d.access = BTree::Access::kOptimistic;
      d.images = images;
      for (int attempt = 0; !served && attempt < kOptimisticRestarts;
           ++attempt) {
        served = tree_->Descend(locker_, probe, &d).ok();
      }
      if (served) {
        CopyBatch(d.image, probe);
        tree_->opt_batches_.fetch_add(1, std::memory_order_relaxed);
      } else {
        tree_->opt_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        d.access = BTree::Access::kShared;
      }
    }
    if (!served) {
      Status s = tree_->Descend(locker_, probe, &d);
      if (!s.ok()) return s;
      BufferPool* bp = tree_->buffer_pool();
      Page* leaf_page;
      s = bp->FetchPage(d.pid, &leaf_page);
      if (s.ok()) {
        {
          std::shared_lock<PageLatch> latch(leaf_page->latch());
          CopyBatch(leaf_page, probe);
        }
        bp->UnpinPage(d.pid, false);
      }
      tree_->lock_manager()->Unlock(locker_, PageLock(d.pid));
      if (!s.ok()) return s;
    }
    leaf_trail_.push_back(d.pid);
    upper_bound_ = std::move(d.hi);

    if (!buf_.empty() || upper_bound_.empty()) return Status::OK();
    probe = upper_bound_;
  }
  return Status::Busy("iterator hop budget exhausted");
}

Status BTreeIterator::Next() {
  if (idx_ + 1 < buf_.size()) {
    ++idx_;
    return Status::OK();
  }
  if (upper_bound_.empty()) {
    idx_ = buf_.size();  // end
    return Status::OK();
  }
  return LoadBatch(upper_bound_);
}

}  // namespace soreorg
