#include "src/btree/bulk_builder.h"

namespace soreorg {

// ---------------------------------------------------------------------------
// InternalBuilder
// ---------------------------------------------------------------------------

InternalBuilder::InternalBuilder(BufferPool* bp, double internal_fill)
    : bp_(bp), fill_(internal_fill) {}

Status InternalBuilder::OpenPageAt(size_t level, const Slice& low_mark) {
  PageId pid;
  Page* page;
  Status s = bp_->NewPage(&pid, &page);
  if (!s.ok()) return s;
  // Log the allocation (pass 3) before the page can be evicted: the page id
  // may be a recycled one with old-tree records still ahead of it in the
  // redo stream, and the LSN stamp is what makes redo leave the rebuilt
  // image alone.
  Lsn stamp = alloc_logger_ ? alloc_logger_(pid) : 0;
  InternalNode::Format(page, pid, static_cast<uint8_t>(level + 1), low_mark);
  page->set_page_lsn(stamp);
  bp_->UnpinPage(pid, true);
  created_.push_back(pid);
  levels_[level].open = pid;
  if (levels_[level].first == kInvalidPageId) levels_[level].first = pid;
  return Status::OK();
}

Status InternalBuilder::InsertInto(PageId pid, const Slice& separator,
                                   PageId child) {
  Page* page;
  Status s = bp_->FetchPage(pid, &page);
  if (!s.ok()) return s;
  InternalNode node(page);
  if (skip_duplicates_) {
    bool exact;
    node.LowerBound(separator, &exact);
    if (exact) {
      bp_->UnpinPage(pid, false);
      return Status::OK();
    }
  }
  s = node.Insert(separator, child);
  bp_->UnpinPage(pid, s.ok());
  return s;
}

Status InternalBuilder::AddAt(size_t level, const Slice& separator,
                              PageId child) {
  if (level >= levels_.size()) {
    // A new top level: its first page adopts the previously lone page of
    // the level below under the -infinity separator.
    levels_.resize(level + 1);
    Status s = OpenPageAt(level, Slice());
    if (!s.ok()) return s;
    if (level > 0) {
      s = InsertInto(levels_[level].open, Slice(), levels_[level - 1].first);
      if (!s.ok()) return s;
    }
  }

  // Close the open page if this entry would push it past the fill target.
  {
    Page* page;
    Status s = bp_->FetchPage(levels_[level].open, &page);
    if (!s.ok()) return s;
    InternalNode node(page);
    bool full =
        node.Count() > 0 &&
        static_cast<double>(node.UsedSpace() +
                            InternalNode::CellSize(separator)) >
            fill_ * static_cast<double>(node.Capacity());
    bp_->UnpinPage(levels_[level].open, false);
    if (full) {
      completed_.push_back(levels_[level].open);
      s = OpenPageAt(level, separator);
      if (!s.ok()) return s;
      s = AddAt(level + 1, separator, levels_[level].open);
      if (!s.ok()) return s;
    }
  }
  return InsertInto(levels_[level].open, separator, child);
}

Status InternalBuilder::Add(const Slice& separator, PageId child) {
  if (levels_.empty()) {
    levels_.resize(1);
    Status s = OpenPageAt(0, Slice());
    if (!s.ok()) return s;
  }
  return AddAt(0, separator, child);
}

Status InternalBuilder::Finish(PageId* root, uint8_t* height) {
  if (levels_.empty()) {
    return Status::InvalidArgument("no entries added");
  }
  for (const Level& lv : levels_) {
    if (lv.open != kInvalidPageId) completed_.push_back(lv.open);
  }
  *root = levels_.back().open;
  *height = static_cast<uint8_t>(levels_.size() + 1);
  return Status::OK();
}

std::vector<PageId> InternalBuilder::TakeCompletedPages() {
  std::vector<PageId> out = std::move(completed_);
  completed_.clear();
  return out;
}


std::vector<PageId> InternalBuilder::OpenPages() const {
  std::vector<PageId> out;
  for (const Level& lv : levels_) {
    if (lv.open != kInvalidPageId) out.push_back(lv.open);
  }
  return out;
}

PageId InternalBuilder::TopPage() const {
  return levels_.empty() ? kInvalidPageId : levels_.back().open;
}

Status InternalBuilder::RestoreSpine(PageId top, const Slice& stable_key) {
  levels_.clear();
  created_.clear();
  completed_.clear();

  // Walk down the rightmost spine from the top page: each spine node is the
  // open page of its level.
  std::vector<PageId> spine;  // top-down
  PageId cur = top;
  while (cur != kInvalidPageId) {
    Page* page;
    Status s = bp_->FetchPage(cur, &page);
    if (!s.ok()) return s;
    if (page->type() != PageType::kInternal) {
      bp_->UnpinPage(cur, false);
      return Status::Corruption("spine page is not internal");
    }
    spine.push_back(cur);
    uint8_t level = page->level();
    InternalNode node(page);
    PageId next = (level > 1 && node.Count() > 0)
                      ? node.ChildAt(node.Count() - 1)
                      : kInvalidPageId;
    bp_->UnpinPage(cur, false);
    cur = next;
  }
  // spine.back() is the level-1 (base-page) open page; builder level 0.
  size_t n = spine.size();
  levels_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    levels_[i].open = spine[n - 1 - i];
  }

  // Trim entries past the stable key: they were built after the last force
  // write and will be re-read.
  for (size_t i = 0; i < n; ++i) {
    Page* page;
    Status s = bp_->FetchPage(levels_[i].open, &page);
    if (!s.ok()) return s;
    InternalNode node(page);
    bool dirty = false;
    while (node.Count() > 0 &&
           node.KeyAt(node.Count() - 1).compare(stable_key) > 0) {
      node.RemoveAt(node.Count() - 1);
      dirty = true;
    }
    bp_->UnpinPage(levels_[i].open, dirty);
  }

  // Leftmost spine gives each level's first page (for top-level adoption).
  cur = top;
  std::vector<PageId> left;  // top-down
  while (cur != kInvalidPageId) {
    Page* page;
    Status s = bp_->FetchPage(cur, &page);
    if (!s.ok()) return s;
    left.push_back(cur);
    uint8_t level = page->level();
    InternalNode node(page);
    PageId next =
        (level > 1 && node.Count() > 0) ? node.ChildAt(0) : kInvalidPageId;
    bp_->UnpinPage(cur, false);
    cur = next;
  }
  for (size_t i = 0; i < n && i < left.size(); ++i) {
    levels_[i].first = left[left.size() - 1 - i];
  }
  skip_duplicates_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// BulkBuilder
// ---------------------------------------------------------------------------

BulkBuilder::BulkBuilder(BufferPool* bp, const BTreeOptions& options,
                         double leaf_fill, double internal_fill)
    : bp_(bp),
      options_(options),
      leaf_fill_(leaf_fill),
      internal_(bp, internal_fill) {}

Status BulkBuilder::OpenLeaf() {
  Page* page;
  Status s = bp_->NewPage(&cur_leaf_, &page);
  if (!s.ok()) return s;
  LeafNode::Format(page, cur_leaf_);
  if (options_.side_pointers != SidePointerMode::kNone &&
      prev_leaf_ != kInvalidPageId) {
    if (options_.side_pointers == SidePointerMode::kTwoWay) {
      page->SetPrev(prev_leaf_);
    }
    Page* prev_page;
    if (bp_->FetchPage(prev_leaf_, &prev_page).ok()) {
      prev_page->SetNext(cur_leaf_);
      bp_->UnpinPage(prev_leaf_, true);
    }
  }
  bp_->UnpinPage(cur_leaf_, true);
  cur_first_key_.clear();
  ++leaves_built_;
  return Status::OK();
}

Status BulkBuilder::CloseLeaf() {
  if (cur_leaf_ == kInvalidPageId) return Status::OK();
  Slice sep = any_after_first_leaf_ ? Slice(cur_first_key_) : Slice();
  Status s = internal_.Add(sep, cur_leaf_);
  if (!s.ok()) return s;
  any_after_first_leaf_ = true;
  prev_leaf_ = cur_leaf_;
  cur_leaf_ = kInvalidPageId;
  return Status::OK();
}

Status BulkBuilder::Add(const Slice& key, const Slice& value) {
  if (cur_leaf_ == kInvalidPageId) {
    Status s = OpenLeaf();
    if (!s.ok()) return s;
    cur_first_key_ = key.ToString();
  }
  Page* page;
  Status s = bp_->FetchPage(cur_leaf_, &page);
  if (!s.ok()) return s;
  LeafNode ln(page);
  bool full = ln.Count() > 0 &&
              static_cast<double>(ln.UsedSpace() +
                                  LeafNode::CellSize(key, value)) >
                  leaf_fill_ * static_cast<double>(ln.Capacity());
  if (full) {
    bp_->UnpinPage(cur_leaf_, false);
    s = CloseLeaf();
    if (!s.ok()) return s;
    s = OpenLeaf();
    if (!s.ok()) return s;
    cur_first_key_ = key.ToString();
    s = bp_->FetchPage(cur_leaf_, &page);
    if (!s.ok()) return s;
    ln = LeafNode(page);
  }
  s = ln.Insert(key, value);
  bp_->UnpinPage(cur_leaf_, s.ok());
  any_ = true;
  return s;
}

Status BulkBuilder::Finish(PageId* root, uint8_t* height) {
  if (!any_ && cur_leaf_ == kInvalidPageId) {
    Status s = OpenLeaf();
    if (!s.ok()) return s;
  }
  Status s = CloseLeaf();
  if (!s.ok()) return s;
  return internal_.Finish(root, height);
}

}  // namespace soreorg
