#include "src/btree/btree.h"

#include <cassert>
#include <optional>

#include "src/btree/iterator.h"
#include "src/util/coding.h"

namespace soreorg {

BTree::BTree(BufferPool* bp, LogManager* log, LockManager* locks,
             BTreeOptions options)
    : bp_(bp), log_(log), locks_(locks), options_(options) {}

Status BTree::Create() {
  // One empty leaf under a root base page whose single separator is the
  // empty key (-infinity).
  PageId leaf_pid, root_pid;
  Page* leaf_page;
  Status s = bp_->NewPage(&leaf_pid, &leaf_page);
  if (!s.ok()) return s;
  LeafNode::Format(leaf_page, leaf_pid);

  Page* root_page;
  s = bp_->NewPage(&root_pid, &root_page);
  if (!s.ok()) {
    bp_->UnpinPage(leaf_pid, false);
    return s;
  }
  InternalNode::Format(root_page, root_pid, /*level=*/1, Slice());
  InternalNode root(root_page);
  s = root.Insert(Slice(), leaf_pid);
  assert(s.ok());

  // Log the creation so redo can rebuild it.
  LogRecord fmt_leaf;
  fmt_leaf.type = LogType::kFormatPage;
  fmt_leaf.page_id = leaf_pid;
  fmt_leaf.unit_type = static_cast<uint8_t>(PageType::kLeaf);
  log_->Append(&fmt_leaf);
  leaf_page->set_page_lsn(fmt_leaf.lsn);

  LogRecord fmt_root;
  fmt_root.type = LogType::kFormatPage;
  fmt_root.page_id = root_pid;
  fmt_root.unit_type = static_cast<uint8_t>(PageType::kInternal);
  fmt_root.flags = 1;  // level
  log_->Append(&fmt_root);

  LogRecord ins;
  ins.type = LogType::kInsert;
  ins.flags = kInternalCell;
  ins.page_id = root_pid;
  ins.value = EncodePid(leaf_pid);
  log_->Append(&ins);
  root_page->set_page_lsn(ins.lsn);

  LogRecord rc;
  rc.type = LogType::kRootChange;
  rc.page_id = root_pid;
  rc.flags = 2;  // height
  s = log_->AppendAndFlush(&rc);

  bp_->UnpinPage(leaf_pid, true);
  bp_->UnpinPage(root_pid, true);

  root_.store(root_pid);
  height_.store(2);
  incarnation_.store(1);
  return s;
}

void BTree::Attach(PageId root, uint8_t height, uint64_t incarnation) {
  root_.store(root);
  height_.store(height);
  incarnation_.store(incarnation);
}

void BTree::set_base_update_hook(BaseUpdateHook hook) {
  std::lock_guard<std::mutex> g(hook_mu_);
  base_update_hook_ = std::move(hook);
}

void BTree::set_base_update_cancel_hook(BaseUpdateCancelHook hook) {
  std::lock_guard<std::mutex> g(hook_mu_);
  base_update_cancel_hook_ = std::move(hook);
}

void BTree::CancelBaseUpdate(Transaction* txn, BaseUpdateOp op,
                             const Slice& key, PageId leaf) {
  BaseUpdateCancelHook hook;
  {
    std::lock_guard<std::mutex> g(hook_mu_);
    hook = base_update_cancel_hook_;
  }
  if (hook) hook(txn, op, key, leaf);
}

Status BTree::LowerSeparatorIfNeeded(Transaction* txn, const Slice& key) {
  TxnId id = txn->id();
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    Descent d{.access = Access::kExclusive, .stop_level = 1};
    Status s = Descend(id, key, &d);
    if (s.IsDeadlock() || s.IsBusy()) continue;
    if (!s.ok()) return s;
    std::vector<PageId>& path = d.path;
    PageId base = d.pid;

    Page* page;
    s = bp_->FetchPage(base, &page);
    if (!s.ok()) {
      UnlockPages(id, &path);
      return s;
    }
    int slot;
    std::string old_sep;
    PageId leaf = kInvalidPageId;
    {
      std::shared_lock<PageLatch> latch(page->latch());
      InternalNode node(page);
      slot = node.FindChild(key);
      old_sep = node.KeyAt(slot).ToString();
      leaf = node.ChildAt(slot);
    }
    if (Slice(old_sep).compare(key) <= 0) {
      bp_->UnpinPage(base, false);
      UnlockPages(id, &path);
      return Status::OK();  // already exact
    }

    // Report the separator change to the pass-3 side file as a
    // delete + re-insert of the leaf's base entry.
    Status h1 = NotifyBaseUpdate(txn, BaseUpdateOp::kDelete, old_sep, leaf,
                                 base);
    if (h1.IsBusy()) {
      bp_->UnpinPage(base, false);
      UnlockPages(id, &path);
      continue;  // the tree switched; redo against the new tree
    }
    if (!h1.ok()) {
      bp_->UnpinPage(base, false);
      UnlockPages(id, &path);
      return h1;
    }
    Status h2 = NotifyBaseUpdate(txn, BaseUpdateOp::kInsert,
                                 key.ToString(), leaf, base);
    if (!h2.ok()) {
      CancelBaseUpdate(txn, BaseUpdateOp::kDelete, old_sep, leaf);
      bp_->UnpinPage(base, false);
      UnlockPages(id, &path);
      if (h2.IsBusy()) continue;
      return h2;
    }

    BufferPool::ApplyScope apply_scope(bp_);
    {
      std::unique_lock<PageLatch> latch(page->latch());
      InternalNode node(page);
      // Re-verify under the exclusive latch (we hold the base X lock, so
      // the slot cannot have changed — this is belt and braces).
      int s2 = node.FindChildSlot(leaf);
      if (s2 >= 0 && node.KeyAt(s2).compare(key) > 0) {
        LogRecord mod;
        mod.type = LogType::kReorgModify;
        mod.txn_id = txn->id();
        mod.page_id = base;
        mod.key = old_sep;
        {
          std::string pid_bytes;
          PutFixed32(&pid_bytes, leaf);
          mod.value = pid_bytes;
          mod.value2 = pid_bytes;
        }
        mod.key2 = key.ToString();
        log_->Append(&mod);
        node.SetKeyAt(s2, key);
        page->set_page_lsn(mod.lsn);
      }
    }
    bp_->UnpinPage(base, true);
    UnlockPages(id, &path);
    return Status::OK();
  }
  return Status::Busy("separator lowering retries exhausted");
}

Status BTree::NotifyBaseUpdate(Transaction* txn, BaseUpdateOp op,
                               const Slice& key, PageId leaf,
                               PageId base_pid) {
  if (!reorg_bit_.load()) return Status::OK();
  BaseUpdateHook hook;
  {
    std::lock_guard<std::mutex> g(hook_mu_);
    hook = base_update_hook_;
  }
  if (!hook) return Status::OK();
  return hook(txn, op, key, leaf, base_pid);
}

Status BTree::UnlockPages(TxnId locker, std::vector<PageId>* pids) {
  for (auto it = pids->rbegin(); it != pids->rend(); ++it) {
    locks_->Unlock(locker, PageLock(*it));
  }
  pids->clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Descent
// ---------------------------------------------------------------------------

Status BTree::Descend(TxnId locker, const Slice& key, Descent* d) {
  const bool optimistic = d->access == Access::kOptimistic;
  const bool exclusive = d->access == Access::kExclusive;
  const LockMode couple = exclusive ? LockMode::kX : LockMode::kS;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    const uint64_t inc = incarnation_.load();
    PageId cur = root_.load();
    d->path.clear();
    d->lo.clear();
    d->hi.clear();
    if (!optimistic) {
      Status s = locks_->Lock(locker, PageLock(cur), couple);
      if (!s.ok()) return s;
      d->path.push_back(cur);
      if (cur != root_.load()) {  // root split raced us
        UnlockPages(locker, &d->path);
        continue;
      }
    }
    int slot = 0;           // kOptimistic: image slot holding `cur`
    int parent_level = -1;  // -1 while `cur` is the root
    while (true) {
      Page* page;
      if (optimistic) {
        Page* frame = bp_->FindResident(cur);
        OptimisticPageGuard& g = d->images[slot];
        // Not resident: the locked path faults it in. The mark check comes
        // BEFORE the parent revalidation: a zero mark means any
        // S-incompatible page lock on `cur` — and therefore any structure
        // modification that touched it — was fully released (parent
        // updated, root_ stored) before this load, so a stale parent image
        // cannot pass the revalidation. At the root, a root split stores
        // root_ before its X path locks release, so the mark check alone
        // can miss it: re-check the pointer instead.
        if (frame == nullptr || !g.Capture(frame, cur) ||
            locks_->PageSharedReadBlocked(cur) ||
            (parent_level < 0 ? root_.load() != cur
                              : !d->images[1 - slot].Revalidate())) {
          return Status::Busy();
        }
        page = g.page();
        // A validated image of a recycled frame, or a torn routing chain,
        // shows as a node of the wrong type or level.
        uint8_t level = page->level();
        PageType want = level == 0 ? PageType::kLeaf : PageType::kInternal;
        if (page->type() != want ||
            (parent_level < 0 ? level == 0 : level + 1 != parent_level)) {
          return Status::Busy();
        }
      } else {
        Status s = bp_->FetchPage(cur, &page);
        if (!s.ok()) {
          UnlockPages(locker, &d->path);
          return s;
        }
      }

      uint8_t level;
      PageId child = kInvalidPageId;
      bool safe = false;
      {
        std::shared_lock<PageLatch> latch(page->latch(), std::defer_lock);
        if (!optimistic) latch.lock();
        level = page->level();
        if (exclusive) {
          // Safety (Bayer-Schkolnick): can this node absorb the pending
          // modification without changing its parent?
          if (level == 0) {
            LeafNode ln(page);
            safe = d->insert_bytes > 0 ? ln.FreeSpace() >= d->insert_bytes
                                       : ln.Count() > 1;
          } else {
            InternalNode in(page);
            safe = d->insert_bytes > 0
                       ? in.FreeSpace() >= InternalNode::CellSize(key) + 16
                       : in.Count() > 1;
          }
        }
        if (level != d->stop_level) {
          InternalNode node(page);
          int n = node.Count();
          int idx = node.FindChild(key);
          child = n > 0 ? node.ChildAt(idx) : kInvalidPageId;
          if (optimistic && (child == kInvalidPageId || child == cur)) {
            return Status::Busy();
          }
          if (d->range) {
            // The child's range: slot 0 inherits this node's lo (FindChild
            // clamps keys below it there); the last slot inherits its hi.
            Slice sep = node.KeyAt(idx);
            if (idx > 0) d->lo.assign(sep.data(), sep.size());
            if (idx + 1 < n) {
              Slice next = node.KeyAt(idx + 1);
              d->hi.assign(next.data(), next.size());
            }
            if (level == d->stop_level + 1) {
              d->separator.assign(sep.data(), sep.size());
            }
          }
        }
      }
      if (!optimistic) bp_->UnpinPage(cur, false);

      if (safe && d->path.size() > 1) {
        // Nothing above a safe node can change: release the ancestors.
        for (size_t i = 0; i + 1 < d->path.size(); ++i) {
          locks_->Unlock(locker, PageLock(d->path[i]));
        }
        d->path.erase(d->path.begin(), d->path.end() - 1);
      }

      if (level == d->stop_level) {
        if (!optimistic && !exclusive && parent_level < 0 &&
            d->stop_mode != couple) {
          // The root is the stop node: convert its coupling lock.
          Status s = locks_->Lock(locker, PageLock(cur), d->stop_mode);
          if (!s.ok()) {
            UnlockPages(locker, &d->path);
            return s;
          }
        }
        if (incarnation_.load() != inc) {
          // The switch flipped the root mid-descent. Under the step-aside
          // protocol new-tree base updates can land before the old tree
          // has drained, so a descent routed through old internal pages
          // may have reached a page whose keys were since split off to the
          // right. The stop node's lock is granted, so nothing can move
          // now — but the routing may already be stale.
          if (optimistic) return Status::Busy();
          UnlockPages(locker, &d->path);
          break;
        }
        d->pid = cur;
        if (optimistic) d->image = page;
        return Status::OK();
      }

      if (!optimistic) {
        LockMode mode =
            !exclusive && level == d->stop_level + 1 ? d->stop_mode : couple;
        Status s = locks_->Lock(locker, PageLock(child), mode);
        if (s.IsBackoff()) {
          // Paper protocol: give up the locks, wait out the reorganizer
          // with an unconditional instant-duration RS lock on the parent
          // (the base page), then retry the whole descent.
          UnlockPages(locker, &d->path);
          Status rs = locks_->LockInstant(locker, PageLock(cur), LockMode::kRS);
          if (!rs.ok()) return rs;
          break;
        }
        if (!s.ok()) {
          UnlockPages(locker, &d->path);
          return s;
        }
        if (!exclusive) {
          locks_->Unlock(locker, PageLock(cur));
          d->path.clear();
        }
        d->path.push_back(child);
      }
      parent_level = level;
      slot = 1 - slot;
      cur = child;
    }
  }
  return Status::Busy("descent retries exhausted");
}

// ---------------------------------------------------------------------------
// Logging helpers
// ---------------------------------------------------------------------------

void BTree::LogRecordOp(Transaction* txn, LogType type, PageId page,
                        const Slice& key, const Slice& old_value,
                        const Slice& new_value, Page* page_obj) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn->id();
  rec.prev_lsn = txn->last_lsn();
  rec.page_id = page;
  rec.key = key.ToString();
  if (type == LogType::kDelete) {
    rec.value = old_value.ToString();
  } else if (type == LogType::kUpdate) {
    rec.value = old_value.ToString();
    rec.value2 = new_value.ToString();
  } else {
    rec.value = new_value.ToString();
  }
  log_->Append(&rec);
  txn->set_last_lsn(rec.lsn);
  page_obj->set_page_lsn(rec.lsn);
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(Transaction* txn, const Slice& key, const Slice& value) {
  assert(txn != nullptr);
  TxnId id = txn->id();
  Status s = locks_->Lock(id, TreeLock(incarnation_.load()), LockMode::kIX);
  if (!s.ok()) return s;

  size_t need = LeafNode::CellSize(key, value);
  if (need > kPageSize / 4) {
    return Status::InvalidArgument("record too large");
  }

  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    Descent r{.access = Access::kShared, .stop_mode = LockMode::kX};
    s = Descend(id, key, &r);
    if (!s.ok()) return s;

    if (key.compare(r.separator) < 0) {
      // The key is below its leaf's separator (reachable only via slot-0
      // clamping). Lower the separator first so separators stay exact —
      // pass 3's flat rebuild depends on it.
      locks_->Unlock(id, PageLock(r.pid));
      s = LowerSeparatorIfNeeded(txn, key);
      if (!s.ok()) return s;
      continue;
    }

    Page* leaf_page;
    s = bp_->FetchPage(r.pid, &leaf_page);
    if (!s.ok()) {
      locks_->Unlock(id, PageLock(r.pid));
      return s;
    }
    bool fits;
    bool exact;
    {
      std::shared_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      ln.LowerBound(key, &exact);
      fits = ln.FreeSpace() >= need;
    }
    if (exact) {
      bp_->UnpinPage(r.pid, false);
      locks_->Unlock(id, PageLock(r.pid));
      return Status::InvalidArgument("duplicate key");
    }
    if (fits) {
      BufferPool::ApplyScope apply_scope(bp_);
      {
        std::unique_lock<PageLatch> latch(leaf_page->latch());
        LeafNode ln(leaf_page);
        s = ln.Insert(key, value);
        if (s.ok()) {
          LogRecordOp(txn, LogType::kInsert, r.pid, key, Slice(), value,
                      leaf_page);
        }
      }
      bp_->UnpinPage(r.pid, s.ok());
      if (!s.ok()) locks_->Unlock(id, PageLock(r.pid));
      return s;  // leaf X lock retained until commit/abort
    }
    bp_->UnpinPage(r.pid, false);
    locks_->Unlock(id, PageLock(r.pid));

    // Leaf is full: pessimistic descent + split.
    Descent x{.access = Access::kExclusive, .insert_bytes = need};
    s = Descend(id, key, &x);
    if (!s.ok()) return s;
    std::vector<PageId>& path = x.path;

    s = bp_->FetchPage(path.back(), &leaf_page);
    if (!s.ok()) {
      UnlockPages(id, &path);
      return s;
    }
    bool fits_now;
    {
      std::shared_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      fits_now = ln.FreeSpace() >= need;
    }
    bp_->UnpinPage(path.back(), false);

    if (!fits_now) {
      s = SplitLeaf(txn, path, key);
      if (s.IsBusy() || s.IsBackoff() || s.IsDeadlock()) {
        UnlockPages(id, &path);
        continue;  // retry whole operation
      }
      if (!s.ok()) {
        UnlockPages(id, &path);
        return s;
      }
      // path.back() may no longer be the right leaf for `key`; retry loop
      // will re-descend. Release structure locks first.
      UnlockPages(id, &path);
      continue;
    }

    // It fits after all (another txn freed space): retry through the
    // optimistic path so the separator-exactness check runs.
    UnlockPages(id, &path);
  }
  return Status::Busy("insert retries exhausted");
}


// ---------------------------------------------------------------------------
// Splits
// ---------------------------------------------------------------------------

Status BTree::InsertSeparatorInto(Transaction* txn, PageId node_pid,
                                  const Slice& separator, PageId child) {
  Page* page;
  Status s = bp_->FetchPage(node_pid, &page);
  if (!s.ok()) return s;
  Status rs;
  BufferPool::ApplyScope apply_scope(bp_);
  {
    std::unique_lock<PageLatch> latch(page->latch());
    InternalNode node(page);
    rs = node.Insert(separator, child);
    if (rs.ok()) {
      LogRecord rec;
      rec.type = LogType::kInsert;
      rec.flags = kInternalCell;
      rec.txn_id = txn->id();
      rec.page_id = node_pid;
      rec.key = separator.ToString();
      rec.value = EncodePid(child);
      log_->Append(&rec);
      page->set_page_lsn(rec.lsn);
    }
  }
  bp_->UnpinPage(node_pid, rs.ok());
  return rs;
}

Status BTree::SplitInternal(Transaction* txn, const std::vector<PageId>& path,
                            size_t idx, std::string* out_separator,
                            PageId* out_new_pid) {
  TxnId id = txn->id();
  PageId node_pid = path[idx];

  Page* page;
  Status s = bp_->FetchPage(node_pid, &page);
  if (!s.ok()) return s;
  PageGuard guard(bp_, page);

  SlottedPage sp(page);
  int n = sp.slot_count();
  if (n < 2) return Status::Busy("cannot split near-empty internal node");
  int split_at = n / 2;
  InternalNode old_node(page);
  std::string separator = old_node.KeyAt(split_at).ToString();
  std::string moved = PackCellRange(sp, split_at, n);
  uint8_t level = page->level();

  PageId new_pid;
  Page* new_page;
  s = bp_->NewPage(&new_pid, &new_page);
  if (!s.ok()) return s;
  PageGuard new_guard(bp_, new_page);
  locks_->Lock(id, PageLock(new_pid), LockMode::kX);

  // Root split builds its new root before any cells move, so every fallible
  // step precedes the physical change.
  PageId new_root = kInvalidPageId;
  Page* root_page = nullptr;
  if (idx == 0) {
    s = bp_->NewPage(&new_root, &root_page);
    if (!s.ok()) {
      locks_->Unlock(id, PageLock(new_pid));
      return s;
    }
  }

  std::vector<std::string> cells;
  UnpackCells(moved, &cells);
  // Physical change through dirty-unpin rides in one apply scope so a
  // concurrent checkpoint's redo floor cannot split it.
  BufferPool::ApplyScope apply_scope(bp_);
  {
    std::unique_lock<PageLatch> latch(new_page->latch());
    InternalNode::Format(new_page, new_pid, level, separator);
    SlottedPage nsp(new_page);
    for (size_t i = 0; i < cells.size(); ++i) {
      nsp.InsertCell(static_cast<int>(i), cells[i]);
    }
  }
  {
    std::unique_lock<PageLatch> latch(page->latch());
    SlottedPage osp(page);
    for (int i = n - 1; i >= split_at; --i) osp.RemoveCell(i);
  }

  LogRecord rec;
  rec.type = LogType::kInternalSplit;
  rec.txn_id = txn->id();
  rec.page_id = node_pid;
  rec.page_id2 = new_pid;
  rec.key = separator;
  rec.payload = moved;
  rec.flags = level;

  if (idx == 0) {
    PageGuard root_guard(bp_, root_page);
    uint8_t new_height = static_cast<uint8_t>(height_.load() + 1);
    {
      std::unique_lock<PageLatch> latch(root_page->latch());
      InternalNode::Format(root_page, new_root,
                           static_cast<uint8_t>(level + 1), Slice());
      InternalNode r(root_page);
      r.Insert(Slice(), node_pid);
      r.Insert(separator, new_pid);
    }
    rec.page_id3 = kInvalidPageId;
    rec.value2 = EncodePid(new_root);
    log_->Append(&rec);
    page->set_page_lsn(rec.lsn);
    new_page->set_page_lsn(rec.lsn);
    root_page->set_page_lsn(rec.lsn);

    LogRecord rc;
    rc.type = LogType::kRootChange;
    rc.txn_id = txn->id();
    rc.page_id = new_root;
    rc.page_id2 = node_pid;
    rc.flags = new_height;
    log_->Append(&rc);

    guard.MarkDirty();
    new_guard.MarkDirty();
    root_guard.MarkDirty();
    root_.store(new_root);
    height_.store(new_height);
  } else {
    rec.page_id3 = path[idx - 1];
    log_->Append(&rec);
    page->set_page_lsn(rec.lsn);
    new_page->set_page_lsn(rec.lsn);
    guard.MarkDirty();
    new_guard.MarkDirty();
    // The parent is guaranteed (by EnsureSeparatorRoom) to have room.
    s = InsertSeparatorInto(txn, path[idx - 1], separator, new_pid);
    if (!s.ok()) {
      guard.Release();
      new_guard.Release();
      locks_->Unlock(id, PageLock(new_pid));
      return s;
    }
  }

  // Dirty-unpin both halves while still inside the apply scope (the guards
  // themselves outlive it).
  guard.Release();
  new_guard.Release();

  *out_separator = separator;
  *out_new_pid = new_pid;
  // The new right half stays X-locked; the caller unlocks it.
  return Status::OK();
}

Status BTree::EnsureSeparatorRoom(Transaction* txn,
                                  const std::vector<PageId>& path, size_t idx,
                                  const Slice& separator, PageId* target,
                                  std::vector<PageId>* extra_locked) {
  PageId node_pid = path[idx];
  Page* page;
  Status s = bp_->FetchPage(node_pid, &page);
  if (!s.ok()) return s;
  bool fits;
  std::string promoted;  // prospective separator if this node must split
  {
    std::shared_lock<PageLatch> latch(page->latch());
    InternalNode node(page);
    fits = node.FreeSpace() >= InternalNode::CellSize(separator);
    if (!fits && node.Count() >= 2) {
      promoted = node.KeyAt(node.Count() / 2).ToString();
    }
  }
  bp_->UnpinPage(node_pid, false);
  if (fits) {
    *target = node_pid;
    return Status::OK();
  }
  if (promoted.empty()) return Status::Busy("unsplittable internal node");

  // Make room in the parent for the separator this split will promote.
  if (idx > 0) {
    PageId parent_target;
    s = EnsureSeparatorRoom(txn, path, idx - 1, promoted, &parent_target,
                            extra_locked);
    if (!s.ok()) return s;
    // SplitInternal inserts into path[idx-1]; if the parent itself split and
    // the promoted key now belongs in its right half, steer via a local
    // path copy.
    if (parent_target != path[idx - 1]) {
      std::vector<PageId> adjusted(path.begin(), path.begin() + idx + 1);
      adjusted[idx - 1] = parent_target;
      std::string sep;
      PageId new_pid;
      s = SplitInternal(txn, adjusted, idx, &sep, &new_pid);
      if (!s.ok()) return s;
      extra_locked->push_back(new_pid);
      *target = Slice(sep).compare(separator) <= 0 ? new_pid : node_pid;
      return Status::OK();
    }
  }
  std::string sep;
  PageId new_pid;
  s = SplitInternal(txn, path, idx, &sep, &new_pid);
  if (!s.ok()) return s;
  extra_locked->push_back(new_pid);
  *target = Slice(sep).compare(separator) <= 0 ? new_pid : node_pid;
  return Status::OK();
}

Status BTree::SplitLeaf(Transaction* txn, const std::vector<PageId>& path,
                        const Slice& key) {
  (void)key;
  TxnId id = txn->id();
  if (path.size() < 2) {
    return Status::Busy("split without parent lock");
  }
  PageId leaf_pid = path.back();
  PageId parent_pid = path[path.size() - 2];

  Page* leaf_page;
  Status s = bp_->FetchPage(leaf_pid, &leaf_page);
  if (!s.ok()) return s;
  PageGuard leaf_guard(bp_, leaf_page);

  // 1. Read-only: choose the split point, separator and moved-cell bundle.
  SlottedPage sp(leaf_page);
  int n = sp.slot_count();
  if (n < 2) return Status::Busy("cannot split near-empty leaf");
  size_t used = sp.UsedSpace();
  size_t target_bytes = static_cast<size_t>(
      static_cast<double>(used) * kSplitFraction);
  size_t acc = 0;
  int split_at = n - 1;
  for (int i = 0; i < n - 1; ++i) {
    acc += sp.GetCell(i).size() + 4;
    if (acc >= target_bytes) {
      split_at = i + 1;
      break;
    }
  }
  LeafNode old_leaf(leaf_page);
  std::string separator = old_leaf.KeyAt(split_at).ToString();
  std::string moved = PackCellRange(sp, split_at, n);
  PageId old_next = leaf_page->next();

  // 2. Allocate + X-lock the new right leaf (before the hook, which needs
  // the leaf pid for the side-file entry).
  PageId new_pid;
  Page* new_page;
  s = bp_->NewPage(&new_pid, &new_page);
  if (!s.ok()) return s;
  PageGuard new_guard(bp_, new_page);
  locks_->Lock(id, PageLock(new_pid), LockMode::kX);
  auto abandon_new = [&]() {
    new_guard.Release();
    locks_->Unlock(id, PageLock(new_pid));
    bp_->DeletePage(new_pid);
  };

  // 3. Pass-3 interception (before any physical change).
  std::vector<PageId> redirected_path;
  PageId sep_node = parent_pid;
  std::vector<PageId> parent_path(path.begin(), path.end() - 1);
  s = NotifyBaseUpdate(txn, BaseUpdateOp::kInsert, separator, new_pid,
                       parent_pid);
  if (s.IsBusy()) {
    // The tree switched: the separator belongs in the NEW tree's base level.
    Descent d{.access = Access::kExclusive,
              .stop_level = 1,
              .insert_bytes = InternalNode::CellSize(separator) + 16};
    s = Descend(id, separator, &d);
    if (!s.ok()) {
      abandon_new();
      return s;
    }
    redirected_path = std::move(d.path);
    parent_path = redirected_path;
    sep_node = redirected_path.back();
    Status hs = NotifyBaseUpdate(txn, BaseUpdateOp::kInsert, separator,
                                 new_pid, sep_node);
    if (!hs.ok()) {
      UnlockPages(id, &redirected_path);
      abandon_new();
      return hs;
    }
  } else if (!s.ok()) {
    abandon_new();
    return s;
  }
  auto cleanup_redirect = [&]() {
    if (!redirected_path.empty()) UnlockPages(id, &redirected_path);
  };
  auto cancel_hook = [&]() {
    CancelBaseUpdate(txn, BaseUpdateOp::kInsert, separator, new_pid);
  };

  // 4. Lock the side-pointer neighbor (before data moves, §4.3).
  bool fix_neighbor = options_.side_pointers == SidePointerMode::kTwoWay &&
                      old_next != kInvalidPageId;
  if (fix_neighbor) {
    s = locks_->Lock(id, PageLock(old_next), LockMode::kX);
    if (!s.ok()) {
      cancel_hook();
      cleanup_redirect();
      abandon_new();
      return s;  // Backoff/Deadlock bubbles up; caller retries the op.
    }
  }
  auto unlock_neighbor = [&]() {
    if (fix_neighbor) locks_->Unlock(id, PageLock(old_next));
  };

  // 5. Guarantee separator room in the (possibly redirected) base level.
  PageId sep_target = sep_node;
  std::vector<PageId> extra_locked;
  s = EnsureSeparatorRoom(txn, parent_path, parent_path.size() - 1, separator,
                          &sep_target, &extra_locked);
  if (!s.ok()) {
    cancel_hook();
    unlock_neighbor();
    UnlockPages(id, &extra_locked);
    cleanup_redirect();
    abandon_new();
    return s;
  }

  // --- point of no return: all fallible steps done -------------------------

  // 6. Move the upper cells and fix side pointers. The whole physical
  // change (both leaf images, the neighbor's back pointer, the separator
  // insert) rides in one apply scope so a concurrent checkpoint's redo
  // floor cannot split any append from its byte effects.
  BufferPool::ApplyScope apply_scope(bp_);
  std::vector<std::string> cells;
  UnpackCells(moved, &cells);
  {
    std::unique_lock<PageLatch> latch(new_page->latch());
    LeafNode::Format(new_page, new_pid);
    SlottedPage nsp(new_page);
    for (size_t i = 0; i < cells.size(); ++i) {
      nsp.InsertCell(static_cast<int>(i), cells[i]);
    }
    if (options_.side_pointers != SidePointerMode::kNone) {
      new_page->SetNext(old_next);
      if (options_.side_pointers == SidePointerMode::kTwoWay) {
        new_page->SetPrev(leaf_pid);
      }
    }
  }
  {
    std::unique_lock<PageLatch> latch(leaf_page->latch());
    SlottedPage osp(leaf_page);
    for (int i = n - 1; i >= split_at; --i) osp.RemoveCell(i);
    if (options_.side_pointers != SidePointerMode::kNone) {
      leaf_page->SetNext(new_pid);
    }
  }

  // 7. Single atomic WAL record for the leaf-level change, then the
  // separator insert (its own physiological record).
  LogRecord rec;
  rec.type = LogType::kLeafSplit;
  rec.txn_id = txn->id();
  rec.page_id = leaf_pid;
  rec.page_id2 = new_pid;
  rec.page_id3 = sep_target;
  rec.key = separator;
  rec.payload = moved;
  rec.value = EncodePid(old_next);
  rec.flags = static_cast<uint8_t>(options_.side_pointers);
  log_->Append(&rec);
  leaf_page->set_page_lsn(rec.lsn);
  new_page->set_page_lsn(rec.lsn);
  leaf_guard.MarkDirty();
  new_guard.MarkDirty();

  if (fix_neighbor) {
    Page* nb;
    if (bp_->FetchPage(old_next, &nb).ok()) {
      {
        std::unique_lock<PageLatch> latch(nb->latch());
        nb->SetPrev(new_pid);
        nb->set_page_lsn(rec.lsn);
      }
      bp_->UnpinPage(old_next, true);
    }
  }

  s = InsertSeparatorInto(txn, sep_target, separator, new_pid);
  // Cannot fail: room was reserved under X locks. Surface any surprise.
  assert(s.ok());

  // Dirty-unpin both leaves while still inside the apply scope (the guards
  // themselves outlive it).
  leaf_guard.Release();
  new_guard.Release();

  unlock_neighbor();
  UnlockPages(id, &extra_locked);
  locks_->Unlock(id, PageLock(new_pid));
  cleanup_redirect();
  return s;
}

// ---------------------------------------------------------------------------
// Update / Delete
// ---------------------------------------------------------------------------

Status BTree::Update(Transaction* txn, const Slice& key, const Slice& value) {
  assert(txn != nullptr);
  TxnId id = txn->id();
  Status s = locks_->Lock(id, TreeLock(incarnation_.load()), LockMode::kIX);
  if (!s.ok()) return s;

  Descent r{.access = Access::kShared, .stop_mode = LockMode::kX};
  s = Descend(id, key, &r);
  if (!s.ok()) return s;

  Page* leaf_page;
  s = bp_->FetchPage(r.pid, &leaf_page);
  if (!s.ok()) {
    locks_->Unlock(id, PageLock(r.pid));
    return s;
  }
  bool exact;
  int pos;
  bool fits = false;
  std::string old_value;
  {
    std::shared_lock<PageLatch> latch(leaf_page->latch());
    LeafNode ln(leaf_page);
    pos = ln.LowerBound(key, &exact);
    if (exact) {
      old_value = ln.ValueAt(pos).ToString();
      size_t old_cell = LeafNode::CellSize(key, old_value);
      size_t new_cell = LeafNode::CellSize(key, value);
      fits = new_cell <= old_cell || ln.FreeSpace() >= new_cell - old_cell;
    }
  }
  if (!exact) {
    bp_->UnpinPage(r.pid, false);
    locks_->Unlock(id, PageLock(r.pid));
    return Status::NotFound("key not found");
  }
  if (fits) {
    BufferPool::ApplyScope apply_scope(bp_);
    {
      std::unique_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      s = ln.SetValueAt(pos, value);
      if (s.ok()) {
        LogRecordOp(txn, LogType::kUpdate, r.pid, key, old_value, value,
                    leaf_page);
      }
    }
    bp_->UnpinPage(r.pid, s.ok());
    if (!s.ok()) locks_->Unlock(id, PageLock(r.pid));
    return s;
  }
  bp_->UnpinPage(r.pid, false);
  locks_->Unlock(id, PageLock(r.pid));
  // Grow-in-place impossible: delete + reinsert (handles the split).
  s = Delete(txn, key);
  if (!s.ok()) return s;
  return Insert(txn, key, value);
}

Status BTree::Delete(Transaction* txn, const Slice& key) {
  assert(txn != nullptr);
  TxnId id = txn->id();
  Status s = locks_->Lock(id, TreeLock(incarnation_.load()), LockMode::kIX);
  if (!s.ok()) return s;

  Descent r{.access = Access::kShared, .stop_mode = LockMode::kX};
  s = Descend(id, key, &r);
  if (!s.ok()) return s;

  Page* leaf_page;
  s = bp_->FetchPage(r.pid, &leaf_page);
  if (!s.ok()) {
    locks_->Unlock(id, PageLock(r.pid));
    return s;
  }
  bool exact;
  int pos;
  int count;
  std::string old_value;
  {
    std::shared_lock<PageLatch> latch(leaf_page->latch());
    LeafNode ln(leaf_page);
    pos = ln.LowerBound(key, &exact);
    count = ln.Count();
    if (exact) old_value = ln.ValueAt(pos).ToString();
  }
  if (!exact) {
    bp_->UnpinPage(r.pid, false);
    locks_->Unlock(id, PageLock(r.pid));
    return Status::NotFound("key not found");
  }
  if (count > 1) {
    BufferPool::ApplyScope apply_scope(bp_);
    {
      std::unique_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      ln.RemoveAt(pos);
      LogRecordOp(txn, LogType::kDelete, r.pid, key, old_value, Slice(),
                  leaf_page);
    }
    bp_->UnpinPage(r.pid, true);
    return Status::OK();  // leaf X lock retained until commit/abort
  }
  bp_->UnpinPage(r.pid, false);
  locks_->Unlock(id, PageLock(r.pid));

  // The leaf would become empty: free-at-empty path with X-coupled
  // ancestors (paper §2 / [JS93]).
  Descent x{.access = Access::kExclusive};
  s = Descend(id, key, &x);
  if (!s.ok()) return s;
  std::vector<PageId>& path = x.path;

  s = bp_->FetchPage(path.back(), &leaf_page);
  if (!s.ok()) {
    UnlockPages(id, &path);
    return s;
  }
  {
    std::shared_lock<PageLatch> latch(leaf_page->latch());
    LeafNode ln(leaf_page);
    pos = ln.LowerBound(key, &exact);
    count = ln.Count();
    if (exact) old_value = ln.ValueAt(pos).ToString();
  }
  if (!exact) {
    bp_->UnpinPage(path.back(), false);
    UnlockPages(id, &path);
    return Status::NotFound("key vanished during retry");
  }
  {
    BufferPool::ApplyScope apply_scope(bp_);
    {
      std::unique_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      ln.RemoveAt(pos);
      LogRecordOp(txn, LogType::kDelete, path.back(), key, old_value,
                  Slice(), leaf_page);
    }
    bp_->UnpinPage(path.back(), true);
  }
  if (count == 1) {
    // Free-at-empty. A failure here is benign: the empty leaf simply
    // stays linked until a later pass removes it.
    FreeEmptyLeaf(txn, path);
  }
  path.pop_back();  // leaf X lock retained until commit/abort
  UnlockPages(id, &path);
  return Status::OK();
}

Status BTree::FreeEmptyLeaf(Transaction* txn, const std::vector<PageId>& path) {
  TxnId id = txn->id();
  if (path.size() < 2) return Status::Busy("no parent lock for unlink");
  PageId leaf_pid = path.back();

  Page* leaf_page;
  Status s = bp_->FetchPage(leaf_pid, &leaf_page);
  if (!s.ok()) return s;
  PageId prev_pid = leaf_page->prev();
  PageId next_pid = leaf_page->next();
  bp_->UnpinPage(leaf_pid, false);

  PageId parent_pid = path[path.size() - 2];
  Page* parent_page;
  s = bp_->FetchPage(parent_pid, &parent_page);
  if (!s.ok()) return s;
  std::string separator;
  int slot;
  {
    std::shared_lock<PageLatch> latch(parent_page->latch());
    InternalNode parent(parent_page);
    slot = parent.FindChildSlot(leaf_pid);
    if (slot >= 0) separator = parent.KeyAt(slot).ToString();
  }
  bp_->UnpinPage(parent_pid, false);
  if (slot < 0) return Status::Corruption("leaf missing from parent");

  // Never remove the last leaf under the root: a tree must keep at least
  // one leaf so searches have somewhere to land. (Checked before the pass-3
  // hook so a bail-out never leaves a phantom side-file entry.)
  {
    Page* pp;
    s = bp_->FetchPage(parent_pid, &pp);
    if (!s.ok()) return s;
    int pcount;
    {
      std::shared_lock<PageLatch> latch(pp->latch());
      InternalNode pn(pp);
      pcount = pn.Count();
    }
    bp_->UnpinPage(parent_pid, false);
    if (parent_pid == root_.load() && pcount <= 1) {
      return Status::OK();  // keep the (empty) last leaf
    }
  }

  // Pass-3 interception for the base-page change.
  s = NotifyBaseUpdate(txn, BaseUpdateOp::kDelete, separator, leaf_pid,
                       parent_pid);
  PageId sep_parent = parent_pid;
  std::vector<PageId> redirected;
  if (s.IsBusy()) {
    Descent d{.access = Access::kExclusive, .stop_level = 1};
    s = Descend(id, separator, &d);
    if (!s.ok()) return s;
    redirected = std::move(d.path);
    sep_parent = d.pid;
    Status hs = NotifyBaseUpdate(txn, BaseUpdateOp::kDelete, separator,
                                 leaf_pid, sep_parent);
    if (!hs.ok()) {
      UnlockPages(id, &redirected);
      return hs;
    }
  } else if (!s.ok()) {
    return s;
  }
  auto cleanup_redirect = [&]() {
    if (!redirected.empty()) UnlockPages(id, &redirected);
  };
  auto cancel_hook = [&]() {
    CancelBaseUpdate(txn, BaseUpdateOp::kDelete, separator, leaf_pid);
  };

  // Lock side-pointer neighbors (skip when side pointers are off).
  bool lock_prev = options_.side_pointers != SidePointerMode::kNone &&
                   prev_pid != kInvalidPageId;
  bool lock_next = options_.side_pointers != SidePointerMode::kNone &&
                   next_pid != kInvalidPageId;
  if (lock_prev) {
    s = locks_->Lock(id, PageLock(prev_pid), LockMode::kX);
    if (!s.ok()) {
      cancel_hook();
      cleanup_redirect();
      return s;
    }
  }
  if (lock_next) {
    s = locks_->Lock(id, PageLock(next_pid), LockMode::kX);
    if (!s.ok()) {
      if (lock_prev) locks_->Unlock(id, PageLock(prev_pid));
      cancel_hook();
      cleanup_redirect();
      return s;
    }
  }

  // Point of no return: log, then apply. The unlink records and their page
  // effects (including the cascade) ride in one apply scope so a concurrent
  // checkpoint's redo floor cannot split them.
  BufferPool::ApplyScope apply_scope(bp_);
  LogRecord rec;
  rec.type = LogType::kNodeFree;
  rec.txn_id = txn->id();
  rec.page_id = leaf_pid;
  rec.page_id2 = prev_pid;
  rec.page_id3 = sep_parent;
  rec.key = separator;
  rec.value = EncodePid(next_pid);
  log_->Append(&rec);

  s = bp_->FetchPage(sep_parent, &parent_page);
  if (s.ok()) {
    std::unique_lock<PageLatch> latch(parent_page->latch());
    InternalNode parent(parent_page);
    int pslot = parent.FindChildSlot(leaf_pid);
    if (pslot >= 0) parent.RemoveAt(pslot);
    parent_page->set_page_lsn(rec.lsn);
    bp_->UnpinPage(sep_parent, true);
  }
  if (lock_prev) {
    Page* p;
    if (bp_->FetchPage(prev_pid, &p).ok()) {
      std::unique_lock<PageLatch> latch(p->latch());
      p->SetNext(next_pid);
      p->set_page_lsn(rec.lsn);
      bp_->UnpinPage(prev_pid, true);
    }
    locks_->Unlock(id, PageLock(prev_pid));
  }
  if (lock_next) {
    Page* p;
    if (bp_->FetchPage(next_pid, &p).ok()) {
      std::unique_lock<PageLatch> latch(p->latch());
      p->SetPrev(prev_pid);
      p->set_page_lsn(rec.lsn);
      bp_->UnpinPage(next_pid, true);
    }
    locks_->Unlock(id, PageLock(next_pid));
  }
  bp_->DeletePage(leaf_pid);

  // Cascade: free internal nodes that have become empty (never the root).
  for (size_t i = path.size() - 2; i > 0 && sep_parent == path[i]; --i) {
    Page* node_page;
    if (!bp_->FetchPage(path[i], &node_page).ok()) break;
    int cnt;
    {
      std::shared_lock<PageLatch> latch(node_page->latch());
      InternalNode node(node_page);
      cnt = node.Count();
    }
    bp_->UnpinPage(path[i], false);
    if (cnt > 0) break;

    PageId gp = path[i - 1];
    Page* gp_page;
    if (!bp_->FetchPage(gp, &gp_page).ok()) break;
    std::string gsep;
    int gslot;
    {
      std::shared_lock<PageLatch> latch(gp_page->latch());
      InternalNode gnode(gp_page);
      gslot = gnode.FindChildSlot(path[i]);
      if (gslot >= 0) gsep = gnode.KeyAt(gslot).ToString();
    }
    bp_->UnpinPage(gp, false);
    if (gslot < 0) break;

    LogRecord frec;
    frec.type = LogType::kNodeFree;
    frec.txn_id = txn->id();
    frec.page_id = path[i];
    frec.page_id3 = gp;
    frec.key = gsep;
    frec.value = EncodePid(kInvalidPageId);
    frec.page_id2 = kInvalidPageId;
    log_->Append(&frec);

    if (bp_->FetchPage(gp, &gp_page).ok()) {
      std::unique_lock<PageLatch> latch(gp_page->latch());
      InternalNode gnode(gp_page);
      int s2 = gnode.FindChildSlot(path[i]);
      if (s2 >= 0) gnode.RemoveAt(s2);
      gp_page->set_page_lsn(frec.lsn);
      bp_->UnpinPage(gp, true);
    }
    bp_->DeletePage(path[i]);
    sep_parent = gp;
  }

  cleanup_redirect();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

bool BTree::TryGetOptimistic(const Slice& key, std::string* value,
                             bool* found) {
  OptimisticPageGuard images[2];
  Descent d{.access = Access::kOptimistic, .images = images, .range = false};
  for (int attempt = 0; attempt < kOptimisticRestarts; ++attempt) {
    if (!Descend(kInvalidTxnId, key, &d).ok()) continue;
    LeafNode ln(d.image);
    bool exact;
    int pos = ln.LowerBound(key, &exact);
    if (exact) *value = ln.ValueAt(pos).ToString();
    *found = exact;
    opt_gets_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  opt_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Status BTree::Get(Transaction* txn, const Slice& key, std::string* value) {
  bool ephemeral = (txn == nullptr);
  if (ephemeral && options_.optimistic_reads) {
    // Latch-free fast path for non-transactional reads. Transactional Gets
    // keep the locked path: their page S locks are retained to commit for
    // repeatable reads, which an unlocked image cannot provide.
    bool found = false;
    if (TryGetOptimistic(key, value, &found)) {
      return found ? Status::OK() : Status::NotFound("key not found");
    }
  }
  TxnId id = ephemeral ? NewEphemeralId() : txn->id();

  uint64_t inc = incarnation_.load();
  Status s = locks_->Lock(id, TreeLock(inc), LockMode::kIS);
  if (!s.ok()) return s;
  if (inc != incarnation_.load()) {
    // The switch completed between the read and the lock: retarget.
    locks_->Unlock(id, TreeLock(inc));
    inc = incarnation_.load();
    s = locks_->Lock(id, TreeLock(inc), LockMode::kIS);
    if (!s.ok()) return s;
  }
  auto cleanup_tree = [&]() {
    if (ephemeral) locks_->Unlock(id, TreeLock(inc));
  };

  Descent d;
  s = Descend(id, key, &d);
  if (!s.ok()) {
    cleanup_tree();
    return s;
  }
  Page* leaf_page;
  s = bp_->FetchPage(d.pid, &leaf_page);
  if (!s.ok()) {
    locks_->Unlock(id, PageLock(d.pid));
    cleanup_tree();
    return s;
  }
  bool exact;
  {
    std::shared_lock<PageLatch> latch(leaf_page->latch());
    LeafNode ln(leaf_page);
    int pos = ln.LowerBound(key, &exact);
    if (exact) *value = ln.ValueAt(pos).ToString();
  }
  bp_->UnpinPage(d.pid, false);
  if (ephemeral) {
    locks_->Unlock(id, PageLock(d.pid));
    cleanup_tree();
  }
  return exact ? Status::OK() : Status::NotFound("key not found");
}

Status BTree::Scan(Transaction* txn, const Slice& lo, const Slice& hi,
                   const std::function<bool(const Slice&, const Slice&)>& cb) {
  BTreeIterator it(this, txn);
  Status s = it.Seek(lo);
  if (!s.ok()) return s;
  while (it.Valid()) {
    if (!hi.empty() && it.key().compare(hi) > 0) break;
    if (!cb(it.key(), it.value())) break;
    s = it.Next();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reorganizer integration
// ---------------------------------------------------------------------------

Status BTree::SwitchRoot(PageId new_root, uint8_t new_height,
                         uint64_t new_incarnation) {
  // Apply scope: the switch record and the in-memory root flip must land on
  // the same side of a concurrent checkpoint's redo floor (the image
  // serializes the root it sees; a record below the floor is never
  // replayed).
  BufferPool::ApplyScope apply_scope(bp_);
  LogRecord rec;
  rec.type = LogType::kTreeSwitch;
  rec.page_id = new_root;
  rec.page_id2 = root_.load();
  rec.flags = new_height;
  std::string inc;
  PutFixed64(&inc, new_incarnation);
  rec.value = inc;
  Status s = log_->AppendAndFlush(&rec);
  if (!s.ok()) return s;
  root_.store(new_root);
  height_.store(new_height);
  incarnation_.store(new_incarnation);
  return Status::OK();
}

Status BTree::CollectInternalPages(PageId from_root,
                                   std::vector<PageId>* pages) {
  pages->clear();
  std::vector<PageId> stack{from_root};
  while (!stack.empty()) {
    PageId cur = stack.back();
    stack.pop_back();
    Page* page;
    Status s = bp_->FetchPage(cur, &page);
    if (!s.ok()) return s;
    if (page->type() != PageType::kInternal) {
      bp_->UnpinPage(cur, false);
      continue;
    }
    pages->push_back(cur);
    if (page->level() > 1) {
      InternalNode node(page);
      for (int i = 0; i < node.Count(); ++i) stack.push_back(node.ChildAt(i));
    }
    bp_->UnpinPage(cur, false);
  }
  return Status::OK();
}

Status BTree::CollectBasePages(std::vector<PageId>* bases) {
  bases->clear();
  TxnId id = NewEphemeralId();
  std::string from;  // -infinity: §7.1 "follow the leftmost pointers"
  while (true) {
    Descent d{.access = Access::kShared, .stop_level = 1};
    Status s = Descend(id, from, &d);
    if (!s.ok()) return s;
    locks_->Unlock(id, PageLock(d.pid));
    // A page whose right neighbour was freed meanwhile covers its old upper
    // bound too: list it once.
    if (bases->empty() || bases->back() != d.pid) bases->push_back(d.pid);
    if (d.hi.empty()) return Status::OK();
    from = std::move(d.hi);
  }
}

Status BTree::CollectLeaves(std::vector<PageId>* leaves) {
  leaves->clear();
  std::vector<PageId> bases;
  Status s = CollectBasePages(&bases);
  if (!s.ok()) return s;
  for (PageId b : bases) {
    Page* page;
    s = bp_->FetchPage(b, &page);
    if (!s.ok()) return s;
    InternalNode node(page);
    for (int i = 0; i < node.Count(); ++i) leaves->push_back(node.ChildAt(i));
    bp_->UnpinPage(b, false);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Status BTree::ComputeStats(BTreeStats* stats) {
  *stats = BTreeStats{};
  stats->height = height_.load();

  std::vector<PageId> internals;
  Status s = CollectInternalPages(root_.load(), &internals);
  if (!s.ok()) return s;
  stats->internal_pages = internals.size();
  double ifill = 0;
  for (PageId pid : internals) {
    Page* page;
    s = bp_->FetchPage(pid, &page);
    if (!s.ok()) return s;
    InternalNode node(page);
    ifill += node.FillFactor();
    if (page->level() == 1) ++stats->base_pages;
    bp_->UnpinPage(pid, false);
  }
  if (!internals.empty()) {
    stats->avg_internal_fill = ifill / static_cast<double>(internals.size());
  }

  std::vector<PageId> leaves;
  s = CollectLeaves(&leaves);
  if (!s.ok()) return s;
  stats->leaf_pages = leaves.size();
  double lfill = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    Page* page;
    s = bp_->FetchPage(leaves[i], &page);
    if (!s.ok()) return s;
    LeafNode ln(page);
    stats->records += ln.Count();
    lfill += ln.FillFactor();
    bp_->UnpinPage(leaves[i], false);
    if (i > 0 && leaves[i] == leaves[i - 1] + 1) {
      ++stats->leaves_in_disk_order;
    }
  }
  if (!leaves.empty()) {
    stats->avg_leaf_fill = lfill / static_cast<double>(leaves.size());
  }
  return Status::OK();
}

Status BTree::CheckConsistency() {
  return CheckSubtree(root_.load(), Slice(), Slice(),
                      static_cast<uint8_t>(height_.load() - 1), true);
}

Status BTree::CheckSubtree(PageId pid, const Slice& lo, const Slice& hi,
                           uint8_t expect_level, bool is_root) {
  Page* page;
  Status s = bp_->FetchPage(pid, &page);
  if (!s.ok()) return s;
  PageGuard guard(bp_, page);

  if (page->header_page_id() != pid) {
    return Status::Corruption("page id mismatch");
  }
  if (page->level() != expect_level) {
    return Status::Corruption("level mismatch");
  }
  if (expect_level == 0) {
    LeafNode ln(page);
    for (int i = 0; i < ln.Count(); ++i) {
      Slice k = ln.KeyAt(i);
      if (i > 0 && ln.KeyAt(i - 1).compare(k) >= 0) {
        return Status::Corruption("leaf keys out of order in page " +
                                  std::to_string(pid));
      }
      if (k.compare(lo) < 0) {
        return Status::Corruption(
            "leaf key below lo in page " + std::to_string(pid) + " key=" +
            std::to_string(DecodeU64Key(k)) + " lo=" +
            std::to_string(DecodeU64Key(lo)));
      }
      if (!hi.empty() && k.compare(hi) >= 0) {
        return Status::Corruption(
            "leaf key above hi in page " + std::to_string(pid) + " key=" +
            std::to_string(DecodeU64Key(k)) + " hi=" +
            std::to_string(DecodeU64Key(hi)));
      }
    }
    return Status::OK();
  }

  InternalNode node(page);
  if (node.Count() < 1) {
    return Status::Corruption("empty internal node");
  }
  for (int i = 0; i < node.Count(); ++i) {
    Slice k = node.KeyAt(i);
    if (i > 0 && node.KeyAt(i - 1).compare(k) >= 0) {
      return Status::Corruption("separators out of order");
    }
    if (!(is_root && i == 0)) {
      if (k.compare(lo) < 0) return Status::Corruption("separator below lo");
      if (!hi.empty() && k.compare(hi) >= 0) {
        return Status::Corruption("separator above hi");
      }
    }
  }
  for (int i = 0; i < node.Count(); ++i) {
    // Slot 0's separator is advisory: FindChild clamps keys below it into
    // child 0, so child 0's effective lower bound is this node's own `lo`
    // (separators can only rise during reorganization MODIFYs).
    std::string child_lo =
        (i == 0) ? lo.ToString() : node.KeyAt(i).ToString();
    std::string child_hi =
        (i + 1 < node.Count()) ? node.KeyAt(i + 1).ToString() : hi.ToString();
    s = CheckSubtree(node.ChildAt(i), child_lo, child_hi,
                     static_cast<uint8_t>(expect_level - 1), false);
    if (!s.ok()) return s;
  }
  return Status::OK();
}


// ---------------------------------------------------------------------------
// Base-level application (pass-3 catch-up) and logical undo
// ---------------------------------------------------------------------------

Status BTree::BaseApply(Transaction* txn, BaseUpdateOp op, const Slice& key,
                        PageId leaf, bool* already_applied) {
  TxnId id = txn->id();
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    Descent d{.access = Access::kExclusive,
              .stop_level = 1,
              .insert_bytes = op == BaseUpdateOp::kInsert
                                  ? InternalNode::CellSize(key) + 16
                                  : 0};
    Status s = Descend(id, key, &d);
    if (s.IsDeadlock() || s.IsBusy()) continue;  // reorganizer lost; retry
    if (!s.ok()) return s;
    std::vector<PageId>& path = d.path;
    PageId base = d.pid;

    if (op == BaseUpdateOp::kInsert) {
      // Duplicate tolerance: under the base page's X lock, an exact
      // separator match means the entry was already applied (a step-aside
      // re-drain, or the updater's own direct application). Verify and
      // return instead of letting the node-level insert fail.
      Page* base_page;
      s = bp_->FetchPage(base, &base_page);
      if (!s.ok()) {
        UnlockPages(id, &path);
        return s;
      }
      bool present;
      {
        std::shared_lock<PageLatch> latch(base_page->latch());
        InternalNode node(base_page);
        node.LowerBound(key, &present);
        // A slot-0 leaf that already covers `key` by clamping: in effect too.
        present = present || node.ChildAt(node.FindChild(key)) == leaf;
      }
      bp_->UnpinPage(base, false);
      if (present) {
        UnlockPages(id, &path);
        if (already_applied) *already_applied = true;
        return Status::OK();
      }
      // The old tree routes keys below a base page's slot-0 separator to
      // that slot by clamping, and lowers the separator when one arrives.
      // Replayed here, the lowered separator can fall below a base-page
      // boundary of this tree while the leaf's other keys lie above it: move
      // the boundary down to `key`, so the leaf's whole range lands in the
      // page that follows.
      bool reaches = false;
      if (!d.hi.empty()) {
        Page* leaf_page;
        s = bp_->FetchPage(leaf, &leaf_page);
        if (!s.ok()) {
          UnlockPages(id, &path);
          return s;
        }
        {
          std::shared_lock<PageLatch> latch(leaf_page->latch());
          LeafNode ln(leaf_page);
          reaches = ln.Count() > 0 &&
                    ln.KeyAt(ln.Count() - 1).compare(d.hi) >= 0;
        }
        bp_->UnpinPage(leaf, false);
      }
      if (reaches) {
        UnlockPages(id, &path);
        s = LowerBoundary(txn, d.hi, key);
        if (s.ok() || s.IsBusy() || s.IsDeadlock()) continue;
        return s;
      }

      PageId target = base;
      std::vector<PageId> extra;
      s = EnsureSeparatorRoom(txn, path, path.size() - 1, key, &target,
                              &extra);
      if (!s.ok()) {
        UnlockPages(id, &extra);
        UnlockPages(id, &path);
        if (s.IsBusy() || s.IsDeadlock()) continue;
        return s;
      }
      s = InsertSeparatorInto(txn, target, key, leaf);
      UnlockPages(id, &extra);
      UnlockPages(id, &path);
      return s;
    }

    // Removal.
    Page* page;
    s = bp_->FetchPage(base, &page);
    if (!s.ok()) {
      UnlockPages(id, &path);
      return s;
    }
    Status rs = Status::NotFound("separator not found");
    {
      BufferPool::ApplyScope apply_scope(bp_);
      {
        std::unique_lock<PageLatch> latch(page->latch());
        InternalNode node(page);
        bool exact;
        int pos = node.LowerBound(key, &exact);
        if (exact) {
          node.RemoveAt(pos);
          LogRecord rec;
          rec.type = LogType::kDelete;
          rec.flags = kInternalCell;
          rec.txn_id = txn->id();
          rec.page_id = base;
          rec.key = key.ToString();
          log_->Append(&rec);
          page->set_page_lsn(rec.lsn);
          rs = Status::OK();
        }
      }
      bp_->UnpinPage(base, rs.ok());
    }
    UnlockPages(id, &path);
    return rs;
  }
  return Status::Busy("base apply retries exhausted");
}

Status BTree::LowerBoundary(Transaction* txn, const Slice& from,
                            const Slice& to) {
  TxnId id = txn->id();
  // The separator lives in the lowest internal node above the base level
  // whose path toward `from` does not run through its slot 0.
  for (uint8_t level = 2; level < height_.load(); ++level) {
    Descent d{.access = Access::kExclusive, .stop_level = level};
    Status s = Descend(id, from, &d);
    if (!s.ok()) return s;
    Page* page;
    s = bp_->FetchPage(d.pid, &page);
    if (!s.ok()) {
      UnlockPages(id, &d.path);
      return s;
    }
    bool exact = false;
    {
      BufferPool::ApplyScope apply_scope(bp_);
      std::unique_lock<PageLatch> latch(page->latch());
      InternalNode node(page);
      int pos = node.LowerBound(from, &exact);
      exact = exact && (pos == 0 || node.KeyAt(pos - 1).compare(to) < 0);
      if (exact) {
        PageId child = node.ChildAt(pos);
        node.RemoveAt(pos);
        node.Insert(to, child);
        LogRecord del;
        del.type = LogType::kDelete;
        del.flags = kInternalCell;
        del.txn_id = id;
        del.page_id = d.pid;
        del.key = from.ToString();
        log_->Append(&del);
        LogRecord ins;
        ins.type = LogType::kInsert;
        ins.flags = kInternalCell;
        ins.txn_id = id;
        ins.page_id = d.pid;
        ins.key = to.ToString();
        ins.value = EncodePid(child);
        log_->Append(&ins);
        page->set_page_lsn(ins.lsn);
      }
    }
    bp_->UnpinPage(d.pid, exact);
    UnlockPages(id, &d.path);
    if (exact) return Status::OK();
  }
  return Status::Corruption("base-page boundary not found above the base");
}

Status BTree::UndoRecordOp(Transaction* txn, const LogRecord& original) {
  TxnId id = txn->id();
  const Slice key(original.key);
  if (original.type != LogType::kInsert) {
    // The undo may re-insert `key`; keep separators exact first.
    Status s = LowerSeparatorIfNeeded(txn, key);
    if (!s.ok()) return s;
  }
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    // Undo-insert removes; undo-delete re-inserts; undo-update restores.
    bool is_undo_of_insert = original.type == LogType::kInsert;

    Descent d{.access = Access::kExclusive,
              .insert_bytes = is_undo_of_insert
                                  ? 0
                                  : LeafNode::CellSize(key, original.value)};
    Status s = Descend(id, key, &d);
    if (!s.ok()) return s;
    std::vector<PageId>& path = d.path;
    PageId leaf_pid = d.pid;

    Page* leaf_page;
    s = bp_->FetchPage(leaf_pid, &leaf_page);
    if (!s.ok()) {
      UnlockPages(id, &path);
      return s;
    }
    bool need_split = false;
    Status rs;
    // Scoped so the apply scope ends before the (blocking) split retry.
    std::optional<BufferPool::ApplyScope> apply_scope;
    apply_scope.emplace(bp_);
    {
      std::unique_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      bool exact;
      int pos = ln.LowerBound(key, &exact);
      LogRecord clr;
      clr.type = LogType::kClr;
      clr.txn_id = txn->id();
      clr.prev_lsn = txn->last_lsn();
      clr.lsn2 = original.prev_lsn;  // undo-next
      clr.page_id = leaf_pid;
      clr.key = original.key;
      if (original.type == LogType::kInsert) {
        if (exact) ln.RemoveAt(pos);
        rs = Status::OK();
      } else if (original.type == LogType::kDelete) {
        if (!exact) {
          if (ln.FreeSpace() < LeafNode::CellSize(key, original.value)) {
            need_split = true;
          } else {
            rs = ln.Insert(key, original.value);
            clr.flags = kClrInsert;
            clr.value = original.value;
          }
        } else {
          rs = Status::OK();  // already present (idempotent)
        }
      } else {  // kUpdate: restore old value
        if (exact) {
          rs = ln.SetValueAt(pos, original.value);
          clr.flags = kClrInsert;
          clr.value = original.value;
        } else {
          rs = ln.Insert(key, original.value);
          clr.flags = kClrInsert;
          clr.value = original.value;
        }
      }
      if (!need_split && rs.ok()) {
        log_->Append(&clr);
        txn->set_last_lsn(clr.lsn);
        leaf_page->set_page_lsn(clr.lsn);
      }
    }
    bp_->UnpinPage(leaf_pid, rs.ok() && !need_split);
    apply_scope.reset();
    if (need_split) {
      s = SplitLeaf(txn, path, key);
      UnlockPages(id, &path);
      if (!s.ok() && !s.IsBusy() && !s.IsBackoff() && !s.IsDeadlock()) {
        return s;
      }
      continue;  // retry: the key's leaf now has room
    }
    UnlockPages(id, &path);
    return rs;
  }
  return Status::Busy("undo retries exhausted");
}

// ---------------------------------------------------------------------------
// Redo
// ---------------------------------------------------------------------------

namespace {

// Fetch + LSN-guard + apply + stamp, in one helper.
Status RedoOnPage(BufferPool* bp, PageId pid, Lsn lsn,
                  const std::function<void(Page*)>& apply) {
  if (pid == kInvalidPageId) return Status::OK();
  Page* page;
  Status s = bp->FetchPage(pid, &page);
  if (!s.ok()) return s;
  bool applied = false;
  if (page->page_lsn() < lsn) {
    apply(page);
    page->set_page_lsn(lsn);
    applied = true;
  }
  bp->UnpinPage(pid, applied);
  return Status::OK();
}

}  // namespace

Status BTree::RedoApply(BufferPool* bp, const LogRecord& rec) {
  switch (rec.type) {
    case LogType::kInsert:
      return RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        if (rec.flags & kInternalCell) {
          InternalNode node(p);
          node.Insert(rec.key, DecodePid(rec.value));
        } else {
          LeafNode ln(p);
          ln.Insert(rec.key, rec.value);
        }
      });
    case LogType::kDelete:
      return RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        if (rec.flags & kInternalCell) {
          InternalNode node(p);
          bool exact;
          int pos = node.LowerBound(rec.key, &exact);
          if (exact) node.RemoveAt(pos);
        } else {
          LeafNode ln(p);
          bool exact;
          int pos = ln.LowerBound(rec.key, &exact);
          if (exact) ln.RemoveAt(pos);
        }
      });
    case LogType::kUpdate:
      return RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        LeafNode ln(p);
        bool exact;
        int pos = ln.LowerBound(rec.key, &exact);
        if (exact) ln.SetValueAt(pos, rec.value2);
      });
    case LogType::kClr:
      return RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        LeafNode ln(p);
        bool exact;
        int pos = ln.LowerBound(rec.key, &exact);
        if (rec.flags & kClrInsert) {
          if (!exact) ln.Insert(rec.key, rec.value);
        } else {
          if (exact) ln.RemoveAt(pos);
        }
      });
    case LogType::kFormatPage:
      return RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        if (static_cast<PageType>(rec.unit_type) == PageType::kLeaf) {
          LeafNode::Format(p, rec.page_id);
        } else {
          InternalNode::Format(p, rec.page_id, rec.flags, rec.key);
        }
      });
    case LogType::kLinkPage:
      return RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        p->SetPrev(rec.page_id2);
        p->SetNext(rec.page_id3);
      });
    case LogType::kLeafSplit: {
      PageId old_next = DecodePid(rec.value);
      auto mode = static_cast<SidePointerMode>(rec.flags);
      Status s = RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        LeafNode ln(p);
        bool exact;
        int pos = ln.LowerBound(rec.key, &exact);
        while (ln.Count() > pos) ln.RemoveAt(ln.Count() - 1);
        if (mode != SidePointerMode::kNone) p->SetNext(rec.page_id2);
      });
      if (!s.ok()) return s;
      s = RedoOnPage(bp, rec.page_id2, rec.lsn, [&](Page* p) {
        LeafNode::Format(p, rec.page_id2);
        SlottedPage sp(p);
        std::vector<std::string> cells;
        UnpackCells(rec.payload, &cells);
        for (size_t i = 0; i < cells.size(); ++i) {
          sp.InsertCell(static_cast<int>(i), cells[i]);
        }
        if (mode != SidePointerMode::kNone) {
          p->SetNext(old_next);
          if (mode == SidePointerMode::kTwoWay) p->SetPrev(rec.page_id);
        }
      });
      if (!s.ok()) return s;
      if (mode == SidePointerMode::kTwoWay && old_next != kInvalidPageId) {
        s = RedoOnPage(bp, old_next, rec.lsn,
                       [&](Page* p) { p->SetPrev(rec.page_id2); });
        if (!s.ok()) return s;
      }
      // The separator insert into the parent is its own kInsert record.
      return Status::OK();
    }
    case LogType::kInternalSplit: {
      Status s = RedoOnPage(bp, rec.page_id, rec.lsn, [&](Page* p) {
        InternalNode node(p);
        bool exact;
        int pos = node.LowerBound(rec.key, &exact);
        while (node.Count() > pos) node.RemoveAt(node.Count() - 1);
      });
      if (!s.ok()) return s;
      s = RedoOnPage(bp, rec.page_id2, rec.lsn, [&](Page* p) {
        InternalNode::Format(p, rec.page_id2, rec.flags, rec.key);
        SlottedPage sp(p);
        std::vector<std::string> cells;
        UnpackCells(rec.payload, &cells);
        for (size_t i = 0; i < cells.size(); ++i) {
          sp.InsertCell(static_cast<int>(i), cells[i]);
        }
      });
      if (!s.ok()) return s;
      if (rec.page_id3 == kInvalidPageId) {
        PageId new_root = DecodePid(rec.value2);
        s = RedoOnPage(bp, new_root, rec.lsn, [&](Page* p) {
          InternalNode::Format(p, new_root,
                               static_cast<uint8_t>(rec.flags + 1), Slice());
          InternalNode r(p);
          r.Insert(Slice(), rec.page_id);
          r.Insert(rec.key, rec.page_id2);
        });
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
    case LogType::kNodeFree: {
      PageId next_pid = DecodePid(rec.value);
      Status s = RedoOnPage(bp, rec.page_id3, rec.lsn, [&](Page* p) {
        InternalNode node(p);
        int slot = node.FindChildSlot(rec.page_id);
        if (slot >= 0) node.RemoveAt(slot);
      });
      if (!s.ok()) return s;
      if (rec.page_id2 != kInvalidPageId) {
        s = RedoOnPage(bp, rec.page_id2, rec.lsn,
                       [&](Page* p) { p->SetNext(next_pid); });
        if (!s.ok()) return s;
      }
      if (next_pid != kInvalidPageId) {
        s = RedoOnPage(bp, next_pid, rec.lsn,
                       [&](Page* p) { p->SetPrev(rec.page_id2); });
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
    default:
      return Status::OK();  // handled elsewhere (recovery manager)
  }
}

}  // namespace soreorg
