#include "src/reorg/leaf_compactor.h"

#include <algorithm>
#include <cassert>

#include "src/util/coding.h"

namespace soreorg {

namespace {

std::string EncodePid(PageId pid) {
  std::string s;
  PutFixed32(&s, pid);
  return s;
}

std::string Successor(const Slice& k) {
  std::string s = k.ToString();
  s.push_back('\0');
  return s;
}

/// Last (largest) key currently on a leaf page, or empty if none.
std::string LastKeyOf(Page* page) {
  LeafNode ln(page);
  int n = ln.Count();
  return n == 0 ? std::string() : ln.KeyAt(n - 1).ToString();
}

}  // namespace

LeafCompactor::LeafCompactor(ReorgContext* ctx, LeafCompactorOptions options)
    : ctx_(ctx), options_(options), ffs_(ctx->disk, options.free_space_policy) {}

Status LeafCompactor::Run() {
  ctx_->table->set_leaf_pass_active(true);
  std::string cursor = ctx_->table->largest_finished_key();
  Status s = ctx_->locks->Lock(kReorgTxnId, TreeLock(ctx_->tree->incarnation()),
                               LockMode::kIX);
  if (!s.ok()) return s;

  while (true) {
    PageId base_pid;
    std::vector<PageId> sources;
    PageId dest;
    s = PlanNextUnit(&cursor, &base_pid, &sources, &dest);
    if (s.IsNotFound()) break;         // pass complete
    if (s.IsNotSupported()) continue;  // nothing at this position; advanced
    if (!s.ok()) {
      ctx_->locks->Unlock(kReorgTxnId, TreeLock(ctx_->tree->incarnation()));
      ctx_->table->set_leaf_pass_active(false);
      return s;
    }
    uint32_t unit = ctx_->next_unit.fetch_add(1);
    if (options_.unit_wrapper) {
      s = options_.unit_wrapper([&]() {
        return ExecuteUnit(unit, base_pid, sources, dest, /*resume=*/false);
      });
    } else {
      s = ExecuteUnit(unit, base_pid, sources, dest, /*resume=*/false);
    }
    if (s.IsBusy() || s.IsDeadlock()) continue;  // replan from the cursor
    if (!s.ok()) {
      ctx_->locks->Unlock(kReorgTxnId, TreeLock(ctx_->tree->incarnation()));
      ctx_->table->set_leaf_pass_active(false);
      return s;
    }
    cursor = ctx_->table->largest_finished_key();
    if (dest != sources[0] || dest > last_finished_ ||
        last_finished_ == kInvalidPageId) {
      last_finished_ = dest;
    }
  }
  ctx_->locks->Unlock(kReorgTxnId, TreeLock(ctx_->tree->incarnation()));
  ctx_->table->set_leaf_pass_active(false);
  return Status::OK();
}

Status LeafCompactor::PlanNextUnit(std::string* cursor, PageId* base_pid,
                                   std::vector<PageId>* sources,
                                   PageId* dest) {
  std::string probe = Successor(*cursor);
  BTree::Descent d{.access = BTree::Access::kShared, .stop_level = 1};
  Status s = ctx_->tree->Descend(kReorgTxnId, probe, &d);
  if (!s.ok()) return s;
  *base_pid = d.pid;
  Page* base_page;
  s = ctx_->bp->FetchPage(d.pid, &base_page);
  if (!s.ok()) {
    ctx_->locks->Unlock(kReorgTxnId, PageLock(d.pid));
    return s;
  }
  PageGuard base_guard(ctx_->bp, base_page);
  auto unlock_base = [&]() {
    base_guard.Release();
    ctx_->locks->Unlock(kReorgTxnId, PageLock(d.pid));
  };

  InternalNode base(base_guard.get());
  int count = base.Count();
  int slot = base.FindChild(probe);

  sources->clear();
  size_t group_used = 0;
  size_t capacity = 0;
  std::string advance_key = *cursor;
  std::string last_sep;
  int scanned = slot;

  bool group_complete = false;
  for (; scanned < count && !group_complete; ++scanned) {
    PageId leaf_pid = base.ChildAt(scanned);
    last_sep = base.KeyAt(scanned).ToString();
    Page* leaf_page;
    s = ctx_->bp->FetchPage(leaf_pid, &leaf_page);
    if (!s.ok()) {
      unlock_base();
      return s;
    }
    size_t used;
    std::string last_key;
    {
      std::shared_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      used = ln.UsedSpace();
      capacity = ln.Capacity();
      last_key = LastKeyOf(leaf_page);
    }
    ctx_->bp->UnpinPage(leaf_pid, false);

    double limit = options_.target_fill * static_cast<double>(capacity);
    if (!sources->empty() &&
        (static_cast<double>(group_used + used) > limit ||
         sources->size() >= options_.max_group)) {
      if (sources->size() >= 2) {
        group_complete = true;  // execute this group
        break;
      }
      // A singleton "group" cannot be compacted with anything: skip past it
      // and start a fresh group at the current leaf.
      sources->clear();
      group_used = 0;
    }
    if (sources->empty() && static_cast<double>(used) > limit) {
      // Already full enough: nothing to gain; skip past it.
      advance_key = std::max(
          advance_key, last_key.empty() ? last_sep : last_key);
      continue;
    }
    sources->push_back(leaf_pid);
    group_used += used;
    advance_key =
        std::max(advance_key, last_key.empty() ? last_sep : last_key);
  }

  if (sources->size() >= 2) {
    unlock_base();
    PageId empty = ffs_.Find(last_finished_, (*sources)[0]);
    *dest = (empty != kInvalidPageId) ? empty : (*sources)[0];
    return Status::OK();
  }

  // Nothing compactable on the rest of this base page: hop to the next
  // base page, the one covering this page's upper bound, or finish.
  unlock_base();
  if (d.hi.empty()) {
    if (*cursor == advance_key) return Status::NotFound("pass complete");
    *cursor = advance_key;
    return Status::NotSupported("tail; advanced");
  }
  // Position the cursor at the upper bound. The probe (cursor successor)
  // then lands on the next page's first leaf; no records are skipped
  // because planning always takes whole leaves.
  *cursor = std::move(d.hi);
  return Status::NotSupported("advanced to next base page");
}

Status LeafCompactor::ExecuteUnit(uint32_t unit, PageId base_pid,
                                  const std::vector<PageId>& sources,
                                  PageId dest, bool resume) {
  for (int attempt = 0; attempt < kMaxUnitRetries; ++attempt) {
    Status s = ExecuteUnitOnce(unit, base_pid, sources, dest, resume);
    if (s.IsDeadlock()) {
      ++ctx_->stats->unit_retries;
      continue;
    }
    return s;
  }
  return Status::Deadlock("unit retries exhausted");
}

Status LeafCompactor::ExecuteUnitOnce(uint32_t unit, PageId base_pid,
                                      const std::vector<PageId>& sources,
                                      PageId dest, bool resume) {
  const TxnId id = kReorgTxnId;
  LockManager* locks = ctx_->locks;
  BufferPool* bp = ctx_->bp;
  const bool in_place = (dest == sources[0]);

  std::vector<LockName> held;
  auto lock = [&](const LockName& name, LockMode mode) -> Status {
    Status s = locks->Lock(id, name, mode);
    if (s.ok()) held.push_back(name);
    return s;
  };
  auto release_all = [&]() {
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      locks->Unlock(id, *it);
    }
    held.clear();
  };

  // --- 1. R lock the base page, verify the plan is still valid ------------
  Status s = lock(PageLock(base_pid), LockMode::kR);
  if (!s.ok()) {
    release_all();
    return s;
  }
  Page* base_page;
  s = bp->FetchPage(base_pid, &base_page);
  if (!s.ok()) {
    release_all();
    return s;
  }
  {
    std::shared_lock<PageLatch> latch(base_page->latch());
    if (base_page->type() != PageType::kInternal || base_page->level() != 1) {
      bp->UnpinPage(base_pid, false);
      release_all();
      return Status::Busy("base page changed");
    }
    InternalNode base(base_page);
    for (PageId src : sources) {
      if (base.FindChildSlot(src) < 0 && !resume) {
        bp->UnpinPage(base_pid, false);
        release_all();
        return Status::Busy("source no longer under base page");
      }
    }
  }
  bp->UnpinPage(base_pid, false);

  // --- 2. RX lock the unit's leaves (and X the new destination) -----------
  for (PageId src : sources) {
    s = lock(PageLock(src), LockMode::kRX);
    if (!s.ok()) {
      release_all();
      return s;
    }
  }
  if (!in_place) {
    s = lock(PageLock(dest), LockMode::kX);
    if (!s.ok()) {
      release_all();
      return s;
    }
  }

  // Side-pointer neighbors (§4.3): prev of the first source, next of the
  // last source — RX when under the same base page, X otherwise.
  PageId prev_nb = kInvalidPageId, next_nb = kInvalidPageId;
  if (ctx_->tree->options().side_pointers != SidePointerMode::kNone) {
    Page* first_page;
    s = bp->FetchPage(sources.front(), &first_page);
    if (!s.ok()) {
      release_all();
      return s;
    }
    prev_nb = first_page->prev();
    bp->UnpinPage(sources.front(), false);
    Page* last_page;
    s = bp->FetchPage(sources.back(), &last_page);
    if (!s.ok()) {
      release_all();
      return s;
    }
    next_nb = last_page->next();
    bp->UnpinPage(sources.back(), false);

    for (PageId nb : {prev_nb, next_nb}) {
      if (nb == kInvalidPageId) continue;
      if (std::find(sources.begin(), sources.end(), nb) != sources.end()) {
        continue;  // internal to the unit
      }
      bool same_base;
      s = bp->FetchPage(base_pid, &base_page);
      if (!s.ok()) {
        release_all();
        return s;
      }
      {
        std::shared_lock<PageLatch> latch(base_page->latch());
        InternalNode base(base_page);
        same_base = base.FindChildSlot(nb) >= 0;
      }
      bp->UnpinPage(base_pid, false);
      s = lock(PageLock(nb), same_base ? LockMode::kRX : LockMode::kX);
      if (!s.ok()) {
        release_all();
        return s;
      }
    }
  }

  // Claim a new-place destination atomically BEFORE logging BEGIN: a
  // concurrent split may have taken the planned free page (AllocatePageAt
  // fails in that case and the unit is replanned). Only a resumed unit may
  // find its destination already claimed — by itself, before the crash.
  bool dest_claimed = false;
  if (!in_place) {
    Status claim = ctx_->disk->AllocatePageAt(dest);
    if (!claim.ok() && !resume) {
      release_all();
      return Status::Busy("destination page no longer free");
    }
    dest_claimed = claim.ok();
  }

  // --- 3. BEGIN ------------------------------------------------------------
  // Each logged step below (BEGIN through END) brackets its append and the
  // matching page/table effects in a BufferPool::ApplyScope so a concurrent
  // checkpoint's redo floor cannot land between a record and its effects.
  // The scopes stay per-step — never spanning a lock-manager wait such as
  // the base X upgrade — so the checkpoint is never stalled behind lock
  // contention.
  if (!resume) {
    BufferPool::ApplyScope apply_scope(bp);
    LogRecord begin;
    begin.type = LogType::kReorgBegin;
    begin.txn_id = id;
    begin.unit = unit;
    begin.unit_type = static_cast<uint8_t>(
        in_place ? ReorgUnitType::kCompact : ReorgUnitType::kMove);
    std::vector<PageId> leaf_list;
    leaf_list.push_back(dest);
    for (PageId p : sources) leaf_list.push_back(p);
    begin.payload = EncodeBeginPages({base_pid}, leaf_list);
    ctx_->log->Append(&begin);
    ctx_->table->BeginUnit(unit, begin.lsn);
  }

  // --- 4. Prepare the destination ------------------------------------------
  if (!in_place) {
    BufferPool::ApplyScope apply_scope(bp);
    if (dest_claimed) {
      LogRecord alloc;
      alloc.type = LogType::kAllocPage;
      alloc.txn_id = id;
      alloc.unit = unit;
      alloc.prev_lsn = ctx_->table->recent_lsn();
      alloc.page_id = dest;
      ctx_->log->Append(&alloc);
      ctx_->table->RecordLsn(alloc.lsn);
    }
    Page* dest_page;
    s = bp->NewFrameForExisting(dest, &dest_page);
    if (!s.ok()) {
      release_all();
      return s;
    }
    if (dest_page->type() != PageType::kLeaf) {
      std::unique_lock<PageLatch> latch(dest_page->latch());
      LeafNode::Format(dest_page, dest);
      LogRecord fmt;
      fmt.type = LogType::kFormatPage;
      fmt.txn_id = id;
      fmt.unit = unit;
      fmt.prev_lsn = ctx_->table->recent_lsn();
      fmt.page_id = dest;
      fmt.unit_type = static_cast<uint8_t>(PageType::kLeaf);
      ctx_->log->Append(&fmt);
      ctx_->table->RecordLsn(fmt.lsn);
      dest_page->set_page_lsn(fmt.lsn);
    }
    bp->UnpinPage(dest, true);
  }

  // --- 5. Move records, one source at a time -------------------------------
  struct DoneMove {
    PageId src;
    std::vector<std::pair<std::string, std::string>> records;
  };
  std::vector<DoneMove> done_moves;
  std::string unit_high_key;

  for (PageId src : sources) {
    if (src == dest) {
      Page* p;
      s = bp->FetchPage(src, &p);
      if (!s.ok()) break;
      unit_high_key = std::max(unit_high_key, LastKeyOf(p));
      bp->UnpinPage(src, false);
      continue;
    }
    Page* src_page;
    s = bp->FetchPage(src, &src_page);
    if (!s.ok()) break;
    std::vector<std::pair<std::string, std::string>> records;
    {
      std::shared_lock<PageLatch> latch(src_page->latch());
      LeafNode ln(src_page);
      for (int i = 0; i < ln.Count(); ++i) {
        records.emplace_back(ln.KeyAt(i).ToString(), ln.ValueAt(i).ToString());
      }
    }
    bp->UnpinPage(src, false);
    if (records.empty()) continue;  // nothing left (resume)

    Page* dest_page;
    s = bp->FetchPage(dest, &dest_page);
    if (!s.ok()) break;
    // Determine how many fit (planning raced with live inserts).
    size_t take = 0;
    {
      std::shared_lock<PageLatch> latch(dest_page->latch());
      LeafNode dl(dest_page);
      size_t free = dl.FreeSpace();
      for (const auto& [k, v] : records) {
        size_t need = LeafNode::CellSize(k, v);
        if (free < need) break;
        free -= need;
        ++take;
      }
    }
    if (take == 0) {
      bp->UnpinPage(dest, false);
      unit_high_key = std::max(unit_high_key,
                               records.back().first);
      continue;
    }
    std::vector<std::pair<std::string, std::string>> moved(
        records.begin(), records.begin() + take);

    // Log the MOVE (org first, then the physical change — the paper writes
    // the org-page record first; we use one record covering both pages).
    BufferPool::ApplyScope apply_scope(bp);
    LogRecord move;
    move.type = LogType::kReorgMove;
    move.txn_id = id;
    move.unit = unit;
    move.prev_lsn = ctx_->table->recent_lsn();
    move.page_id = src;
    move.page_id2 = dest;
    if (ctx_->careful_writing) {
      std::vector<std::string> keys;
      keys.reserve(moved.size());
      for (const auto& [k, v] : moved) keys.push_back(k);
      move.payload = EncodeMovedKeys(keys);
      move.flags = kMoveKeysOnly;
    } else {
      move.payload = EncodeMovedRecords(moved);
    }
    ctx_->log->Append(&move);
    ctx_->table->RecordLsn(move.lsn);

    if (ctx_->careful_writing) {
      // The source's old disk image must survive until the destination is
      // durable (that is what lets the MOVE record carry only keys).
      // Register the dependency BEFORE touching either page: once the
      // source's post-move bytes exist, any flusher — an eviction or a
      // checkpoint's walk — may pick the source up, and without the edge
      // in place it would write the record-less image with the destination
      // still stale, making the moved records unrecoverable.
      bp->AddWriteOrder(dest, src);
    }

    {
      std::unique_lock<PageLatch> latch(dest_page->latch());
      LeafNode dl(dest_page);
      for (const auto& [k, v] : moved) {
        bool exact;
        dl.LowerBound(k, &exact);
        if (!exact) dl.Insert(k, v);
      }
      dest_page->set_page_lsn(move.lsn);
    }
    bp->UnpinPage(dest, true);

    s = bp->FetchPage(src, &src_page);
    if (!s.ok()) break;
    {
      std::unique_lock<PageLatch> latch(src_page->latch());
      LeafNode sl(src_page);
      for (size_t i = 0; i < take && sl.Count() > 0; ++i) sl.RemoveAt(0);
      src_page->set_page_lsn(move.lsn);
    }
    bp->UnpinPage(src, true);

    done_moves.push_back({src, moved});
    ctx_->stats->records_moved += moved.size();
    unit_high_key = std::max(unit_high_key, moved.back().first);
    if (take < records.size()) {
      unit_high_key = std::max(unit_high_key, records.back().first);
    }
  }
  if (!s.ok()) {
    release_all();
    return s;
  }

  // --- 6. Upgrade the base-page lock to X ----------------------------------
  s = locks->Lock(id, PageLock(base_pid), LockMode::kX);
  if (!s.ok()) {
    // §5.2 undo-at-deadlock: move everything back, then close the unit.
    BufferPool::ApplyScope apply_scope(bp);
    for (auto it = done_moves.rbegin(); it != done_moves.rend(); ++it) {
      LogRecord back;
      back.type = LogType::kReorgMove;
      back.txn_id = id;
      back.unit = unit;
      back.prev_lsn = ctx_->table->recent_lsn();
      back.page_id = dest;
      back.page_id2 = it->src;
      back.payload = EncodeMovedRecords(it->records);
      ctx_->log->Append(&back);
      ctx_->table->RecordLsn(back.lsn);
      Page* dest_page;
      if (bp->FetchPage(dest, &dest_page).ok()) {
        std::unique_lock<PageLatch> latch(dest_page->latch());
        LeafNode dl(dest_page);
        for (const auto& [k, v] : it->records) {
          bool exact;
          int pos = dl.LowerBound(k, &exact);
          if (exact) dl.RemoveAt(pos);
        }
        dest_page->set_page_lsn(back.lsn);
        bp->UnpinPage(dest, true);
      }
      Page* src_page;
      if (bp->FetchPage(it->src, &src_page).ok()) {
        std::unique_lock<PageLatch> latch(src_page->latch());
        LeafNode sl(src_page);
        for (const auto& [k, v] : it->records) {
          bool exact;
          sl.LowerBound(k, &exact);
          if (!exact) sl.Insert(k, v);
        }
        src_page->set_page_lsn(back.lsn);
        bp->UnpinPage(it->src, true);
      }
    }
    LogRecord end;
    end.type = LogType::kReorgEnd;
    end.txn_id = id;
    end.unit = unit;
    end.prev_lsn = ctx_->table->recent_lsn();
    end.key = ctx_->table->largest_finished_key();  // LK unchanged
    Status flushed = ctx_->log->AppendAndFlush(&end);
    ctx_->table->EndUnit(end.key);
    release_all();
    if (!flushed.ok()) return flushed;
    return Status::Deadlock("base-page upgrade deadlock");
  }

  // --- 7. MODIFY the base page ---------------------------------------------
  auto log_modify = [&](const Slice& org_key, PageId org_pid,
                        const Slice& new_key, PageId new_pid, Page* bpage) {
    LogRecord mod;
    mod.type = LogType::kReorgModify;
    mod.txn_id = id;
    mod.unit = unit;
    mod.prev_lsn = ctx_->table->recent_lsn();
    mod.page_id = base_pid;
    mod.key = org_key.ToString();
    mod.value = EncodePid(org_pid);
    mod.key2 = new_key.ToString();
    mod.value2 = EncodePid(new_pid);
    ctx_->log->Append(&mod);
    ctx_->table->RecordLsn(mod.lsn);
    bpage->set_page_lsn(mod.lsn);
  };

  s = bp->FetchPage(base_pid, &base_page);
  if (!s.ok()) {
    release_all();
    return s;
  }
  // Peek every touched leaf's (count, first key) BEFORE latching the base
  // page: the unit's page locks (RX on the leaves, X on the base) keep the
  // leaves byte-stable through step 7, so the values cannot go stale — and
  // keeping latch acquisition flat (never leaf-under-base) means frame
  // latches have no nesting order for concurrent reorganizers to invert.
  struct LeafPeek {
    bool fetched = false;
    int cnt = 0;
    std::string first_key;
  };
  auto peek = [&](PageId pid) {
    LeafPeek pk;
    Page* p;
    if (!bp->FetchPage(pid, &p).ok()) return pk;
    {
      std::shared_lock<PageLatch> slatch(p->latch());
      LeafNode ln(p);
      pk.cnt = ln.Count();
      if (pk.cnt > 0) pk.first_key = ln.KeyAt(0).ToString();
    }
    bp->UnpinPage(pid, false);
    pk.fetched = true;
    return pk;
  };
  std::vector<LeafPeek> src_peeks;
  src_peeks.reserve(sources.size());
  for (PageId src : sources) {
    src_peeks.push_back(src == dest ? LeafPeek{} : peek(src));
  }
  LeafPeek dest_peek = in_place ? LeafPeek{} : peek(dest);

  std::vector<PageId> now_empty;
  std::vector<PageId> live_sources;
  BufferPool::ApplyScope modify_scope(bp);
  {
    std::unique_lock<PageLatch> latch(base_page->latch());
    InternalNode base(base_page);
    for (size_t i = 0; i < sources.size(); ++i) {
      PageId src = sources[i];
      if (src == dest) {
        live_sources.push_back(src);
        continue;
      }
      const LeafPeek& pk = src_peeks[i];
      if (!pk.fetched) continue;
      int slot = base.FindChildSlot(src);
      if (pk.cnt == 0) {
        if (slot >= 0) {
          log_modify(base.KeyAt(slot), src, Slice(), kInvalidPageId,
                     base_page);
          base.RemoveAt(slot);
        }
        now_empty.push_back(src);
      } else {
        live_sources.push_back(src);
        if (slot >= 0 && base.KeyAt(slot).compare(pk.first_key) != 0) {
          std::string old_sep = base.KeyAt(slot).ToString();
          log_modify(old_sep, src, pk.first_key, src, base_page);
          base.SetKeyAt(slot, pk.first_key);
        }
      }
    }
    if (!in_place && dest_peek.fetched) {
      // Map the (new) destination into the base page under its first key.
      if (base.FindChildSlot(dest) < 0 && !dest_peek.first_key.empty()) {
        log_modify(Slice(), kInvalidPageId, dest_peek.first_key, dest,
                   base_page);
        base.Insert(dest_peek.first_key, dest);
      }
    }
  }
  bp->UnpinPage(base_pid, true);

  // --- 8. Side pointers ------------------------------------------------------
  if (ctx_->tree->options().side_pointers != SidePointerMode::kNone) {
    std::vector<PageId> chain;
    if (prev_nb != kInvalidPageId) chain.push_back(prev_nb);
    if (!in_place) chain.push_back(dest);
    for (PageId src : sources) {
      if (std::find(now_empty.begin(), now_empty.end(), src) ==
          now_empty.end()) {
        chain.push_back(src);
      }
    }
    if (next_nb != kInvalidPageId) chain.push_back(next_nb);
    for (size_t i = 0; i < chain.size(); ++i) {
      PageId p = chain[i];
      PageId np = (i + 1 < chain.size()) ? chain[i + 1] : kInvalidPageId;
      PageId pp = (i > 0) ? chain[i - 1] : kInvalidPageId;
      Page* page;
      if (!bp->FetchPage(p, &page).ok()) continue;
      PageId want_prev = (i == 0) ? page->prev() : pp;
      PageId want_next =
          (i + 1 == chain.size()) ? page->next() : np;
      if (page->prev() != want_prev || page->next() != want_next) {
        LogRecord link;
        link.type = LogType::kLinkPage;
        link.txn_id = id;
        link.unit = unit;
        link.prev_lsn = ctx_->table->recent_lsn();
        link.page_id = p;
        link.page_id2 = want_prev;
        link.page_id3 = want_next;
        ctx_->log->Append(&link);
        ctx_->table->RecordLsn(link.lsn);
        std::unique_lock<PageLatch> latch(page->latch());
        page->SetPrev(want_prev);
        page->SetNext(want_next);
        page->set_page_lsn(link.lsn);
        bp->UnpinPage(p, true);
      } else {
        bp->UnpinPage(p, false);
      }
    }
  }

  // --- 9. Deallocate drained sources (dealloc gated on dest durability) ----
  for (PageId src : now_empty) {
    LogRecord de;
    de.type = LogType::kDeallocPage;
    de.txn_id = id;
    de.unit = unit;
    de.prev_lsn = ctx_->table->recent_lsn();
    de.page_id = src;
    ctx_->log->Append(&de);
    ctx_->table->RecordLsn(de.lsn);
    if (ctx_->careful_writing) {
      bp->DeletePageDeferred(src, dest);
    } else {
      bp->DeletePage(src);
    }
    ++ctx_->stats->pages_freed;
  }

  // --- 10. END ---------------------------------------------------------------
  LogRecord end;
  end.type = LogType::kReorgEnd;
  end.txn_id = id;
  end.unit = unit;
  end.prev_lsn = ctx_->table->recent_lsn();
  end.key = std::max(unit_high_key, ctx_->table->largest_finished_key());
  Status flushed = ctx_->log->AppendAndFlush(&end);
  ctx_->table->EndUnit(end.key);

  ++ctx_->stats->units;
  if (in_place) {
    ++ctx_->stats->compact_units;
  } else {
    ++ctx_->stats->move_units;
  }
  if (resume) ++ctx_->stats->units_resumed;

  release_all();
  return flushed;
}

}  // namespace soreorg
