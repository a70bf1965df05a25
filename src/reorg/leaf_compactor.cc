#include "src/reorg/leaf_compactor.h"

#include <algorithm>

namespace soreorg {

namespace {

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
  BufferPool* bp = ctx_->bp;
  const bool in_place = (dest == sources[0]);
  UnitLocks held(ctx_->locks);

  // --- 1. R lock the base page, verify the plan is still valid ------------
  Status s = held.Lock(PageLock(base_pid), LockMode::kR);
  if (!s.ok()) return s;
  Page* base_page;
  s = bp->FetchPage(base_pid, &base_page);
  if (!s.ok()) return s;
  {
    std::shared_lock<PageLatch> latch(base_page->latch());
    if (base_page->type() != PageType::kInternal || base_page->level() != 1) {
      bp->UnpinPage(base_pid, false);
      return Status::Busy("base page changed");
    }
    InternalNode base(base_page);
    for (PageId src : sources) {
      if (base.FindChildSlot(src) < 0 && !resume) {
        bp->UnpinPage(base_pid, false);
        return Status::Busy("source no longer under base page");
      }
    }
  }
  bp->UnpinPage(base_pid, false);

  // --- 2. RX lock the unit's leaves (and X the new destination) -----------
  for (PageId src : sources) {
    s = held.Lock(PageLock(src), LockMode::kRX);
    if (!s.ok()) return s;
  }
  if (!in_place) {
    s = held.Lock(PageLock(dest), LockMode::kX);
    if (!s.ok()) return s;
  }

  // Side-pointer neighbors (§4.3): prev of the first source, next of the
  // last source — RX when under the same base page, X otherwise.
  PageId prev_nb = kInvalidPageId, next_nb = kInvalidPageId;
  if (ctx_->tree->options().side_pointers != SidePointerMode::kNone) {
    Page* first_page;
    s = bp->FetchPage(sources.front(), &first_page);
    if (!s.ok()) return s;
    prev_nb = first_page->prev();
    bp->UnpinPage(sources.front(), false);
    Page* last_page;
    s = bp->FetchPage(sources.back(), &last_page);
    if (!s.ok()) return s;
    next_nb = last_page->next();
    bp->UnpinPage(sources.back(), false);

    for (PageId nb : {prev_nb, next_nb}) {
      if (nb == kInvalidPageId) continue;
      if (std::find(sources.begin(), sources.end(), nb) != sources.end()) {
        continue;  // internal to the unit
      }
      bool same_base;
      s = bp->FetchPage(base_pid, &base_page);
      if (!s.ok()) return s;
      {
        std::shared_lock<PageLatch> latch(base_page->latch());
        InternalNode base(base_page);
        same_base = base.FindChildSlot(nb) >= 0;
      }
      bp->UnpinPage(base_pid, false);
      s = held.Lock(PageLock(nb), same_base ? LockMode::kRX : LockMode::kX);
      if (!s.ok()) return s;
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
    begin.unit_type = static_cast<uint8_t>(
        in_place ? ReorgUnitType::kCompact : ReorgUnitType::kMove);
    std::vector<PageId> leaf_list;
    leaf_list.push_back(dest);
    for (PageId p : sources) leaf_list.push_back(p);
    begin.payload = EncodeBeginPages({base_pid}, leaf_list);
    ctx_->Log(unit, &begin);
  }

  // --- 4. Prepare the destination ------------------------------------------
  if (!in_place) {
    BufferPool::ApplyScope apply_scope(bp);
    if (dest_claimed) {
      LogRecord alloc;
      alloc.type = LogType::kAllocPage;
      alloc.page_id = dest;
      ctx_->Log(unit, &alloc);
    }
    // A resumed unit whose ALLOC was replayed continues from the image redo
    // rebuilt: a fresh frame would drop the records its MOVEs reinstalled.
    // That image needs a FORMAT only if the crash beat the FORMAT record,
    // i.e. the page still carries an LSN from before this unit's BEGIN.
    Page* dest_page;
    s = dest_claimed ? bp->NewFrameForExisting(dest, &dest_page)
                     : bp->FetchPage(dest, &dest_page);
    if (!s.ok()) return s;
    if (dest_claimed ||
        dest_page->page_lsn() < ctx_->table->Snapshot().begin_lsn) {
      std::unique_lock<PageLatch> latch(dest_page->latch());
      LeafNode::Format(dest_page, dest);
      LogRecord fmt;
      fmt.type = LogType::kFormatPage;
      fmt.page_id = dest;
      fmt.unit_type = static_cast<uint8_t>(PageType::kLeaf);
      ctx_->Log(unit, &fmt);
      dest_page->set_page_lsn(fmt.lsn);
    }
    bp->UnpinPage(dest, true);
  }

  // --- 5. Move records, one source at a time -------------------------------
  std::vector<LogRecord> moves;  // this attempt's MOVEs, for the §5.2 undo
  std::string unit_high_key;
  if (resume && !in_place) {
    // The MOVEs redone before the crash emptied their sources into dest,
    // so the loop below skips them: start from dest's last key, where an
    // uncrashed run's END would have put LK for those sources.
    Page* p;
    s = bp->FetchPage(dest, &p);
    if (!s.ok()) return s;
    unit_high_key = LastKeyOf(p);
    bp->UnpinPage(dest, false);
  }

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
    if (records.empty()) {  // nothing left (resume)
      bp->UnpinPage(src, false);
      continue;
    }

    Page* dest_page;
    s = bp->FetchPage(dest, &dest_page);
    if (!s.ok()) {
      bp->UnpinPage(src, false);
      break;
    }
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
    unit_high_key = std::max(unit_high_key, records.back().first);
    if (take == 0) {
      bp->UnpinPage(dest, false);
      bp->UnpinPage(src, false);
      continue;
    }
    records.resize(take);

    // Log the MOVE (org first, then the physical change — the paper writes
    // the org-page record first; we use one record covering both pages).
    BufferPool::ApplyScope apply_scope(bp);
    LogRecord move;
    move.type = LogType::kReorgMove;
    move.page_id = src;
    move.page_id2 = dest;
    if (ctx_->careful_writing) {
      std::vector<std::string> keys;
      keys.reserve(records.size());
      for (const auto& [k, v] : records) keys.push_back(k);
      move.payload = EncodeMovedKeys(keys);
      move.flags = kMoveKeysOnly;
    } else {
      move.payload = EncodeMovedRecords(records);
    }
    ctx_->Log(unit, &move);
    ApplyReorgMove(bp, move, records, src_page, true, dest_page, true);
    bp->UnpinPage(dest, true);
    bp->UnpinPage(src, true);
    moves.push_back(std::move(move));
    ctx_->stats->records_moved += take;
  }
  if (!s.ok()) return s;

  // --- 6. Upgrade the base-page lock to X ----------------------------------
  s = ctx_->locks->Lock(kReorgTxnId, PageLock(base_pid), LockMode::kX);
  if (!s.ok()) {
    // §5.2 undo-at-deadlock: move everything back, then close the unit.
    BufferPool::ApplyScope apply_scope(bp);
    for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
      LogRecord back;
      Status us = ReorgCompensation(bp, *it, &back);
      if (!us.ok()) return us;
      ctx_->Log(unit, &back);
      us = ApplyLoggedMove(bp, back);
      if (!us.ok()) return us;
    }
    LogRecord end;
    end.type = LogType::kReorgEnd;
    end.key = ctx_->table->largest_finished_key();  // LK unchanged
    Status flushed = ctx_->Log(unit, &end);
    if (!flushed.ok()) return flushed;
    return Status::Deadlock("base-page upgrade deadlock");
  }

  // --- 7. MODIFY the base page ---------------------------------------------
  s = bp->FetchPage(base_pid, &base_page);
  if (!s.ok()) return s;
  auto log_modify = [&](const Slice& org_key, PageId org_pid,
                        const Slice& new_key, PageId new_pid) {
    LogRecord mod =
        ModifyRecord(base_pid, org_key, org_pid, new_key, new_pid);
    ctx_->Log(unit, &mod);
    ApplyReorgModify(mod, base_page);
  };
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

  // The unit's MODIFYs go in under one latch hold, so an optimistic reader
  // never sees the base page with half of them.
  std::vector<PageId> now_empty;
  BufferPool::ApplyScope modify_scope(bp);
  {
    std::unique_lock<PageLatch> latch(base_page->latch());
    InternalNode base(base_page);
    for (size_t i = 0; i < sources.size(); ++i) {
      PageId src = sources[i];
      const LeafPeek& pk = src_peeks[i];
      if (src == dest || !pk.fetched) continue;
      int slot = base.FindChildSlot(src);
      if (pk.cnt == 0) {
        if (slot >= 0) {
          log_modify(base.KeyAt(slot), src, Slice(), kInvalidPageId);
        }
        now_empty.push_back(src);
      } else if (slot >= 0 && base.KeyAt(slot).compare(pk.first_key) != 0) {
        log_modify(base.KeyAt(slot), src, pk.first_key, src);
      }
    }
    // Map a new destination into the base page under its first key.
    if (!in_place && dest_peek.fetched && base.FindChildSlot(dest) < 0 &&
        !dest_peek.first_key.empty()) {
      log_modify(Slice(), kInvalidPageId, dest_peek.first_key, dest);
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
        link.page_id = p;
        link.page_id2 = want_prev;
        link.page_id3 = want_next;
        ctx_->Log(unit, &link);
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
    de.page_id = src;
    ctx_->Log(unit, &de);
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
  end.key = std::max(unit_high_key, ctx_->table->largest_finished_key());
  Status flushed = ctx_->Log(unit, &end);

  ++ctx_->stats->units;
  if (in_place) {
    ++ctx_->stats->compact_units;
  } else {
    ++ctx_->stats->move_units;
  }
  return flushed;
}

}  // namespace soreorg
