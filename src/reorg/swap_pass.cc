#include "src/reorg/swap_pass.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/util/coding.h"

namespace soreorg {

namespace {

std::string EncodePid(PageId pid) {
  std::string s;
  PutFixed32(&s, pid);
  return s;
}

std::vector<std::string> ReadAllCells(Page* page) {
  SlottedPage sp(page);
  std::vector<std::string> cells;
  cells.reserve(sp.slot_count());
  for (int i = 0; i < sp.slot_count(); ++i) {
    cells.push_back(sp.GetCell(i).ToString());
  }
  return cells;
}

void WriteAllCells(Page* page, const std::vector<std::string>& cells) {
  SlottedPage sp(page);
  sp.Clear();
  for (size_t i = 0; i < cells.size(); ++i) {
    sp.InsertCell(static_cast<int>(i), cells[i]);
  }
}

std::string PackCells(const std::vector<std::string>& cells) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(cells.size()));
  for (const std::string& c : cells) PutLengthPrefixedSlice(&out, c);
  return out;
}

}  // namespace

SwapPass::SwapPass(ReorgContext* ctx, LeafCompactor* compactor,
                   SwapPassOptions opts)
    : ctx_(ctx), compactor_(compactor), options_(opts) {}

Status SwapPass::FindAndLockBaseOf(PageId leaf, PageId* base_pid) {
  BufferPool* bp = ctx_->bp;
  for (int attempt = 0; attempt < 16; ++attempt) {
    Page* leaf_page;
    Status s = bp->FetchPage(leaf, &leaf_page);
    if (!s.ok()) return s;
    std::string key;
    {
      std::shared_lock<PageLatch> latch(leaf_page->latch());
      LeafNode ln(leaf_page);
      if (ln.Count() > 0) key = ln.KeyAt(0).ToString();
    }
    bp->UnpinPage(leaf, false);

    BTree::Descent d{.access = BTree::Access::kShared,
                     .stop_level = 1,
                     .stop_mode = LockMode::kR};
    s = ctx_->tree->Descend(kReorgTxnId, key, &d);
    if (!s.ok()) return s;
    *base_pid = d.pid;
    Page* base_page;
    s = bp->FetchPage(d.pid, &base_page);
    if (!s.ok()) {
      ctx_->locks->Unlock(kReorgTxnId, PageLock(d.pid));
      return s;
    }
    bool found;
    {
      std::shared_lock<PageLatch> latch(base_page->latch());
      found = InternalNode(base_page).FindChildSlot(leaf) >= 0;
    }
    bp->UnpinPage(d.pid, false);
    if (found) return Status::OK();
    ctx_->locks->Unlock(kReorgTxnId, PageLock(*base_pid));
    // The leaf's first key may have been stale; retry.
  }
  return Status::Busy("could not locate leaf's base page");
}

Status SwapPass::Run() {
  Status s = ctx_->locks->Lock(kReorgTxnId, TreeLock(ctx_->tree->incarnation()),
                               LockMode::kIX);
  if (!s.ok()) return s;
  auto unlock_tree = [&]() {
    ctx_->locks->Unlock(kReorgTxnId, TreeLock(ctx_->tree->incarnation()));
  };

  // Make pass-1's gated deallocations durable so their pages are available
  // as move targets (the paper assumes free pages exist in the database).
  s = ctx_->bp->FlushAndSync();
  if (!s.ok()) {
    unlock_tree();
    return s;
  }

  std::vector<PageId> leaves;
  s = ctx_->tree->CollectLeaves(&leaves);
  if (!s.ok()) {
    unlock_tree();
    return s;
  }

  // Candidate slots: current leaf pids plus all free pages.
  std::set<PageId> candidates(leaves.begin(), leaves.end());
  PageId probe = 0;
  while (true) {
    PageId f = ctx_->disk->FirstFreeInRange(probe, ctx_->disk->page_count());
    if (f == kInvalidPageId) break;
    candidates.insert(f);
    probe = f + 1;
  }
  std::vector<PageId> targets(candidates.begin(), candidates.end());
  targets.resize(leaves.size());  // the N smallest candidates, ascending

  std::map<PageId, size_t> where;  // pid -> index in `leaves`
  for (size_t i = 0; i < leaves.size(); ++i) where[leaves[i]] = i;

  for (size_t i = 0; i < leaves.size(); ++i) {
    PageId cur = leaves[i];
    PageId tgt = targets[i];
    if (cur == tgt) continue;
    auto occ = where.find(tgt);
    if (occ != where.end()) {
      // Swap with the leaf currently at the target slot.
      size_t j = occ->second;
      uint32_t unit = ctx_->next_unit.fetch_add(1);
      if (options_.unit_wrapper) {
        s = options_.unit_wrapper(
            [&]() { return SwapUnit(unit, cur, tgt, /*resume=*/false); });
      } else {
        s = SwapUnit(unit, cur, tgt, /*resume=*/false);
      }
      if (s.IsBusy() || s.IsDeadlock()) continue;  // skip; best effort
      if (!s.ok()) {
        unlock_tree();
        return s;
      }
      leaves[i] = tgt;
      leaves[j] = cur;
      where[tgt] = i;
      where[cur] = j;
    } else {
      // Move into the free page.
      PageId base_pid;
      s = FindAndLockBaseOf(cur, &base_pid);
      if (!s.ok()) continue;
      ctx_->locks->Unlock(kReorgTxnId, PageLock(base_pid));
      uint32_t unit = ctx_->next_unit.fetch_add(1);
      auto run_unit = [&]() {
        if (options_.unit_wrapper) {
          return options_.unit_wrapper([&]() {
            return compactor_->ExecuteUnit(unit, base_pid, {cur}, tgt,
                                           /*resume=*/false);
          });
        }
        return compactor_->ExecuteUnit(unit, base_pid, {cur}, tgt,
                                       /*resume=*/false);
      };
      s = run_unit();
      if (s.IsBusy()) {
        // The target may be a page this pass vacated earlier whose
        // deallocation is still gated on a durability barrier: make the
        // pending deallocations durable and retry once.
        s = ctx_->bp->FlushAndSync();
        if (s.ok()) s = run_unit();
      }
      if (s.IsBusy() || s.IsDeadlock()) continue;
      if (!s.ok()) {
        unlock_tree();
        return s;
      }
      leaves[i] = tgt;
      where.erase(cur);
      where[tgt] = i;
    }
  }
  unlock_tree();
  return Status::OK();
}

Status SwapPass::SwapUnit(uint32_t unit, PageId a, PageId b, bool resume) {
  for (int attempt = 0; attempt < kMaxUnitRetries; ++attempt) {
    Status s = SwapUnitOnce(unit, a, b, resume);
    if (s.IsDeadlock()) {
      ++ctx_->stats->unit_retries;
      continue;
    }
    return s;
  }
  return Status::Deadlock("swap retries exhausted");
}

Status SwapPass::SwapUnitOnce(uint32_t unit, PageId a, PageId b, bool resume) {
  const TxnId id = kReorgTxnId;
  LockManager* locks = ctx_->locks;
  BufferPool* bp = ctx_->bp;

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

  // --- base pages ------------------------------------------------------------
  PageId base_a;
  Status s = FindAndLockBaseOf(a, &base_a);
  if (!s.ok()) return s;
  held.push_back(PageLock(base_a));

  PageId base_b = base_a;
  bool b_same_base;
  {
    Page* bpg;
    s = bp->FetchPage(base_a, &bpg);
    if (!s.ok()) {
      release_all();
      return s;
    }
    std::shared_lock<PageLatch> latch(bpg->latch());
    InternalNode base(bpg);
    b_same_base = base.FindChildSlot(b) >= 0;
    bp->UnpinPage(base_a, false);
  }
  if (!b_same_base) {
    s = FindAndLockBaseOf(b, &base_b);
    if (!s.ok()) {
      release_all();
      return s;
    }
    held.push_back(PageLock(base_b));
  }

  // --- leaves + neighbors ------------------------------------------------------
  s = lock(PageLock(a), LockMode::kRX);
  if (s.ok()) s = lock(PageLock(b), LockMode::kRX);
  if (!s.ok()) {
    release_all();
    return s;
  }

  PageId pa = kInvalidPageId, na = kInvalidPageId;
  PageId pb = kInvalidPageId, nb = kInvalidPageId;
  if (ctx_->tree->options().side_pointers != SidePointerMode::kNone) {
    Page* pg;
    s = bp->FetchPage(a, &pg);
    if (!s.ok()) {
      release_all();
      return s;
    }
    pa = pg->prev();
    na = pg->next();
    bp->UnpinPage(a, false);
    s = bp->FetchPage(b, &pg);
    if (!s.ok()) {
      release_all();
      return s;
    }
    pb = pg->prev();
    nb = pg->next();
    bp->UnpinPage(b, false);

    std::vector<PageId> neighbors;
    for (PageId n : {pa, na, pb, nb}) {
      if (n == kInvalidPageId || n == a || n == b) continue;
      if (std::find(neighbors.begin(), neighbors.end(), n) ==
          neighbors.end()) {
        neighbors.push_back(n);
      }
    }
    for (PageId n : neighbors) {
      bool same_base = false;
      for (PageId base : {base_a, base_b}) {
        Page* bpg;
        if (!bp->FetchPage(base, &bpg).ok()) continue;
        std::shared_lock<PageLatch> latch(bpg->latch());
        InternalNode node(bpg);
        if (node.FindChildSlot(n) >= 0) same_base = true;
        bp->UnpinPage(base, false);
      }
      s = lock(PageLock(n), same_base ? LockMode::kRX : LockMode::kX);
      if (!s.ok()) {
        release_all();
        return s;
      }
    }
  }

  // --- BEGIN -------------------------------------------------------------------
  // As in the leaf pass, every logged step brackets its append and effects
  // in a BufferPool::ApplyScope (per step, never across a lock wait) so a
  // concurrent checkpoint's redo floor cannot split record from effect.
  if (!resume) {
    BufferPool::ApplyScope apply_scope(bp);
    LogRecord begin;
    begin.type = LogType::kReorgBegin;
    begin.txn_id = id;
    begin.unit = unit;
    begin.unit_type = static_cast<uint8_t>(ReorgUnitType::kSwap);
    std::vector<PageId> bases{base_a};
    if (base_b != base_a) bases.push_back(base_b);
    begin.payload = EncodeBeginPages(bases, {a, b});
    ctx_->log->Append(&begin);
    ctx_->table->BeginUnit(unit, begin.lsn);
  }

  // On resume, detect whether the content swap already happened (the crash
  // may have fallen anywhere in the unit; redo reinstalled whatever was
  // logged). The base entry's separator matches the page's current first
  // key iff the contents are where the entry says they are.
  bool skip_swap = false;
  if (resume) {
    Page* bpg;
    s = bp->FetchPage(base_a, &bpg);
    if (!s.ok()) {
      release_all();
      return s;
    }
    int slot_a;
    std::string sep_a;
    {
      std::shared_lock<PageLatch> latch(bpg->latch());
      InternalNode node(bpg);
      slot_a = node.FindChildSlot(a);
      if (slot_a >= 0) sep_a = node.KeyAt(slot_a).ToString();
    }
    bp->UnpinPage(base_a, false);
    if (slot_a >= 0) {
      Page* pga;
      s = bp->FetchPage(a, &pga);
      if (!s.ok()) {
        release_all();
        return s;
      }
      std::string first_a;
      {
        std::shared_lock<PageLatch> latch(pga->latch());
        LeafNode ln(pga);
        if (ln.Count() > 0) first_a = ln.KeyAt(0).ToString();
      }
      bp->UnpinPage(a, false);
      skip_swap = !first_a.empty() && first_a != sep_a;
    } else {
      skip_swap = true;  // base already repointed: the swap happened
    }
  }

  // --- the swap itself (one atomic record; full image of page a) ---------------
  auto do_swap = [&]() -> Status {
    Page* page_a;
    Page* page_b;
    Status ss = bp->FetchPage(a, &page_a);
    if (!ss.ok()) return ss;
    ss = bp->FetchPage(b, &page_b);
    if (!ss.ok()) {
      bp->UnpinPage(a, false);
      return ss;
    }
    std::vector<std::string> cells_a, cells_b;
    {
      std::shared_lock<PageLatch> la(page_a->latch());
      cells_a = ReadAllCells(page_a);
    }
    {
      std::shared_lock<PageLatch> lb(page_b->latch());
      cells_b = ReadAllCells(page_b);
    }
    BufferPool::ApplyScope apply_scope(bp);
    LogRecord move;
    move.type = LogType::kReorgMove;
    move.txn_id = id;
    move.unit = unit;
    move.prev_lsn = ctx_->table->recent_lsn();
    move.page_id = a;
    move.page_id2 = b;
    move.flags = kSwapImages;
    move.payload = PackCells(cells_a);
    ctx_->log->Append(&move);
    ctx_->table->RecordLsn(move.lsn);
    // Careful-writing order (§6.1): b (which now holds a's old image) must
    // not reach disk before a is durable. The edge goes in BEFORE either
    // page's bytes change — once b's post-swap image exists, any flusher
    // may pick it up, and without the edge it could reach disk with a
    // still stale, which is exactly the state swap redo refuses to repair.
    bp->AddWriteOrder(a, b);
    {
      std::unique_lock<PageLatch> la(page_a->latch());
      WriteAllCells(page_a, cells_b);
      page_a->set_page_lsn(move.lsn);
    }
    {
      std::unique_lock<PageLatch> lb(page_b->latch());
      WriteAllCells(page_b, cells_a);
      page_b->set_page_lsn(move.lsn);
    }
    bp->UnpinPage(a, true);
    bp->UnpinPage(b, true);
    ctx_->stats->records_moved += cells_a.size() + cells_b.size();
    return Status::OK();
  };
  if (!skip_swap) {
    s = do_swap();
    if (!s.ok()) {
      release_all();
      return s;
    }
  }

  // --- upgrade base locks to X ---------------------------------------------------
  Status up = locks->Lock(id, PageLock(base_a), LockMode::kX);
  if (up.ok() && base_b != base_a) {
    up = locks->Lock(id, PageLock(base_b), LockMode::kX);
  }
  if (!up.ok()) {
    // Undo-at-deadlock: a swap is self-inverse.
    do_swap();
    BufferPool::ApplyScope apply_scope(bp);
    LogRecord end;
    end.type = LogType::kReorgEnd;
    end.txn_id = id;
    end.unit = unit;
    end.prev_lsn = ctx_->table->recent_lsn();
    end.key = ctx_->table->largest_finished_key();
    Status flushed = ctx_->log->AppendAndFlush(&end);
    ctx_->table->EndUnit(end.key);
    release_all();
    if (!flushed.ok()) return flushed;
    return Status::Deadlock("swap base upgrade deadlock");
  }

  // --- MODIFY the base pointers ----------------------------------------------------
  // Locate both entries FIRST, then flip them — flipping one at a time
  // would make the second lookup find the freshly flipped entry when both
  // leaves share a base page.
  auto set_child = [&](PageId base, Page* bpg, int slot,
                       PageId to) {
    InternalNode node(bpg);
    std::string sep = node.KeyAt(slot).ToString();
    PageId from = node.ChildAt(slot);
    LogRecord mod;
    mod.type = LogType::kReorgModify;
    mod.txn_id = id;
    mod.unit = unit;
    mod.prev_lsn = ctx_->table->recent_lsn();
    mod.page_id = base;
    mod.key = sep;
    mod.value = EncodePid(from);
    mod.key2 = sep;
    mod.value2 = EncodePid(to);
    ctx_->log->Append(&mod);
    ctx_->table->RecordLsn(mod.lsn);
    node.SetChildAt(slot, to);
    bpg->set_page_lsn(mod.lsn);
  };
  {
    Page* pg_a;
    s = bp->FetchPage(base_a, &pg_a);
    if (!s.ok()) {
      release_all();
      return s;
    }
    Page* pg_b = pg_a;
    if (base_b != base_a) {
      s = bp->FetchPage(base_b, &pg_b);
      if (!s.ok()) {
        bp->UnpinPage(base_a, false);
        release_all();
        return s;
      }
    }
    int slot_a, slot_b;
    BufferPool::ApplyScope apply_scope(bp);
    {
      std::unique_lock<PageLatch> la(pg_a->latch());
      std::unique_lock<PageLatch> lb_maybe(
          base_b != base_a ? pg_b->latch() : pg_a->latch(),
          std::defer_lock);
      if (base_b != base_a) lb_maybe.lock();
      InternalNode na(pg_a);
      InternalNode nb(pg_b);
      slot_a = na.FindChildSlot(a);
      slot_b = nb.FindChildSlot(b);
      // On resume the entries may already be flipped; only flip when both
      // are in their pre-swap orientation.
      if (slot_a >= 0) set_child(base_a, pg_a, slot_a, b);
      if (slot_b >= 0) set_child(base_b, pg_b, slot_b, a);
    }
    bp->UnpinPage(base_a, true);
    if (base_b != base_a) bp->UnpinPage(base_b, true);
  }

  // --- side pointers -----------------------------------------------------------------
  if (ctx_->tree->options().side_pointers != SidePointerMode::kNone) {
    auto set_links = [&](PageId pid, PageId prev, PageId next) {
      Page* pg;
      if (!bp->FetchPage(pid, &pg).ok()) return;
      BufferPool::ApplyScope apply_scope(bp);
      LogRecord link;
      link.type = LogType::kLinkPage;
      link.txn_id = id;
      link.unit = unit;
      link.prev_lsn = ctx_->table->recent_lsn();
      link.page_id = pid;
      link.page_id2 = prev;
      link.page_id3 = next;
      ctx_->log->Append(&link);
      ctx_->table->RecordLsn(link.lsn);
      std::unique_lock<PageLatch> latch(pg->latch());
      pg->SetPrev(prev);
      pg->SetNext(next);
      pg->set_page_lsn(link.lsn);
      bp->UnpinPage(pid, true);
    };
    auto swap_ab = [&](PageId x) { return x == a ? b : (x == b ? a : x); };
    // Page b now sits at a's key position and vice versa.
    set_links(b, swap_ab(pa), swap_ab(na));
    set_links(a, swap_ab(pb), swap_ab(nb));
    if (pa != kInvalidPageId && pa != a && pa != b) {
      Page* pg;
      if (bp->FetchPage(pa, &pg).ok()) {
        PageId keep_prev = pg->prev();
        bp->UnpinPage(pa, false);
        set_links(pa, keep_prev, b);
      }
    }
    if (na != kInvalidPageId && na != a && na != b) {
      Page* pg;
      if (bp->FetchPage(na, &pg).ok()) {
        PageId keep_next = pg->next();
        bp->UnpinPage(na, false);
        set_links(na, b, keep_next);
      }
    }
    if (pb != kInvalidPageId && pb != a && pb != b) {
      Page* pg;
      if (bp->FetchPage(pb, &pg).ok()) {
        PageId keep_prev = pg->prev();
        bp->UnpinPage(pb, false);
        set_links(pb, keep_prev, a);
      }
    }
    if (nb != kInvalidPageId && nb != a && nb != b) {
      Page* pg;
      if (bp->FetchPage(nb, &pg).ok()) {
        PageId keep_next = pg->next();
        bp->UnpinPage(nb, false);
        set_links(nb, a, keep_next);
      }
    }
  }

  // --- END ------------------------------------------------------------------------------
  BufferPool::ApplyScope end_scope(bp);
  LogRecord end;
  end.type = LogType::kReorgEnd;
  end.txn_id = id;
  end.unit = unit;
  end.prev_lsn = ctx_->table->recent_lsn();
  end.key = ctx_->table->largest_finished_key();
  Status flushed = ctx_->log->AppendAndFlush(&end);
  ctx_->table->EndUnit(end.key);
  ++ctx_->stats->units;
  ++ctx_->stats->swap_units;
  if (resume) ++ctx_->stats->units_resumed;

  release_all();
  return flushed;
}

}  // namespace soreorg
