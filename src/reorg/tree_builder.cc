#include "src/reorg/tree_builder.h"

#include <chrono>
#include <thread>

namespace soreorg {

TreeBuilder::TreeBuilder(ReorgContext* ctx, SideFile* side_file,
                         TreeBuilderOptions options)
    : ctx_(ctx),
      side_file_(side_file),
      options_(options),
      builder_(ctx->bp, options.internal_fill) {
  // §7.3: "space allocation ... is also logged"; allocations after the last
  // force-write are reclaimed at recovery. Logging happens inside the
  // builder, before the new page is formatted, so a recycled page id gets
  // its LSN stamp before its unlogged image can ever reach disk.
  builder_.set_alloc_logger([this](PageId pid) {
    LogRecord alloc;
    alloc.type = LogType::kAllocPage;
    alloc.txn_id = kReorgTxnId;
    alloc.page_id = pid;
    alloc.flags = 1;  // pass-3 allocation (reclaimable past the stable key)
    ctx_->log->Append(&alloc);
    ++pages_since_stable_;
    return alloc.lsn;
  });
}

std::string TreeBuilder::CurrentKey() const {
  std::lock_guard<std::mutex> g(mu_);
  return current_key_;
}

bool TreeBuilder::all_read() const {
  std::lock_guard<std::mutex> g(mu_);
  return all_read_;
}

Status TreeBuilder::ReadBasePage(bool* last) {
  // Get_Current: S lock the base page covering CK — one S lock at a time
  // (§7.5), which keeps readers flowing and blocks only updaters that would
  // change this very page. The reorganizer always loses deadlocks; the
  // descent holds nothing when it loses, so it simply tries again.
  const std::string ck = CurrentKey();
  BTree::Descent d{.access = BTree::Access::kShared, .stop_level = 1};
  Status s;
  do {
    s = ctx_->tree->Descend(kReorgTxnId, ck, &d);
  } while (s.IsDeadlock() || s.IsBusy());
  if (!s.ok()) return s;
  Page* page;
  s = ctx_->bp->FetchPage(d.pid, &page);
  if (!s.ok()) {
    ctx_->locks->Unlock(kReorgTxnId, PageLock(d.pid));
    return s;
  }
  // Entries below CK were read from earlier pages, or their changes went
  // to the side file; the page can hold some when it grew leftward (its
  // left neighbour was freed) or was re-entered after its right neighbour
  // was freed.
  std::vector<std::pair<std::string, PageId>> entries;
  {
    std::shared_lock<PageLatch> latch(page->latch());
    InternalNode node(page);
    for (int i = 0; i < node.Count(); ++i) {
      if (node.KeyAt(i).compare(ck) >= 0) {
        entries.emplace_back(node.KeyAt(i).ToString(), node.ChildAt(i));
      }
    }
  }
  ctx_->bp->UnpinPage(d.pid, false);

  for (const auto& [sep, child] : entries) {
    s = builder_.Add(sep, child);
    if (!s.ok()) {
      ctx_->locks->Unlock(kReorgTxnId, PageLock(d.pid));
      return s;
    }
  }

  // Get_Next (§7.1): CK moves to this page's upper bound before the S lock
  // goes, and without requesting any lock while it is held. An update that
  // reaches the page after the release compares below CK and is recorded
  // in the side file; every key at or above CK is still ahead.
  *last = d.hi.empty();
  {
    std::lock_guard<std::mutex> g(mu_);
    if (*last) {
      all_read_ = true;
    } else {
      current_key_ = d.hi;
    }
  }
  ctx_->locks->Unlock(kReorgTxnId, PageLock(d.pid));

  if (options_.base_page_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.base_page_delay_ms));
  }
  if (pages_since_stable_ >= options_.stable_every) return StablePoint();
  return Status::OK();
}

Status TreeBuilder::StablePoint() {
  std::vector<PageId> force = builder_.TakeCompletedPages();
  for (PageId p : builder_.OpenPages()) force.push_back(p);
  Status s = ctx_->bp->ForcePages(force);
  if (!s.ok()) return s;

  // Apply scope: the stable-key record and the table's pass-3 state must
  // land on the same side of a concurrent checkpoint's redo floor.
  BufferPool::ApplyScope apply_scope(ctx_->bp);
  LogRecord rec;
  rec.type = LogType::kStableKey;
  rec.txn_id = kReorgTxnId;
  rec.key = CurrentKey();
  rec.page_id = builder_.TopPage();
  s = ctx_->log->AppendAndFlush(&rec);
  if (!s.ok()) return s;

  ctx_->table->set_pass3(true, rec.key, builder_.TopPage());
  pages_since_stable_ = 0;
  ++ctx_->stats->stable_points;
  return Status::OK();
}

Status TreeBuilder::Run(const Slice& resume_key, PageId resume_top) {
  Status s;
  if (resume_top != kInvalidPageId && !resume_key.empty()) {
    // §7.3 restart: rebuild builder state from the durable partial tree and
    // continue reading at the stable key.
    s = builder_.RestoreSpine(resume_top, resume_key);
    if (!s.ok()) return s;
    std::lock_guard<std::mutex> g(mu_);
    current_key_ = resume_key.ToString();
  }

  // From CK (-infinity: §7.1 "follow the leftmost pointers"), page by page.
  for (bool last = false; !last;) {
    s = ReadBasePage(&last);
    if (!s.ok()) return s;
  }

  // Close the build.
  PageId new_root;
  uint8_t new_height;
  s = builder_.Finish(&new_root, &new_height);
  if (!s.ok()) return s;
  s = StablePoint();  // final force + stable key
  if (!s.ok()) return s;

  new_tree_ = std::make_unique<BTree>(ctx_->bp, ctx_->log, ctx_->locks,
                                      ctx_->tree->options());
  new_tree_->Attach(new_root, new_height, ctx_->tree->incarnation() + 1);

  // Catch-up: apply side-file entries until it drains (§7.1 end).
  return DrainSideFile();
}

Status TreeBuilder::ApplyEntry(const SideEntry& entry) {
  if (entry.seq != 0 && entry.seq <= applied_seq_hwm_) {
    // Already applied in an earlier catch-up round; re-application after a
    // step-aside re-drain (§7.4) must be a no-op.
    ++ctx_->stats->side_duplicates_skipped;
    return Status::OK();
  }
  bool already_applied = false;
  Status s = new_tree_->BaseApply(&reorg_txn_, entry.op, entry.key,
                                  entry.leaf, &already_applied);
  if (s.IsNotFound()) {
    // Deleting an absent separator: the change is already in effect.
    s = Status::OK();
    already_applied = true;
  }
  if (!s.ok()) return s;
  if (entry.seq > applied_seq_hwm_) applied_seq_hwm_ = entry.seq;
  if (already_applied) ++ctx_->stats->side_reapplied_noops;
  ++ctx_->stats->side_entries_applied;
  return Status::OK();
}

Status TreeBuilder::DrainSideFile() {
  int deadlock_retries = 0;
  while (true) {
    SideEntry entry;
    bool empty = false;
    Status s = side_file_->PopFront(&entry, &empty);
    if (s.IsDeadlock() || s.IsBusy()) {
      // The reorganizer always loses deadlocks (§4.1): back off briefly and
      // keep draining.
      if (++deadlock_retries > 1024) return s;
      continue;
    }
    if (!s.ok()) return s;
    if (empty) return Status::OK();
    // A successful pop is progress: reset the retry budget so a long drain
    // under sustained updater churn cannot accumulate scattered retries
    // into a spurious hard failure.
    deadlock_retries = 0;
    s = ApplyEntry(entry);
    if (!s.ok()) return s;
  }
}

}  // namespace soreorg
