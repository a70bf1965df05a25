#include "src/reorg/switcher.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/txn/lock_invariants.h"

namespace soreorg {

namespace {

// Side-file X lock retry policy (step 1 and every step-aside re-acquire).
// The reorganizer always loses deadlocks (§4.1), so under updater pressure
// the lock attempt can fail many times in a row; each retry backs off
// exponentially with full jitter (uniform in [delay/2, delay]) so retries do
// not chase the same conflict window.
constexpr int kMaxSideLockAttempts = 1024;
constexpr int64_t kSideLockBackoffMinUs = 50;
constexpr int64_t kSideLockBackoffMaxUs = 20000;

// Per-instance jitter seed: concurrent switchers sharing one constant would
// back off in lockstep and collide on every retry.
uint64_t DeriveSeed(const Switcher* self) {
  static std::atomic<uint64_t> counter{0};
  uint64_t z = counter.fetch_add(1) * 0x9e3779b97f4a7c15ull;
  z ^= reinterpret_cast<uintptr_t>(self);
  return z ^ 0x5157c0ffeeull;
}

}  // namespace

Switcher::Switcher(ReorgContext* ctx, SideFile* side_file,
                   SwitcherOptions options)
    : ctx_(ctx),
      side_file_(side_file),
      options_(options),
      jitter_(DeriveSeed(this)) {}

Status Switcher::AcquireSideX(SwitchStats* stats) {
  // The reorganizer always loses deadlocks (§4.1), so retry until granted —
  // with jittered exponential backoff: an immediate retry re-enters the
  // exact conflict window that just killed us and, on a busy system, turns
  // the acquire into a hot spin that starves the very updaters it is
  // waiting on. Re-acquire after a step-aside cannot starve either: fresh
  // recorders use TryLock, which respects the FIFO queue and will not
  // overtake our waiting X request.
  Status s;
  int64_t delay_us = kSideLockBackoffMinUs;
  for (int attempt = 0;; ++attempt) {
    s = ctx_->locks->Lock(kReorgTxnId, SideFileLock(), LockMode::kX);
    if (s.ok()) return s;
    if ((!s.IsDeadlock() && !s.IsBusy()) || attempt >= kMaxSideLockAttempts) {
      return s;
    }
    ++stats->side_lock_retries;
    int64_t span = delay_us / 2;
    int64_t sleep_us = span + static_cast<int64_t>(jitter_.Uniform(
                                  static_cast<uint64_t>(span + 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    delay_us = std::min(delay_us * 2, kSideLockBackoffMaxUs);
  }
}

Status Switcher::StepAside(SwitchStats* stats) {
  // Capture the side-file growth baseline BEFORE releasing the X lock so a
  // fast updater's recording cannot be missed.
  ++stats->step_asides;
  const uint64_t recorded_before = side_file_->total_recorded();
  ctx_->locks->Unlock(kReorgTxnId, SideFileLock());
  if (options_.on_step_aside) options_.on_step_aside();

  // A growth in total_recorded() means a previously parked updater got its
  // entry in — i.e. one old-tree IX holder is now on its way to commit. The
  // deadline covers pure readers (IS holders), which block the old-tree X
  // without ever touching the side file.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.step_aside_wait_ms);
  while (side_file_->total_recorded() == recorded_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return AcquireSideX(stats);
}

Status Switcher::DrainSteppingAside(TreeBuilder* builder, SwitchStats* stats,
                                    bool* side_held) {
  // The drain can itself lose a deadlock: an updater parked on the
  // side-file lock still holds the page locks BaseApply needs — §7.4's
  // cycle one level down, with the same always-victimized reorganizer, so
  // every BaseApply retry re-forms it until the retry budget returns Busy.
  // The remedy is the same step-aside maneuver as step 4, then a re-drain
  // of the (idempotent) tail.
  *side_held = true;
  for (;;) {
    Status s = builder->DrainSideFile();
    if (s.ok() || (!s.IsBusy() && !s.IsDeadlock()) ||
        stats->step_asides >= static_cast<uint64_t>(options_.max_step_asides)) {
      return s;
    }
    s = StepAside(stats);
    if (!s.ok()) {
      *side_held = false;
      return s;
    }
  }
}

void Switcher::EndPass3() {
  side_file_->Close();
  BTree* tree = ctx_->tree;
  tree->set_reorg_bit(false);
  tree->set_base_update_hook(nullptr);
  tree->set_base_update_cancel_hook(nullptr);
  ctx_->table->set_pass3(false, Slice(), kInvalidPageId);
  if (LockInvariantChecker* checker = ctx_->locks->invariant_checker()) {
    checker->NoteSwitchExit();
  }
}

Status Switcher::Switch(TreeBuilder* builder, SwitchStats* stats) {
  *stats = SwitchStats{};
  const TxnId id = kReorgTxnId;
  LockManager* locks = ctx_->locks;
  BTree* tree = ctx_->tree;
  auto t0 = std::chrono::steady_clock::now();

  // 1. X lock the side file: blocks new base-page updates on either tree
  // and waits out every transaction holding a side-file IX lock.
  Status s = AcquireSideX(stats);
  if (!s.ok()) return s;
  auto unlock_side = [&]() { locks->Unlock(id, SideFileLock()); };

  // 2. Final catch-up under the X lock.
  uint64_t before = ctx_->stats->side_entries_applied;
  bool side_held = true;
  s = DrainSteppingAside(builder, stats, &side_held);
  if (!s.ok()) {
    // Nothing has flipped; the reorganizer's failure cleanup dismantles
    // the pass-3 state.
    if (side_held) unlock_side();
    return s;
  }
  stats->final_catchup_entries = ctx_->stats->side_entries_applied - before;

  // 3. Flip the root pointer; the new tree gets a new lock name.
  uint64_t old_inc = tree->incarnation();
  PageId old_root = tree->root();
  BTree* new_tree = builder->new_tree();
  s = tree->SwitchRoot(new_tree->root(), new_tree->height(), old_inc + 1);
  if (!s.ok()) {
    unlock_side();
    return s;
  }
  stats->root_flipped = true;
  if (LockInvariantChecker* checker = locks->invariant_checker()) {
    checker->NoteSwitchEnter(old_inc);
  }

  // Post-flip failures roll FORWARD: the new tree is live and consistent
  // (the root record is durable, every side entry either drained or will
  // drain below), so the only sane terminal state is "switch finished, old
  // upper levels leaked". Leaving the reorg bit set and the hooks installed
  // would strand every future base update in a side file nobody will ever
  // drain. With the side-file X held, a last best-effort drain runs first
  // and the old internal pages are counted; without it (the lock never came
  // back after a step-aside) Close() runs first, so the worst case is a
  // benign already-recorded entry, never a new one.
  auto roll_forward = [&](bool side_x_held) {
    if (side_x_held) builder->DrainSideFile();  // entries are idempotent
    EndPass3();
    if (side_x_held) {
      std::vector<PageId> leaked;
      if (tree->CollectInternalPages(old_root, &leaked).ok()) {
        stats->old_pages_leaked = leaked.size();
      }
      unlock_side();
    }
    stats->rolled_forward = true;
  };

  // 4. Drain transactions still using the old tree: X on the old tree lock.
  // We keep the side-file X lock across the acquisition, because base-page
  // updates on the new tree would make the old tree's leaf addresses
  // obsolete for in-flight old-tree searches (§7.4). When the wait times
  // out or loses a deadlock, step aside (see the header): release the side
  // X, let a parked updater retire, re-acquire, drain the delta, retry.
  int rounds = 0;
  for (;;) {
    // The first force_step_asides rounds step aside without trying the lock.
    if (stats->step_asides >=
        static_cast<uint64_t>(options_.force_step_asides)) {
      s = locks->Lock(id, TreeLock(old_inc), LockMode::kX,
                      options_.old_tree_timeout_ms);
      if (s.ok()) break;
      if (!s.IsTimedOut() && !s.IsDeadlock()) {
        roll_forward(true);
        return s;
      }
      ++stats->old_tree_wait_rounds;
      if (++rounds >= options_.max_wait_rounds) {
        roll_forward(true);
        return Status::TimedOut("old-tree transactions did not drain");
      }
      if (stats->step_asides >=
          static_cast<uint64_t>(options_.max_step_asides)) {
        roll_forward(true);
        return Status::TimedOut("step-aside budget exhausted");
      }
    }

    s = StepAside(stats);
    if (!s.ok()) {
      roll_forward(false);
      return s;
    }
    // Drain the delta recorded during the window, stepping aside again if
    // the drain itself deadlocks against a newly parked writer. Idempotent:
    // entries the redirect path already applied verify as no-ops.
    uint64_t applied_before = ctx_->stats->side_entries_applied;
    s = DrainSteppingAside(builder, stats, &side_held);
    if (!s.ok()) {
      roll_forward(side_held);
      return s;
    }
    stats->step_aside_entries +=
        ctx_->stats->side_entries_applied - applied_before;
  }

  // 5. Discard the old upper levels and reclaim the space. A failure here
  // (collecting the pages or flushing their DEALLOC records) is surfaced in
  // the stats but does not fail the switch — both trees are intact, only
  // the old internal pages leak.
  std::vector<PageId> old_internals;
  s = tree->CollectInternalPages(old_root, &old_internals);
  if (s.ok()) {
    BufferPool::ApplyScope apply_scope(ctx_->bp);
    for (PageId p : old_internals) {
      LogRecord de;
      de.type = LogType::kDeallocPage;
      de.txn_id = id;
      de.page_id = p;
      ctx_->log->Append(&de);
      ctx_->bp->DeletePage(p);
      ++stats->old_pages_discarded;
    }
    s = ctx_->log->Flush();
  }
  if (!s.ok()) {
    stats->reclaim_failed = true;
    stats->reclaim_error = s.ToString();
  }

  // 6. Close the side file (no recorder can be in flight: we hold the
  // X lock), clear the reorganization bit and release everything.
  EndPass3();
  locks->Unlock(id, TreeLock(old_inc));
  unlock_side();

  stats->switch_window_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return Status::OK();
}

}  // namespace soreorg
