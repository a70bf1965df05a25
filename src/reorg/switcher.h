// Switcher (§7.4): the first detailed published protocol for switching from
// the old B+-tree to the new one — extended with the *step-aside* loop that
// fixes the protocol's liveness hole.
//
//   1. X-lock the side file. Updaters hold their side-file IX locks to end
//      of transaction, so this drains every in-flight base-page updater.
//   2. Final catch-up: apply the few side-file entries recorded while
//      waiting for the X lock.
//   3. Flip the root pointer (kTreeSwitch, flushed) and give the new tree a
//      fresh lock name (incarnation). New operations now use the new tree.
//   4. Still holding the side-file X lock, request an X lock on the *old*
//      tree's lock name: since every transaction that was using the old
//      tree holds IS/IX on it, granting means they have all finished.
//
//      The literal protocol deadlocks here: an updater that holds IX on the
//      old tree (to end of transaction) and is parked in an instant-duration
//      IX wait on the side-file lock can never finish while we hold the
//      side-file X — and we can never get the old-tree X while it lives. The
//      deadlock detector victimizes the reorganizer (§4.1), so every round
//      of the wait loop dies with kDeadlock until the rounds run out and the
//      switch fails with the root already flipped.
//
//      **Step-aside** (this repo's fix): when the old-tree wait times out or
//      loses a deadlock, release the side-file X lock, let the parked
//      updater proceed (its instant wait resolves; its entry lands in the
//      side file through the normal Busy-redirect path), wait for the side
//      file to grow (or a bounded interval for long readers), re-acquire the
//      X lock, drain the delta, and retry the old-tree X. Each step-aside
//      retires at least one parked old-tree updater — after the flip no NEW
//      transaction can acquire the old incarnation's lock name, so the
//      holder set shrinks monotonically and the loop terminates. Re-drains
//      are safe because DrainSideFile is idempotent (seq high-water mark +
//      duplicate-tolerant BaseApply; see TreeBuilder::ApplyEntry).
//   5. Discard the old tree's upper levels (all its internal pages; leaves
//      are shared with the new tree) and reclaim their space. A failure to
//      collect them is surfaced in SwitchStats (reclaim_failed) — the switch
//      itself still succeeds; the pages leak but the trees are intact.
//   6. Close the side file, clear the reorganization bit, drop the hooks,
//      release all locks.
//
// Failure discipline (post-flip): once the root has flipped the switch can
// no longer be "undone" — the new tree IS the tree. If step 4 exhausts its
// rounds/step-asides, the switcher *rolls forward*: final best-effort drain,
// close the side file, dismantle the pass-3 state, count (but do not free)
// the old internal pages — in-flight old-tree transactions may still be
// navigating them — and return TimedOut with stats->rolled_forward set. The
// system is left fully consistent on the new tree; only the old upper-level
// pages leak (stats->old_pages_leaked).
//
// Lock-order note (invariant (f), lock_invariants.h): inside the switch
// window the reorganizer holds X on the old tree lock only while it also
// holds the side-file X lock. The step-aside release/re-acquire happens
// strictly while the old-tree X is NOT held, so a drain can never run
// concurrently with a recording updater.

#ifndef SOREORG_REORG_SWITCHER_H_
#define SOREORG_REORG_SWITCHER_H_

#include <functional>
#include <string>

#include "src/reorg/context.h"
#include "src/reorg/side_file.h"
#include "src/reorg/tree_builder.h"
#include "src/util/random.h"

namespace soreorg {

struct SwitcherOptions {
  /// Per-attempt bound on the old-tree X-lock wait (§7.4's time limit).
  int64_t old_tree_timeout_ms = 2000;
  int max_wait_rounds = 30;
  /// Hard cap on step-aside rounds. Progress is guaranteed (each round
  /// retires at least one parked old-tree updater and no new ones can
  /// appear post-flip), so this only bounds pathological schedules; when it
  /// trips the switcher rolls forward and returns TimedOut. 0 gives the
  /// literal §7.4 protocol, which rolls forward on the first failed round.
  int max_step_asides = 64;
  /// How long a step-aside waits for the side file to grow before
  /// re-acquiring the X lock anyway. The growth signal means a parked
  /// updater retired; the timeout covers old-tree *readers* (IS holders),
  /// which never touch the side file but still block the old-tree X.
  int64_t step_aside_wait_ms = 200;

  /// TEST ONLY. Force the first N step 4 rounds to step aside without even
  /// attempting the old-tree lock — drives the release-reacquire window
  /// deterministically for crash-torture sweeps.
  int force_step_asides = 0;
  /// TEST ONLY. Called once per step-aside, right after the side-file X
  /// lock is released, from the switcher thread.
  std::function<void()> on_step_aside;
};

struct SwitchStats {
  uint64_t final_catchup_entries = 0;
  uint64_t old_pages_discarded = 0;
  uint64_t old_tree_wait_rounds = 0;
  /// Side-file X-lock attempts that failed and were retried after a backoff
  /// sleep (deadlock-victim kills and busy returns), across step 1 and all
  /// step-aside re-acquires.
  uint64_t side_lock_retries = 0;
  /// Wall-clock nanoseconds updaters were blocked by the side-file X lock.
  uint64_t switch_window_ns = 0;

  /// Step-aside rounds taken (release side X → wait → re-acquire → drain).
  uint64_t step_asides = 0;
  /// Side-file entries applied by step-aside re-drains (excludes the step-2
  /// final catch-up).
  uint64_t step_aside_entries = 0;

  /// The root pointer flipped (step 3 succeeded). After this the switch can
  /// only roll forward; the reorganizer's failure cleanup keys off it.
  bool root_flipped = false;
  /// Step 4 gave up and the switcher rolled forward to a consistent
  /// new-tree state instead of leaving the system half-switched.
  bool rolled_forward = false;
  /// Old internal pages intentionally leaked by a roll-forward (in-flight
  /// old-tree transactions may still navigate them, so they cannot be freed).
  uint64_t old_pages_leaked = 0;

  /// Step 5 could not enumerate the old upper levels; the switch still
  /// succeeded but the old internal pages were not reclaimed.
  bool reclaim_failed = false;
  std::string reclaim_error;
};

class Switcher {
 public:
  Switcher(ReorgContext* ctx, SideFile* side_file, SwitcherOptions options);

  /// Resets *stats, then runs steps 1-6.
  Status Switch(TreeBuilder* builder, SwitchStats* stats);

 private:
  /// Acquire the side-file X lock with jittered exponential backoff.
  Status AcquireSideX(SwitchStats* stats);
  /// Release the side-file X lock, let parked updaters record and retire
  /// (wait for the side file to grow, or step_aside_wait_ms), re-acquire.
  Status StepAside(SwitchStats* stats);
  /// Drain the side file, stepping aside while the drain loses deadlocks to
  /// parked updaters. *side_held says whether the X lock is held on return.
  Status DrainSteppingAside(TreeBuilder* builder, SwitchStats* stats,
                            bool* side_held);
  /// Dismantle the pass-3 state: close the side file, clear the
  /// reorganization bit, the hooks and the pass-3 table entry, and leave
  /// the switch window.
  void EndPass3();

  ReorgContext* ctx_;
  SideFile* side_file_;
  SwitcherOptions options_;
  Random jitter_;
};

}  // namespace soreorg

#endif  // SOREORG_REORG_SWITCHER_H_
