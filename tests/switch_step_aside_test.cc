// The §7.4 switch-drain deadlock, pinned and fixed (ISSUE 6).
//
// The deterministic repro scripts the fatal interleaving with the schedule
// harness: an updater splits a leaf while the switcher is between "side-file
// X requested" and "granted", so the updater's side-file IX lands *behind*
// the switcher's X and the updater parks in its instant-duration wait still
// holding IX on the old tree's lock name. The switcher then flips the root
// and requests X on the old tree — the §7.4 cycle. Under the literal
// protocol (max_step_asides = 0) the deadlock detector victimizes the
// reorganizer and the switch fails; the test pins that, and pins that the
// failure rolls *forward* to a consistent new-tree state instead of leaving
// the tree half-switched. Under the step-aside protocol
// the same schedule must complete: the switcher releases the side-file X,
// the parked updater retires through the Busy-redirect path (recording its
// entry *and* applying it directly to the new tree), and the re-drain
// verifies the duplicate as a no-op.
//
// Both tests run at lock-table stripe counts 1 and 16: stripe 1 is the
// legacy single-mutex manager, so passing at both proves the protocol does
// not depend on striping accidents.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/schedule.h"
#include "src/txn/lock_invariants.h"
#include "tests/test_util.h"

namespace soreorg {
namespace {

class SwitchStepAsideTest : public DbFixture,
                            public ::testing::WithParamInterface<size_t> {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.lock_table_stripes = GetParam();
    OpenDb(opts);
  }

  void BuildTallSparseTree(uint64_t n = 6000) {
    ASSERT_TRUE(SparsifyByDeletion(db_.get(), n, 64, 0.95, 0.75, 10, 42,
                                   &survivors_)
                    .ok());
    ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  }

  // Script the §7.4 interleaving and run pass 3 through it. The five steps:
  //   1. reorg    build finishes; blocks at its side-file X *request*
  //   2. updater  explicit txn, inserts until a leaf split's side-file
  //               record blocks at its IX request (TryLock not yet run, so
  //               nothing is enqueued; the updater holds old-tree IX and its
  //               split-path page locks)
  //   3. reorg    side X granted (updater holds nothing on the side file),
  //               final catch-up, root flip, parks waiting for old-tree X
  //   4. updater  TryLock fails against the X -> blocks at its instant IX
  //               request
  //   5. updater  instant wait parks -> waits-for cycle closes -> the
  //               detector victimizes the reorganizer; free-run from here
  void RunSwitchDrainSchedule(bool step_aside) {
    BuildTallSparseTree();
    old_inc_ = db_->tree()->incarnation();

    SwitcherOptions* sw = &db_->reorganizer()->options()->switcher;
    // Long per-attempt timeout: every failed round in this schedule must
    // come from the deadlock detector, not from timer noise.
    sw->old_tree_timeout_ms = 5000;
    if (step_aside) {
      sw->step_aside_wait_ms = 3000;  // growth signal arrives far sooner
    } else {
      sw->max_step_asides = 0;  // literal §7.4: the first lost round fails
    }

    ctrl_ = std::make_unique<ScheduleController>(ScheduleOptions{
        .seed = 1, .step_timeout_ms = 20000, .settle_us = 2000});
    ctrl_->InstallLockHooks(db_->lock_manager());
    // The first three side-file lock *requests* are scheduling points: the
    // switcher's X (1), the updater's IX TryLock (2) and its instant-
    // duration wait (3) — each trapped before it touches the lock table.
    // Later side-file requests (the updater's Busy-redirect re-record, the
    // switcher's step-aside re-acquire) must flow freely, or the step-aside
    // growth poll would sit out its full deadline waiting on an updater the
    // controller is holding at a point.
    auto hits = std::make_shared<std::atomic<int>>(0);
    ctrl_->SetLockPointPredicate(
        [hits](LockEvent e, const LockName& name, LockMode) {
          return e == LockEvent::kRequest &&
                 name.space == LockSpace::kSideFile &&
                 hits->fetch_add(1) < 3;
        });

    ctrl_->Spawn("reorg", [&] {
      ctrl_->Point("begin");
      reorg_status_ = db_->reorganizer()->RunInternalPass();
    });
    ctrl_->Spawn("updater", [&] {
      ctrl_->Point("begin");
      uint64_t baseline = db_->side_file()->total_recorded();
      Transaction* txn = db_->Begin();
      ASSERT_NE(txn, nullptr);
      // Past the last survivor (~59990): appends into the rightmost leaf,
      // so the first split comes after a deterministic run of inserts and
      // never lowers a separator.
      uint64_t k = 100001;
      while (inserted_ < 4000) {
        updater_status_ =
            db_->tree()->Insert(txn, EncodeU64Key(k), std::string(64, 'u'));
        if (!updater_status_.ok()) break;
        ++inserted_;
        k += 2;
        // Done when our split retired through the side file (step-aside) or
        // the switch is over entirely (a roll-forward cleared the bit).
        if (db_->side_file()->total_recorded() != baseline) break;
        if (!db_->tree()->reorg_bit()) break;
      }
      if (updater_status_.ok()) {
        updater_status_ = db_->Commit(txn);
      } else {
        db_->Abort(txn);
      }
    });
    ctrl_->SetScript({"reorg", "updater", "reorg", "updater", "updater"});
    Status sched = ctrl_->Run();
    ASSERT_TRUE(sched.ok()) << sched.ToString() << "\n"
                            << ctrl_->TraceString();

    // Common to both protocols: the updater parked in the §7.4 window and
    // the detector victimized the reorganizer's old-tree X at least once.
    EXPECT_GE(ctrl_->TraceIndex("updater:wait:side-file/0:IX"), 0)
        << ctrl_->TraceString();
    EXPECT_GE(ctrl_->TraceIndex("reorg:deadlock:tree/" +
                                std::to_string(old_inc_) + ":X"),
              0)
        << ctrl_->TraceString();

    // The updater committed and no record was lost, whatever the switcher's
    // fate — its split retired either through the side file or through the
    // Busy redirect onto the new tree.
    ASSERT_TRUE(updater_status_.ok()) << updater_status_.ToString();
    EXPECT_GE(inserted_, 1u);
    EXPECT_EQ(CountRecords(), survivors_.size() + inserted_);
    EXPECT_TRUE(db_->tree()->CheckConsistency().ok());

    // Never half-switched: the flip happened, the new incarnation is live,
    // and the pass-3 machinery is fully dismantled.
    const SwitchStats& sws = db_->reorganizer()->switch_stats();
    EXPECT_TRUE(sws.root_flipped);
    EXPECT_EQ(db_->tree()->incarnation(), old_inc_ + 1);
    EXPECT_FALSE(db_->tree()->reorg_bit());
    EXPECT_TRUE(db_->side_file()->closed());
    EXPECT_EQ(db_->side_file()->size(), 0u);
  }

  std::vector<uint64_t> survivors_;
  std::unique_ptr<ScheduleController> ctrl_;
  uint64_t old_inc_ = 0;
  Status reorg_status_;
  Status updater_status_;
  uint64_t inserted_ = 0;
};

INSTANTIATE_TEST_SUITE_P(Stripes, SwitchStepAsideTest,
                         ::testing::Values(1, 16),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string("s").append(
                               std::to_string(info.param));
                         });

// The literal protocol deadlocks on this schedule — the wait round dies to
// the victim policy, and with no step-aside budget the switch fails
// TimedOut — and the failure must roll forward instead of stranding a
// half-switched tree.
TEST_P(SwitchStepAsideTest, LegacyProtocolDeadlocksAndRollsForward) {
  RunSwitchDrainSchedule(/*step_aside=*/false);

  ASSERT_TRUE(reorg_status_.IsTimedOut()) << reorg_status_.ToString();
  const SwitchStats& sws = db_->reorganizer()->switch_stats();
  EXPECT_TRUE(sws.rolled_forward);
  EXPECT_EQ(sws.step_asides, 0u);
  EXPECT_EQ(sws.old_tree_wait_rounds, 1u);  // the budget is spent at once
  EXPECT_GT(sws.old_pages_leaked, 0u);      // counted, not freed
  EXPECT_EQ(sws.old_pages_discarded, 0u);
  // The reorganizer never won the old-tree X.
  EXPECT_EQ(ctrl_->TraceIndex("reorg:granted:tree/" +
                              std::to_string(old_inc_) + ":X"),
            -1)
      << ctrl_->TraceString();

  // The rolled-forward tree is live: ordinary traffic proceeds on the new
  // incarnation with no reorg machinery in the way.
  ASSERT_TRUE(Put(999999, "post-roll-forward").ok());
  std::string v;
  ASSERT_TRUE(Get(999999, &v).ok());
  EXPECT_EQ(v, "post-roll-forward");
}

// The same schedule under the step-aside protocol: the switch completes, the
// parked updater's entry is recorded and re-verified as a no-op, and the old
// upper levels are reclaimed.
TEST_P(SwitchStepAsideTest, StepAsideConvertsDeadlockIntoCompletedSwitch) {
  RunSwitchDrainSchedule(/*step_aside=*/true);

  ASSERT_TRUE(reorg_status_.ok()) << reorg_status_.ToString() << "\n"
                                  << ctrl_->TraceString();
  const SwitchStats& sws = db_->reorganizer()->switch_stats();
  EXPECT_GE(sws.step_asides, 1u);
  EXPECT_GE(sws.step_aside_entries, 1u);
  EXPECT_FALSE(sws.rolled_forward);
  EXPECT_EQ(sws.old_pages_leaked, 0u);
  EXPECT_GT(sws.old_pages_discarded, 0u);
  // The updater's redirected split both recorded its entry and applied it
  // directly to the new tree, so the step-aside re-drain verified it as a
  // no-op — the drain-idempotency machinery under real concurrency.
  EXPECT_GE(db_->reorganizer()->stats().side_reapplied_noops, 1u);
  // This time the old-tree X was eventually granted (invariant (f): only
  // while the side-file X was held — the debug-build checker aborts
  // otherwise, so finishing at all is the assertion).
  EXPECT_GE(ctrl_->TraceIndex("reorg:granted:tree/" +
                              std::to_string(old_inc_) + ":X"),
            0)
      << ctrl_->TraceString();
}

// Drain idempotency as a property test, directly against TreeBuilder's
// ApplyEntry: a seq-tagged duplicate (step-aside re-drain) is skipped by the
// high-water mark; an untagged duplicate (seq 0, as restart re-tagging can
// produce) reaches BaseApply and must verify as a no-op; neither changes the
// new tree.
TEST_P(SwitchStepAsideTest, ReapplyingDrainedEntriesIsVerifiedNoOp) {
  BuildTallSparseTree();

  // Manual pass-3: run the builder to completion, then generate real side
  // entries by splitting leaves while the hook is live (all_read == true,
  // so every base-page change records).
  SideFile* side = db_->side_file();
  TreeBuilder builder(db_->reorganizer()->context(), side,
                      TreeBuilderOptions());
  side->Open();
  db_->tree()->set_base_update_hook(
      [&builder, side](Transaction* txn, BaseUpdateOp op, const Slice& key,
                       PageId leaf, PageId base) -> Status {
        (void)base;
        if (!builder.all_read()) {
          std::string ck = builder.CurrentKey();
          if (key.compare(ck) >= 0) return Status::OK();
        }
        return side->Record(txn, op, key, leaf);
      });
  db_->tree()->set_reorg_bit(true);
  ASSERT_TRUE(builder.Run().ok());
  ASSERT_TRUE(builder.all_read());

  uint64_t k = 200001;
  while (side->size() < 6) {
    ASSERT_TRUE(Put(k, std::string(64, 'v')).ok());
    k += 2;
  }

  std::vector<SideEntry> entries;
  for (;;) {
    SideEntry e;
    bool empty = false;
    Status s = side->PopFront(&e, &empty);
    if (s.IsBusy()) continue;
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (empty) break;
    entries.push_back(e);
  }
  ASSERT_GE(entries.size(), 6u);
  for (const SideEntry& e : entries) {
    ASSERT_EQ(e.op, BaseUpdateOp::kInsert);  // splits record inserts
    ASSERT_GT(e.seq, 0u);
  }

  const ReorgStats& st = db_->reorganizer()->stats();
  for (const SideEntry& e : entries) {
    ASSERT_TRUE(builder.ApplyEntry(e).ok());
  }
  uint64_t hwm = builder.applied_seq_hwm();
  EXPECT_EQ(hwm, entries.back().seq);
  uint64_t applied_once = st.side_entries_applied;

  BTree* nt = builder.new_tree();
  ASSERT_TRUE(nt->CheckConsistency().ok());
  BTreeStats before;
  ASSERT_TRUE(nt->ComputeStats(&before).ok());

  // Round 2: the whole batch again, seq tags intact — a step-aside re-drain
  // after a window in which nothing new was recorded. All skipped.
  uint64_t dup0 = st.side_duplicates_skipped;
  for (const SideEntry& e : entries) {
    ASSERT_TRUE(builder.ApplyEntry(e).ok());
  }
  EXPECT_EQ(st.side_duplicates_skipped, dup0 + entries.size());
  EXPECT_EQ(st.side_entries_applied, applied_once);
  EXPECT_EQ(builder.applied_seq_hwm(), hwm);

  // Round 3: untagged duplicates — the high-water mark cannot help, so each
  // must reach BaseApply and verify, under the base X lock, that the exact
  // (separator, leaf) is already present.
  uint64_t noop0 = st.side_reapplied_noops;
  for (SideEntry e : entries) {
    e.seq = 0;
    ASSERT_TRUE(builder.ApplyEntry(e).ok());
  }
  EXPECT_EQ(st.side_reapplied_noops, noop0 + entries.size());
  EXPECT_EQ(builder.applied_seq_hwm(), hwm);

  // A delete whose separator is already gone (never existed): NotFound is
  // "already in effect", not an error.
  SideEntry ghost;
  ghost.op = BaseUpdateOp::kDelete;
  ghost.key = EncodeU64Key(1);
  ghost.leaf = entries.front().leaf;
  ghost.seq = hwm + 1;
  uint64_t noop1 = st.side_reapplied_noops;
  ASSERT_TRUE(builder.ApplyEntry(ghost).ok());
  EXPECT_EQ(st.side_reapplied_noops, noop1 + 1);
  EXPECT_EQ(builder.applied_seq_hwm(), hwm + 1);

  // The tree is bit-for-bit unmoved by any of the re-applications.
  BTreeStats after;
  ASSERT_TRUE(nt->ComputeStats(&after).ok());
  EXPECT_EQ(after.records, before.records);
  EXPECT_EQ(after.leaf_pages, before.leaf_pages);
  EXPECT_EQ(after.internal_pages, before.internal_pages);
  ASSERT_TRUE(nt->CheckConsistency().ok());

  // Dismantle the manual pass-3 state (the old tree stays live; the new
  // upper levels are simply abandoned here).
  db_->tree()->set_base_update_hook(nullptr);
  db_->tree()->set_reorg_bit(false);
  side->Close();
  db_->reorg_table()->set_pass3(false, Slice(), kInvalidPageId);
}

}  // namespace
}  // namespace soreorg
