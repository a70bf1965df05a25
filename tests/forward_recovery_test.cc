// Forward Recovery (§5.1) tests: a reorganization unit interrupted by a
// crash is FINISHED at restart, not rolled back — and the rollback policy
// (the conventional alternative) is validated as the E4 ablation.

#include <cstdio>

#include "tests/test_util.h"

namespace soreorg {
namespace {

class ForwardRecoveryTest : public DbFixture {
 protected:
  void SparsifyAndCheckpoint(uint64_t n = 2000, uint64_t seed = 42) {
    ASSERT_TRUE(SparsifyByDeletion(db_.get(), n, 64, 0.95, 0.7, 10, seed,
                                   &survivors_)
                    .ok());
    ASSERT_TRUE(db_->Checkpoint().ok());
  }

  /// Run the leaf pass with a crash injected at the n-th write-like op on
  /// the WAL; returns false if the pass finished before the crash fired.
  bool CrashDuringLeafPass(int wal_op_n) {
    env_->FailOpAfter(wal_op_n, "soreorg.wal", "");
    db_->reorganizer()->RunLeafPass();  // the status is the crash itself
    env_->Disarm();
    return env_->fault_fired();
  }

  std::vector<uint64_t> survivors_;
};

TEST_F(ForwardRecoveryTest, CrashMidUnitThenForwardCompletion) {
  SparsifyAndCheckpoint();
  ASSERT_TRUE(CrashDuringLeafPass(6));

  db_.reset();
  env_->Crash();
  ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());

  // The incomplete unit was finished: the reorganization table is closed,
  // the tree is consistent, and no record was lost.
  EXPECT_FALSE(db_->reorg_table()->has_open_unit());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors_.size());
  EXPECT_GE(db_->reorganizer()->stats().units_resumed, 0u);
}

TEST_F(ForwardRecoveryTest, SweepCrashPointsAcrossTheFirstUnits) {
  // Crash at every WAL write boundary through the first few units.
  int fired = 0;
  for (int crash_at = 2; crash_at <= 30; ++crash_at) {
    OpenDb(DatabaseOptions());
    SparsifyAndCheckpoint(1500, static_cast<uint64_t>(crash_at));
    if (!CrashDuringLeafPass(crash_at)) {
      continue;  // pass finished before this point; later points too
    }
    ++fired;
    db_.reset();
    env_->Crash();
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok())
        << "crash at " << crash_at;
    EXPECT_FALSE(db_->reorg_table()->has_open_unit())
        << "crash at " << crash_at;
    EXPECT_TRUE(db_->tree()->CheckConsistency().ok())
        << "crash at " << crash_at;
    EXPECT_EQ(CountRecords(), survivors_.size()) << "crash at " << crash_at;
  }
  std::fprintf(stderr, "[sweep] first-units fired=%d of 29\n", fired);
  EXPECT_GE(fired, 21);  // coverage floor: 21 of the 29 points land in the pass
}

TEST_F(ForwardRecoveryTest, ForwardRecoveryPreservesFinishedUnits) {
  SparsifyAndCheckpoint(3000);
  BTreeStats sparse;
  ASSERT_TRUE(db_->tree()->ComputeStats(&sparse).ok());

  // Let several units complete, then crash.
  ASSERT_TRUE(CrashDuringLeafPass(40));
  db_.reset();
  env_->Crash();
  ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());

  // Work done before the crash survives: LK advanced, and resuming the
  // pass only processes the remainder (it never re-compacts below LK).
  std::string lk = db_->reorg_table()->largest_finished_key();
  EXPECT_FALSE(lk.empty());
  BTreeStats after_recovery;
  ASSERT_TRUE(db_->tree()->ComputeStats(&after_recovery).ok());
  EXPECT_LT(after_recovery.leaf_pages, sparse.leaf_pages);

  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors_.size());
}

TEST_F(ForwardRecoveryTest, RollbackPolicyUndoesTheIncompleteUnit) {
  DatabaseOptions opts;
  opts.recovery_policy = RecoveryPolicy::kRollback;
  OpenDb(opts);
  SparsifyAndCheckpoint();
  ASSERT_TRUE(CrashDuringLeafPass(6));

  db_.reset();
  env_->Crash();
  ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());

  // Conventional recovery: the unit is gone (no open unit), consistency
  // holds, and no data was lost — but the unit's work was discarded.
  EXPECT_FALSE(db_->reorg_table()->has_open_unit());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors_.size());
}

TEST_F(ForwardRecoveryTest, RollbackPolicySweep) {
  int fired = 0;
  for (int crash_at = 3; crash_at <= 24; crash_at += 3) {
    DatabaseOptions opts;
    opts.recovery_policy = RecoveryPolicy::kRollback;
    OpenDb(opts);
    SparsifyAndCheckpoint(1500, static_cast<uint64_t>(crash_at) + 100);
    if (!CrashDuringLeafPass(crash_at)) continue;
    ++fired;
    db_.reset();
    env_->Crash();
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok())
        << "crash at " << crash_at;
    EXPECT_TRUE(db_->tree()->CheckConsistency().ok())
        << "crash at " << crash_at;
    EXPECT_EQ(CountRecords(), survivors_.size()) << "crash at " << crash_at;
  }
  std::fprintf(stderr, "[sweep] rollback fired=%d of 8\n", fired);
  EXPECT_GE(fired, 7);
}

TEST_F(ForwardRecoveryTest, CrashDuringSwapPassRecovers) {
  SparsifyAndCheckpoint(2500);
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());

  env_->FailOpAfter(4, "soreorg.wal", "");
  db_->reorganizer()->RunSwapPass();
  ASSERT_TRUE(env_->fault_fired());

  db_.reset();
  env_->Crash();
  ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
  EXPECT_FALSE(db_->reorg_table()->has_open_unit());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors_.size());
}

// A pass whose unit cannot make its END durable must say so: the WAL sync
// fault is the pass's result, not a success over a downed log.
TEST_F(ForwardRecoveryTest, WalSyncFailureInsideLeafPassIsReturned) {
  SparsifyAndCheckpoint();
  env_->FailOpAfter(1, "soreorg.wal", "sync");
  Status s = db_->reorganizer()->RunLeafPass();
  ASSERT_TRUE(env_->fault_fired());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_F(ForwardRecoveryTest, WalSyncFailureInsideSwapPassIsReturned) {
  SparsifyAndCheckpoint(2500);
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  env_->FailOpAfter(1, "soreorg.wal", "sync");
  Status s = db_->reorganizer()->RunSwapPass();
  ASSERT_TRUE(env_->fault_fired());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_F(ForwardRecoveryTest, CrashDuringPass3RestartsFromStableKey) {
  DatabaseOptions opts;
  opts.reorg.builder.stable_every = 1;
  OpenDb(opts);
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 8000, 64, 0.95, 0.75, 10, 11,
                                 &survivors_)
                  .ok());
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());

  // Crash partway through the internal-page build, at the page-file sync
  // of the first stable-point force write (this build makes only one).
  env_->FailOpAfter(1, "soreorg.pages", "sync");
  db_->reorganizer()->RunInternalPass();
  ASSERT_TRUE(env_->fault_fired());

  db_.reset();
  env_->Crash();
  ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors_.size());

  if (db_->pass3_pending()) {
    ASSERT_TRUE(db_->ResumeInternalPass().ok());
    EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
    EXPECT_EQ(CountRecords(), survivors_.size());
  }
}

// ---------------------------------------------------------------------------
// Whole-pass crash-point sweeps. Unlike the tests above (which crash at
// hand-picked WAL operations), these count the I/O points of one
// specific pass with a dry run and then crash at points across the whole
// pass — including every point of pass 3 and the switch, where the
// incarnation dichotomy must hold: a recovered incarnation above the
// pre-pass one means the new root is installed; an unchanged incarnation
// means the old root is. Either way the tree serves the full record set.
// ---------------------------------------------------------------------------

class FaultRecoveryTest : public ::testing::Test {
 protected:
  enum Pass { kLeaf = 0, kSwap = 1, kInternal = 2 };

  /// Fresh env + db with the sparse workload built, every pass *before*
  /// `pass` completed cleanly, and a checkpoint taken — the deterministic
  /// state each crash iteration restarts from.
  void BuildTo(Pass pass) {
    db_.reset();
    base_ = std::make_unique<MemEnv>();
    env_ = std::make_unique<FaultInjectionEnv>(base_.get());
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
    ASSERT_TRUE(SparsifyByDeletion(db_.get(), 1200, 48, 0.95, 0.7, 10, 7,
                                   &survivors_)
                    .ok());
    if (pass > kLeaf) {
      ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
    }
    if (pass > kSwap) {
      ASSERT_TRUE(db_->reorganizer()->RunSwapPass().ok());
    }
    ASSERT_TRUE(db_->Checkpoint().ok());
  }

  Status RunPass(Pass pass) {
    switch (pass) {
      case kLeaf:
        return db_->reorganizer()->RunLeafPass();
      case kSwap:
        return db_->reorganizer()->RunSwapPass();
      case kInternal:
        return db_->reorganizer()->RunInternalPass();
    }
    return Status::OK();
  }

  /// Dry run: how many write/append/sync ops does `pass` perform?
  int CountPoints(Pass pass) {
    BuildTo(pass);
    env_->ObserveOnly();
    Status s = RunPass(pass);
    EXPECT_TRUE(s.ok()) << s.ToString();
    int points = static_cast<int>(env_->ops_observed());
    env_->Disarm();
    return points;
  }

  uint64_t CountRecords() {
    uint64_t n = 0;
    db_->Scan(Slice(), Slice(), [&n](const Slice&, const Slice&) {
      ++n;
      return true;
    });
    return n;
  }

  void VerifyRecovered(int crash_at) {
    EXPECT_TRUE(db_->tree()->CheckConsistency().ok())
        << "crash at " << crash_at;
    EXPECT_EQ(CountRecords(), survivors_.size()) << "crash at " << crash_at;
  }

  /// Crash at ~12 points spread over `pass`, recover, verify.
  void SweepPass(Pass pass) {
    int points = CountPoints(pass);
    ASSERT_GT(points, 0);
    int stride = points > 12 ? points / 12 : 1;
    for (int i = 1; i <= points; i += stride) {
      BuildTo(pass);
      env_->FailOpAfter(i, "", "");
      RunPass(pass);  // dies at point i; the status is the crash itself
      ASSERT_TRUE(env_->fault_fired()) << "crash at " << i;
      db_.reset();
      env_->Crash();
      ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok())
          << "crash at " << i;
      VerifyRecovered(i);
    }
  }

  DatabaseOptions options_;
  std::unique_ptr<MemEnv> base_;
  std::unique_ptr<FaultInjectionEnv> env_;
  std::unique_ptr<Database> db_;
  std::vector<uint64_t> survivors_;
};

TEST_F(FaultRecoveryTest, LeafPassCrashPointSweep) { SweepPass(kLeaf); }

TEST_F(FaultRecoveryTest, SwapPassCrashPointSweep) { SweepPass(kSwap); }

TEST_F(FaultRecoveryTest, InternalPassAndSwitchIncarnationDichotomy) {
  int points = CountPoints(kInternal);
  ASSERT_GT(points, 0);

  int before_switch = 0;
  int after_switch = 0;
  for (int i = 1; i <= points; ++i) {
    BuildTo(kInternal);
    const PageId old_root = db_->tree()->root();
    const uint64_t old_inc = db_->tree()->incarnation();

    env_->FailOpAfter(i, "", "");
    RunPass(kInternal);
    ASSERT_TRUE(env_->fault_fired()) << "crash at " << i;
    db_.reset();
    env_->Crash();
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok())
        << "crash at " << i;

    // The switch is atomic-on-durable-state: either the switch record made
    // it to the durable log (new incarnation, new root) or it did not (old
    // incarnation, old root). Nothing in between.
    const uint64_t inc = db_->tree()->incarnation();
    if (inc > old_inc) {
      EXPECT_NE(db_->tree()->root(), old_root) << "crash at " << i;
      ++after_switch;
    } else {
      EXPECT_EQ(inc, old_inc) << "crash at " << i;
      EXPECT_EQ(db_->tree()->root(), old_root) << "crash at " << i;
      ++before_switch;
    }
    VerifyRecovered(i);

    // A pre-switch crash may leave pass 3 resumable; completing it must
    // still converge to a switched, consistent tree.
    if (db_->pass3_pending()) {
      ASSERT_TRUE(db_->ResumeInternalPass().ok()) << "crash at " << i;
      VerifyRecovered(i);
    }
  }
  // The sweep must actually have exercised both sides of the switch.
  EXPECT_GT(before_switch, 0);
  EXPECT_GT(after_switch, 0);
}

TEST_F(FaultRecoveryTest, TornWalTailSurfacesInRecoveryResult) {
  BuildTo(kLeaf);
  // A committed durable prefix...
  ASSERT_TRUE(db_->Put(EncodeU64Key(1), "durable").ok());
  // ...then the WAL batch write for the next commit tears mid-frame.
  env_->TearWriteAfter(1, ".wal", /*keep_bytes=*/5);
  EXPECT_FALSE(db_->Put(EncodeU64Key(2), "torn").ok());
  db_.reset();
  env_->Crash();

  ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
  // The torn tail is surfaced as forensics, not an error...
  EXPECT_TRUE(db_->recovery_result().wal_tail_torn);
  EXPECT_GT(db_->recovery_result().wal_bytes_dropped, 0u);
  EXPECT_EQ(db_->recovery_result().page_checksum_failures, 0u);
  // ...including the segment-level fields (ISSUE 10): the tear is in the
  // tail segment, redo visited at least one segment, and the per-thread
  // accounting matches the declared worker count.
  EXPECT_TRUE(db_->recovery_result().tail_segment_torn);
  EXPECT_GT(db_->recovery_result().segments_scanned, 0u);
  EXPECT_GE(db_->recovery_result().redo_threads_used, 1);
  EXPECT_EQ(db_->recovery_result().redo_records_per_thread.size(),
            static_cast<size_t>(db_->recovery_result().redo_threads_used));
  // ...and the durable prefix is intact while the torn commit is gone.
  std::string v;
  EXPECT_TRUE(db_->Get(EncodeU64Key(1), &v).ok());
  EXPECT_EQ(v, "durable");
  EXPECT_TRUE(db_->Get(EncodeU64Key(2), &v).IsNotFound());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
