// Deterministic schedule harness tests: scripted and seeded interleavings
// over the lock manager, the side file's PopFront window, and the §7.4
// switch window. Each test replays, on demand, a race that stress loops hit
// only once in thousands of runs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/reorg/side_file.h"
#include "src/sim/schedule.h"
#include "src/storage/env.h"
#include "src/txn/lock_invariants.h"
#include "src/txn/lock_manager.h"
#include "src/util/random.h"

namespace soreorg {
namespace {

constexpr TxnId kT1 = 100, kT2 = 200;

// ---------------------------------------------------------------------------
// Harness mechanics
// ---------------------------------------------------------------------------

TEST(ScheduleTest, ScriptedStepsRunInScriptOrder) {
  ScheduleController ctrl;
  auto body = [&ctrl](const char* /*name*/) {
    ctrl.Point("begin");
    ctrl.Point("p1");
    ctrl.Point("p2");
  };
  ctrl.Spawn("a", [&] { body("a"); });
  ctrl.Spawn("b", [&] { body("b"); });
  ctrl.SetScript({"a", "b", "a", "b", "b", "a"});
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  std::vector<std::string> expected = {"a:begin", "b:begin", "a:p1", "b:p1",
                                       "b:p2",    "b:done",  "a:p2", "a:done"};
  ASSERT_EQ(ctrl.trace(), expected) << ctrl.TraceString();
}

TEST(ScheduleTest, ScriptNamingAbsentActorStallsInsteadOfHanging) {
  ScheduleController ctrl(ScheduleOptions{.seed = 1,
                                          .step_timeout_ms = 200,
                                          .settle_us = 1000});
  ctrl.Spawn("a", [&] { ctrl.Point("begin"); });
  ctrl.SetScript({"nobody"});
  Status s = ctrl.Run();
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(ctrl.TraceIndex("schedule:stall"), 0) << ctrl.TraceString();
}

TEST(ScheduleTest, SeededScheduleIsReproducible) {
  // Same seed, same actors => bit-identical traces. The bodies avoid lock
  // waits so the trace is a pure function of the grant sequence.
  auto run_once = [](uint64_t seed) {
    LockManager lm;
    ScheduleController ctrl(ScheduleOptions{.seed = seed,
                                            .step_timeout_ms = 10000,
                                            .settle_us = 2000});
    ctrl.InstallLockHooks(&lm);
    for (int i = 0; i < 3; ++i) {
      std::string name = std::string("w").append(std::to_string(i));
      TxnId id = 100 + static_cast<TxnId>(i);
      ctrl.Spawn(name, [&ctrl, &lm, id, i] {
        ctrl.Point("begin");
        // Distinct names per actor: no waits, so no wake-up transients.
        (void)lm.Lock(id, PageLock(10 + static_cast<uint32_t>(i)),
                      LockMode::kX);
        ctrl.Point("locked");
        lm.ReleaseAll(id);
        ctrl.Point("released");
      });
    }
    Status s = ctrl.Run();
    EXPECT_TRUE(s.ok()) << ctrl.TraceString();
    return ctrl.trace();
  };
  std::vector<std::string> t1 = run_once(42);
  std::vector<std::string> t2 = run_once(42);
  EXPECT_EQ(t1, t2);
}

TEST(ScheduleTest, FetchHookTracesPageAccesses) {
  MemEnv env;
  DiskManager disk(&env, "pages");
  ASSERT_TRUE(disk.Open().ok());
  BufferPool bp(&disk, 8);

  PageId pid = kInvalidPageId;
  Page* page = nullptr;
  ASSERT_TRUE(bp.NewPage(&pid, &page).ok());
  ASSERT_TRUE(bp.UnpinPage(pid, /*dirty=*/true).ok());

  ScheduleController ctrl;
  ctrl.InstallFetchHook(&bp);
  ctrl.Spawn("reader", [&] {
    ctrl.Point("begin");
    Page* p = nullptr;
    ASSERT_TRUE(bp.FetchPage(pid, &p).ok());
    ASSERT_TRUE(bp.UnpinPage(pid, false).ok());
  });
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();
  EXPECT_GE(ctrl.TraceIndex("reader:fetch:page/" + std::to_string(pid)), 0)
      << ctrl.TraceString();
}

// ---------------------------------------------------------------------------
// Scripted replay of the btree back-off path (§4.1.2): a reader that hits
// the reorganizer's RX lock must back off, wait via instant RS, and retry
// only after the reorganizer is gone.
// ---------------------------------------------------------------------------

// Runs against stripe counts {1, 2, 16}; the deterministic script plus the
// exact trace-index assertions below encode the pre-striping manager's
// behavior (stripe = 1 *is* that manager), so passing at every count proves
// the striped table is trace-equivalent on this schedule. A second test
// asserts the traces are literally identical across counts.
namespace {
std::vector<std::string> RunRxBackoffScript(size_t stripes) {
  LockManager lm{stripes};
  ScheduleController ctrl;
  ctrl.InstallLockHooks(&lm);

  LockName leaf = PageLock(5);
  Status s_read1, s_rs, s_read2;

  ctrl.Spawn("reorg", [&] {
    ctrl.Point("begin");
    ASSERT_TRUE(lm.Lock(kReorgTxnId, leaf, LockMode::kRX).ok());
    ctrl.Point("rx-held");
    lm.ReleaseAll(kReorgTxnId);
  });
  ctrl.Spawn("reader", [&] {
    ctrl.Point("begin");
    s_read1 = lm.Lock(kT1, leaf, LockMode::kS);
    ctrl.Point("backed-off");
    s_rs = lm.LockInstant(kT1, leaf, LockMode::kRS);
    s_read2 = lm.Lock(kT1, leaf, LockMode::kS);
    lm.ReleaseAll(kT1);
  });
  // reorg takes RX; reader backs off; reader then parks in its RS wait;
  // reorg releases; the reader's wait resolves and the retry succeeds.
  ctrl.SetScript({"reorg", "reader", "reader", "reorg"});
  EXPECT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  EXPECT_TRUE(s_read1.IsBackoff()) << s_read1.ToString();
  EXPECT_TRUE(s_rs.ok()) << s_rs.ToString();
  EXPECT_TRUE(s_read2.ok()) << s_read2.ToString();
  EXPECT_GE(lm.stats().backoffs, 1u);
  EXPECT_GE(lm.stats().instant_grants, 1u);

  int backoff = ctrl.TraceIndex("reader:backoff:page/5:S");
  int rs_wait = ctrl.TraceIndex("reader:wait:page/5:RS");
  int rs_done = ctrl.TraceIndex("reader:instant-granted:page/5:RS");
  int retry = ctrl.TraceIndex("reader:granted:page/5:S");
  EXPECT_GE(backoff, 0) << ctrl.TraceString();
  EXPECT_GE(rs_wait, 0) << ctrl.TraceString();
  EXPECT_GE(rs_done, 0) << ctrl.TraceString();
  EXPECT_GE(retry, 0) << ctrl.TraceString();
  EXPECT_LT(backoff, rs_wait);
  EXPECT_LT(rs_wait, rs_done);
  EXPECT_LT(rs_done, retry);
  EXPECT_EQ(lm.QueueCount(), 0u);  // nothing leaked by the replay
  return ctrl.trace();
}
}  // namespace

class StripedScheduleTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Stripes, StripedScheduleTest,
                         ::testing::Values(1, 2, 16),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string("s").append(
                               std::to_string(info.param));
                         });

TEST_P(StripedScheduleTest, ScriptedRxBackoffThenRsWaitReplay) {
  (void)RunRxBackoffScript(GetParam());
}

// The decisive stripe-equivalence check: the same deterministic schedule
// must yield a bit-identical lock-event trace at every stripe count —
// stripe 1 (the legacy single-mutex manager) is the reference.
TEST(ScheduleTest, RxBackoffTraceIdenticalAcrossStripeCounts) {
  std::vector<std::string> reference = RunRxBackoffScript(1);
  EXPECT_EQ(RunRxBackoffScript(2), reference);
  EXPECT_EQ(RunRxBackoffScript(16), reference);
}

// ---------------------------------------------------------------------------
// Side-file fixtures
// ---------------------------------------------------------------------------

class ScheduleSideFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    log_ = std::make_unique<LogManager>(env_.get(), "wal");
    ASSERT_TRUE(log_->Open().ok());
    side_ = std::make_unique<SideFile>(&locks_, log_.get());
  }

  std::unique_ptr<MemEnv> env_;
  LockManager locks_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<SideFile> side_;
};

// The PopFront ABA window, pinned exactly (§7.2): the reorganizer captures
// the front entry, waits out its recording transaction, and must then
// re-verify the front. Script: t1 records entry #1 and rolls it back while
// the reorganizer waits; t2 then records a *field-identical* entry #2 and is
// still in flight when the reorganizer resumes. Field-equality
// re-verification would pass and consume t2's uncommitted entry; the
// sequence-number check forces a second wait, and the pop lands only after
// t2 finishes.
TEST_F(ScheduleSideFileTest, PopFrontRechecksBySequenceNotFields) {
  ScheduleController ctrl;
  ctrl.InstallLockHooks(&locks_);
  // Pin the instant between the reorganizer's record-lock release and its
  // front re-verification — the ABA window itself.
  ctrl.SetLockPointPredicate(
      [](LockEvent e, const LockName& name, LockMode) {
        return e == LockEvent::kUnlock && name.space == LockSpace::kSideKey;
      });

  Status pop_status;
  SideEntry popped;
  bool empty = true;

  ctrl.Spawn("t1", [&] {
    ctrl.Point("begin");
    Transaction txn(kT1);
    ASSERT_TRUE(
        side_->Record(&txn, BaseUpdateOp::kInsert, "k", 7).ok());
    ctrl.Point("recorded");
    // Rollback: the entry is withdrawn and the record lock released.
    side_->UndoInsert(BaseUpdateOp::kInsert, "k");
    locks_.ReleaseAll(kT1);
  });
  ctrl.Spawn("t2", [&] {
    ctrl.Point("begin");
    Transaction txn(kT2);
    ASSERT_TRUE(
        side_->Record(&txn, BaseUpdateOp::kInsert, "k", 7).ok());
    ctrl.Point("recorded");
    locks_.ReleaseAll(kT2);
  });
  ctrl.Spawn("reorg", [&] {
    ctrl.Point("begin");
    pop_status = side_->PopFront(&popped, &empty);
    ctrl.Note("popped seq=" + std::to_string(popped.seq));
  });

  ctrl.SetScript({
      "t1",     // record entry #1 (seq 1), hold its key lock
      "reorg",  // capture front #1, park behind t1's key lock
      "t1",     // roll back #1, release -> reorg wakes, stops at ABA window
      "t2",     // record field-identical entry #2 (seq 2), still in flight
      "reorg",  // re-verify: seq mismatch -> re-wait behind t2
      "t2",     // t2 finishes, releases
      "reorg",  // second window point; re-verify passes, pop #2
  });
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  ASSERT_TRUE(pop_status.ok()) << pop_status.ToString();
  ASSERT_FALSE(empty);
  // The popped entry is t2's (seq 2), not the rolled-back seq-1 image.
  EXPECT_EQ(popped.seq, 2u) << ctrl.TraceString();
  EXPECT_EQ(popped.key, "k");
  EXPECT_EQ(side_->size(), 0u);

  // The decisive ordering: with field-equality re-verification the pop
  // would have happened inside the ABA window, *before* t2 released its
  // record lock. The seq check forces it after.
  int t2_release = ctrl.TraceIndex("t2:release-all");
  int pop = ctrl.TraceIndex("reorg:note:popped");
  ASSERT_GE(t2_release, 0) << ctrl.TraceString();
  ASSERT_GE(pop, 0) << ctrl.TraceString();
  EXPECT_LT(t2_release, pop) << ctrl.TraceString();

  // And the reorganizer really did take the key lock twice (two windows).
  int first_grant = ctrl.TraceIndex("reorg:granted:side-key");
  ASSERT_GE(first_grant, 0);
  EXPECT_GE(ctrl.TraceIndex("reorg:granted:side-key", first_grant + 1),
            first_grant + 1)
      << ctrl.TraceString();
}

// The §7.4 switch window: an updater that arrives while the switcher holds
// the side-file X lock must wait it out with an instant-duration IX and then
// be told to retry against the new tree (kBusy), holding nothing.
TEST_F(ScheduleSideFileTest, SwitchWindowUpdaterWaitsThenRetriesOnNewTree) {
  ScheduleController ctrl;
  ctrl.InstallLockHooks(&locks_);

  Status record_status;
  ctrl.Spawn("switcher", [&] {
    ctrl.Point("begin");
    ASSERT_TRUE(
        locks_.Lock(kReorgTxnId, SideFileLock(), LockMode::kX).ok());
    ctrl.Point("x-held");
    locks_.Unlock(kReorgTxnId, SideFileLock());
  });
  ctrl.Spawn("updater", [&] {
    ctrl.Point("begin");
    Transaction txn(kT1);
    record_status = side_->Record(&txn, BaseUpdateOp::kInsert, "u", 3);
    locks_.ReleaseAll(kT1);
  });
  // switcher takes X; updater's TryLock(IX) busies, its instant IX parks;
  // switcher releases; the updater's wait resolves into a retry verdict.
  ctrl.SetScript({"switcher", "updater", "switcher"});
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  EXPECT_TRUE(record_status.IsBusy()) << record_status.ToString();
  EXPECT_NE(record_status.message().find("retry on new tree"),
            std::string::npos)
      << record_status.ToString();
  // Nothing recorded, nothing held: the updater retries on the new tree.
  EXPECT_EQ(side_->size(), 0u);
  EXPECT_EQ(locks_.HeldCount(kT1), 0u);

  int busy = ctrl.TraceIndex("updater:busy:side-file/0:IX");
  int wait = ctrl.TraceIndex("updater:wait:side-file/0:IX");
  int resolved = ctrl.TraceIndex("updater:instant-granted:side-file/0:IX");
  ASSERT_GE(busy, 0) << ctrl.TraceString();
  ASSERT_GE(wait, 0) << ctrl.TraceString();
  ASSERT_GE(resolved, 0) << ctrl.TraceString();
  EXPECT_LT(busy, wait);
  EXPECT_LT(wait, resolved);
}

// ---------------------------------------------------------------------------
// Seeded storm: the harness + invariant checker as a protocol fuzzer.
// ---------------------------------------------------------------------------

TEST_P(StripedScheduleTest, SeededLockStormKeepsProtocolInvariants) {
  LockManager lm{GetParam()};
  LockInvariantChecker checker([](const LockViolation&) {});
  lm.SetInvariantChecker(&checker);

  ScheduleController ctrl(ScheduleOptions{.seed = 7,
                                          .step_timeout_ms = 10000,
                                          .settle_us = 2000});
  ctrl.InstallLockHooks(&lm);

  ctrl.Spawn("reorg", [&] {
    ctrl.Point("begin");
    Random rng(1);
    for (int i = 0; i < 15; ++i) {
      LockName base = PageLock(static_cast<uint32_t>(rng.Uniform(2)));
      if (lm.Lock(kReorgTxnId, base, LockMode::kR, 300).ok()) {
        (void)lm.Lock(kReorgTxnId, base, LockMode::kX, 300);
        (void)lm.Lock(kReorgTxnId, PageLock(50), LockMode::kRX, 300);
      }
      ctrl.Point("cycle");
      lm.ReleaseAll(kReorgTxnId);
    }
  });
  for (int u = 0; u < 2; ++u) {
    std::string name = "user" + std::to_string(u);
    TxnId id = 100 + static_cast<TxnId>(u);
    ctrl.Spawn(name, [&ctrl, &lm, id, u] {
      Random rng(10 + static_cast<uint64_t>(u));
      ctrl.Point("begin");
      for (int i = 0; i < 25; ++i) {
        LockName n = PageLock(static_cast<uint32_t>(rng.Uniform(2)));
        Status s = lm.Lock(
            id, n, rng.Bernoulli(0.5) ? LockMode::kS : LockMode::kX, 300);
        if (s.IsBackoff()) {
          (void)lm.LockInstant(id, n, LockMode::kRS, 300);
        } else if (s.ok() && i % 4 == 0) {
          (void)lm.Lock(id, PageLock(50), LockMode::kX, 100);
        }
        ctrl.Point("cycle");
        lm.ReleaseAll(id);
      }
    });
  }
  Status s = ctrl.Run();
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << ctrl.TraceString();

  lm.CheckInvariantsNow();
  EXPECT_EQ(checker.violations(), 0u)
      << (checker.recorded().empty()
              ? ""
              : checker.recorded()[0].invariant + ": " +
                    checker.recorded()[0].detail);
}

}  // namespace
}  // namespace soreorg
