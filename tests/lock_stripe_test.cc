// Striped lock table: sizing, the queue-leak regression, cross-stripe
// deadlock detection, per-waiter wakeup behaviour, and a multi-thread
// protocol stress run with the invariant checker engaged — all over stripe
// counts {1, 2, 16} (stripe = 1 is the legacy single-mutex manager).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/txn/lock_invariants.h"
#include "src/txn/lock_manager.h"

namespace soreorg {
namespace {

constexpr TxnId kT1 = 100, kT2 = 200, kT3 = 300;

TEST(LockStripeSizingTest, DefaultAndRounding) {
  EXPECT_EQ(LockManager{}.stripe_count(), LockManager::kDefaultStripes);
  EXPECT_EQ(LockManager{0}.stripe_count(), LockManager::kDefaultStripes);
  EXPECT_EQ(LockManager{1}.stripe_count(), 1u);
  EXPECT_EQ(LockManager{2}.stripe_count(), 2u);
  EXPECT_EQ(LockManager{3}.stripe_count(), 4u);  // rounded up to a power of 2
  EXPECT_EQ(LockManager{16}.stripe_count(), 16u);
  EXPECT_EQ(LockManager{5000}.stripe_count(), LockManager::kMaxStripes);
}

class LockStripeTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Stripes, LockStripeTest, ::testing::Values(1, 2, 16),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string("s").append(
                               std::to_string(info.param));
                         });

// The seed manager never erased an empty queue, so every name ever locked
// leaked one map node — a long churn run grew the table without bound.
TEST_P(LockStripeTest, EmptyQueuesAreErasedOnLastRelease) {
  LockManager lm{GetParam()};
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(lm.Lock(kT1, PageLock(i), LockMode::kX).ok());
    ASSERT_TRUE(lm.Unlock(kT1, PageLock(i)).ok());
  }
  EXPECT_EQ(lm.QueueCount(), 0u);

  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(lm.Lock(kT2, PageLock(i), LockMode::kS).ok());
  }
  EXPECT_EQ(lm.QueueCount(), 200u);
  lm.ReleaseAll(kT2);
  EXPECT_EQ(lm.QueueCount(), 0u);
}

// Request paths that never end up holding anything must not leave a node
// behind either: instant grants on fresh names, timeouts, and try-lock
// failures.
TEST_P(LockStripeTest, TransientRequestsLeaveNoQueueBehind) {
  LockManager lm{GetParam()};
  // Instant-duration request against an unlocked name.
  ASSERT_TRUE(lm.LockInstant(kT1, PageLock(7), LockMode::kRS).ok());
  EXPECT_EQ(lm.QueueCount(), 0u);

  // A timed-out waiter was the queue's only prospective user.
  ASSERT_TRUE(lm.Lock(kT1, PageLock(8), LockMode::kX).ok());
  EXPECT_TRUE(lm.Lock(kT2, PageLock(8), LockMode::kX, 30).IsTimedOut());
  EXPECT_EQ(lm.QueueCount(), 1u);  // only T1's held lock remains
  ASSERT_TRUE(lm.Unlock(kT1, PageLock(8)).ok());
  EXPECT_EQ(lm.QueueCount(), 0u);
}

// A cycle whose two names live in different stripes: detection must build
// the waits-for graph across stripes, and the victim must still follow the
// paper's policy.
TEST_P(LockStripeTest, CrossStripeDeadlockDetected) {
  LockManager lm{GetParam()};
  LockName a = PageLock(1), b = PageLock(2);
  ASSERT_TRUE(lm.Lock(kT1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(kT2, b, LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    if (lm.Lock(kT1, b, LockMode::kX).IsDeadlock()) ++deadlocks;
    lm.ReleaseAll(kT1);
  });
  std::thread t2([&] {
    if (lm.Lock(kT2, a, LockMode::kX).IsDeadlock()) ++deadlocks;
    lm.ReleaseAll(kT2);
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_EQ(lm.QueueCount(), 0u);
}

TEST_P(LockStripeTest, CrossStripeReorganizerIsAlwaysTheVictim) {
  LockManager lm{GetParam()};
  LockName a = PageLock(1), c = PageLock(3);
  ASSERT_TRUE(lm.Lock(kT1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Lock(kReorgTxnId, c, LockMode::kX).ok());

  std::atomic<bool> user_ok{false};
  std::atomic<bool> reorg_deadlocked{false};
  std::thread user([&] {
    Status s = lm.Lock(kT1, c, LockMode::kX);
    user_ok.store(s.ok());
    lm.ReleaseAll(kT1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread reorg([&] {
    Status s = lm.Lock(kReorgTxnId, a, LockMode::kX);
    reorg_deadlocked.store(s.IsDeadlock());
    lm.ReleaseAll(kReorgTxnId);
  });
  user.join();
  reorg.join();
  EXPECT_TRUE(reorg_deadlocked.load());
  EXPECT_TRUE(user_ok.load());
}

// Per-waiter wakeups: a waiter's departure must hand wake tokens to the
// FIFO followers it was blocking. T2 queues for X behind T1's S; T3's fresh
// S queues behind T2 (no overtaking). When T2 times out, T3 is compatible
// with the sole remaining holder and must be granted without any release.
TEST_P(LockStripeTest, TimedOutWaiterWakesBlockedFollower) {
  LockManager lm{GetParam()};
  LockName n = PageLock(4);
  ASSERT_TRUE(lm.Lock(kT1, n, LockMode::kS).ok());
  std::thread t2([&] {
    EXPECT_TRUE(lm.Lock(kT2, n, LockMode::kX, /*timeout_ms=*/80).IsTimedOut());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> t3_granted{false};
  std::thread t3([&] {
    ASSERT_TRUE(lm.Lock(kT3, n, LockMode::kS).ok());
    t3_granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(t3_granted.load());  // queued behind the waiting X
  t2.join();                        // T2 times out and departs
  t3.join();                        // ... which must wake T3
  EXPECT_TRUE(t3_granted.load());
  lm.ReleaseAll(kT1);
  lm.ReleaseAll(kT3);
}

// A conversion to RX past a queued waiter flips that waiter from "waiting"
// to "must back off"; the grant must deliver the wake token (the legacy
// manager's broadcast hid this case).
TEST_P(LockStripeTest, RxConversionWakesQueuedWaiterIntoBackoff) {
  LockManager lm{GetParam()};
  LockName leaf = PageLock(5);
  ASSERT_TRUE(lm.Lock(kReorgTxnId, leaf, LockMode::kX).ok());
  std::atomic<bool> backed_off{false};
  std::thread t1([&] {
    Status s = lm.Lock(kT1, leaf, LockMode::kS);
    backed_off.store(s.IsBackoff());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(backed_off.load());
  // X -> RX conversion (skip-queue priority) lands while T1 is queued.
  ASSERT_TRUE(lm.Lock(kReorgTxnId, leaf, LockMode::kRX).ok());
  t1.join();
  EXPECT_TRUE(backed_off.load());
  lm.ReleaseAll(kReorgTxnId);
}

// Multi-thread protocol stress with the invariant checker recording instead
// of aborting: disjoint and overlapping names, conversions, instant RS,
// release-all churn. Zero violations and an empty table at the end.
TEST_P(LockStripeTest, ConcurrentChurnKeepsInvariantsAndLeaksNothing) {
  LockManager lm{GetParam()};
  std::vector<LockViolation> violations;
  std::mutex vmu;
  LockInvariantChecker checker([&](const LockViolation& v) {
    std::lock_guard<std::mutex> g(vmu);
    violations.push_back(v);
  });
  lm.SetInvariantChecker(&checker);

  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnId txn = 1000 + t;
      for (int r = 0; r < kRounds; ++r) {
        uint32_t hot = static_cast<uint32_t>(r % 7);
        uint32_t cold = static_cast<uint32_t>(1000 + t * kRounds + r);
        if (lm.Lock(txn, PageLock(hot), LockMode::kS, 200).ok()) {
          (void)lm.Lock(txn, PageLock(cold), LockMode::kX, 200);
          if (r % 3 == 0) {
            // Conversion on the hot name; deadlock/timeout are legal outcomes.
            (void)lm.Lock(txn, PageLock(hot), LockMode::kX, 50);
          }
          if (r % 5 == 0) {
            (void)lm.LockInstant(txn, PageLock(hot), LockMode::kRS, 50);
          }
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  lm.CheckInvariantsNow();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: "
      << violations.front().invariant << ": " << violations.front().detail;
  EXPECT_EQ(lm.QueueCount(), 0u);
}

// Cross-stripe release-all bookkeeping: locks spread over many stripes are
// all dropped, and the held index (sharded by TxnId) ends empty.
TEST_P(LockStripeTest, ReleaseAllSpansStripes) {
  LockManager lm{GetParam()};
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(lm.Lock(kT1, PageLock(i), LockMode::kS).ok());
  }
  ASSERT_TRUE(lm.Lock(kT1, TreeLock(1), LockMode::kIS).ok());
  ASSERT_TRUE(lm.Lock(kT1, SideFileLock(), LockMode::kIX).ok());
  EXPECT_EQ(lm.HeldCount(kT1), 66u);
  lm.ReleaseAll(kT1);
  EXPECT_EQ(lm.HeldCount(kT1), 0u);
  EXPECT_EQ(lm.QueueCount(), 0u);
  EXPECT_TRUE(lm.TryLock(kT2, PageLock(13), LockMode::kX).ok());
}

}  // namespace
}  // namespace soreorg
