#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/storage/env.h"
#include "src/storage/fault_env.h"
#include "src/txn/txn_manager.h"

namespace soreorg {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    log_ = std::make_unique<LogManager>(env_.get(), "wal");
    ASSERT_TRUE(log_->Open().ok());
    mgr_ = std::make_unique<TransactionManager>(log_.get(), &locks_);
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<LogManager> log_;
  LockManager locks_;
  std::unique_ptr<TransactionManager> mgr_;
};

TEST_F(TxnTest, BeginAssignsIncreasingIds) {
  Transaction* a = mgr_->Begin();
  Transaction* b = mgr_->Begin();
  EXPECT_GE(a->id(), kFirstUserTxnId);
  EXPECT_GT(b->id(), a->id());
  mgr_->Forget(a);
  mgr_->Forget(b);
}

TEST_F(TxnTest, CommitWritesFlushedCommitRecordAndReleasesLocks) {
  Transaction* txn = mgr_->Begin();
  ASSERT_TRUE(locks_.Lock(txn->id(), PageLock(1), LockMode::kX).ok());
  TxnId id = txn->id();
  ASSERT_TRUE(mgr_->Commit(txn).ok());
  EXPECT_EQ(locks_.HeldCount(id), 0u);

  std::vector<LogRecord> recs;
  ASSERT_TRUE(log_->ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, LogType::kCommit);
  EXPECT_EQ(recs[0].txn_id, id);
  EXPECT_LT(recs[0].lsn, log_->FlushedLsn());  // durable at commit
}

// Concurrent commits ride the WAL's group-commit path: every commit record
// is durable at return, all locks are released, and N commits cost fewer
// fsyncs than the one-per-commit a serial run pays.
TEST_F(TxnTest, ConcurrentCommitsAreDurableAndShareFsyncs) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  // Open() itself fsyncs (segment-1 header); count only commit-path syncs.
  const uint64_t base_syncs = env_->sync_count();
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Transaction* txn = mgr_->Begin();
        ASSERT_TRUE(
            locks_
                .Lock(txn->id(),
                      PageLock(static_cast<uint32_t>(t * kPerThread + i)),
                      LockMode::kX)
                .ok());
        TxnId id = txn->id();
        ASSERT_TRUE(mgr_->Commit(txn).ok());
        EXPECT_EQ(locks_.HeldCount(id), 0u);
        ++committed;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(committed.load(), kThreads * kPerThread);

  // Every commit record survived and was durable when Commit returned.
  std::vector<LogRecord> recs;
  ASSERT_TRUE(log_->ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const auto& r : recs) {
    EXPECT_EQ(r.type, LogType::kCommit);
    EXPECT_LT(r.lsn, log_->FlushedLsn());
  }
  // Group commit: at most one fsync per commit, and the lock table ends
  // empty (the queue-leak fix).
  EXPECT_LE(env_->sync_count() - base_syncs,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(locks_.QueueCount(), 0u);
}

TEST_F(TxnTest, AbortWalksPrevLsnChainThroughApplier) {
  std::vector<std::string> undone;
  mgr_->set_undo_applier(
      [&](const LogRecord& rec, Transaction*) -> Status {
        undone.push_back(rec.key);
        return Status::OK();
      });

  Transaction* txn = mgr_->Begin();
  for (int i = 0; i < 3; ++i) {
    LogRecord rec;
    rec.type = LogType::kInsert;
    rec.txn_id = txn->id();
    rec.prev_lsn = txn->last_lsn();
    rec.key = std::string("k").append(std::to_string(i));
    log_->Append(&rec);
    txn->set_last_lsn(rec.lsn);
  }
  ASSERT_TRUE(mgr_->Abort(txn).ok());
  // Undo runs newest-first.
  ASSERT_EQ(undone.size(), 3u);
  EXPECT_EQ(undone[0], "k2");
  EXPECT_EQ(undone[1], "k1");
  EXPECT_EQ(undone[2], "k0");
  EXPECT_EQ(mgr_->aborts(), 1u);
}

TEST_F(TxnTest, AbortSkipsClrChains) {
  std::vector<std::string> undone;
  mgr_->set_undo_applier(
      [&](const LogRecord& rec, Transaction*) -> Status {
        undone.push_back(rec.key);
        return Status::OK();
      });
  Transaction* txn = mgr_->Begin();
  LogRecord a;
  a.type = LogType::kInsert;
  a.txn_id = txn->id();
  a.key = "a";
  log_->Append(&a);
  LogRecord b;
  b.type = LogType::kInsert;
  b.txn_id = txn->id();
  b.prev_lsn = a.lsn;
  b.key = "b";
  log_->Append(&b);
  // A CLR that says "b already undone; continue from a's prev (= none)".
  LogRecord clr;
  clr.type = LogType::kClr;
  clr.txn_id = txn->id();
  clr.prev_lsn = b.lsn;
  clr.lsn2 = a.lsn;  // undo-next: a
  log_->Append(&clr);
  txn->set_last_lsn(clr.lsn);

  ASSERT_TRUE(mgr_->Abort(txn).ok());
  ASSERT_EQ(undone.size(), 1u);  // only "a" — the CLR skipped "b"
  EXPECT_EQ(undone[0], "a");
}

// A transaction whose COMMIT (or ABORT) record cannot reach the WAL — the
// torture harness's simulated crash — must still vacate the lock table and
// the active set. Leaked locks from such a zombie have no waits-for cycle,
// so the deadlock detector never frees them and the next request for the
// same lock waits forever (this hung the step-aside crash-torture sweep).
TEST(TxnFaultTest, FailedCommitAndAbortStillReleaseLocks) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  LockManager locks;
  TransactionManager mgr(&log, &locks);

  Transaction* txn = mgr.Begin();
  TxnId id = txn->id();
  ASSERT_TRUE(locks.Lock(id, PageLock(1), LockMode::kX).ok());
  env.FailOpAfter(1, "", "");  // next WAL touch crashes, sticky
  ASSERT_FALSE(mgr.Commit(txn).ok());
  EXPECT_EQ(locks.HeldCount(id), 0u);
  EXPECT_TRUE(mgr.ActiveSnapshot().empty());

  env.Disarm();
  Transaction* txn2 = mgr.Begin();
  TxnId id2 = txn2->id();
  ASSERT_TRUE(locks.Lock(id2, PageLock(1), LockMode::kX).ok());
  env.FailOpAfter(1, "", "");
  ASSERT_FALSE(mgr.Abort(txn2).ok());
  EXPECT_EQ(locks.HeldCount(id2), 0u);
  EXPECT_TRUE(mgr.ActiveSnapshot().empty());

  env.Disarm();
  Transaction* txn3 = mgr.Begin();
  TxnId id3 = txn3->id();
  EXPECT_TRUE(locks.Lock(id3, PageLock(1), LockMode::kX).ok());  // reacquirable
  mgr.Forget(txn3);  // destroys txn3
  locks.ReleaseAll(id3);
}

TEST_F(TxnTest, ActiveSnapshotTracksLiveTransactions) {
  Transaction* a = mgr_->Begin();
  Transaction* b = mgr_->Begin();
  a->set_last_lsn(11);
  b->set_last_lsn(22);
  auto snap = mgr_->ActiveSnapshot();
  EXPECT_EQ(snap.size(), 2u);
  ASSERT_TRUE(mgr_->Commit(a).ok());
  snap = mgr_->ActiveSnapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, b->id());
  EXPECT_EQ(snap[0].second, 22u);
  ASSERT_TRUE(mgr_->Commit(b).ok());
  EXPECT_TRUE(mgr_->ActiveSnapshot().empty());
}

TEST_F(TxnTest, RestoreNextTxnIdOnlyMovesForward) {
  mgr_->RestoreNextTxnId(500);
  Transaction* a = mgr_->Begin();
  EXPECT_GE(a->id(), 500u);
  mgr_->RestoreNextTxnId(10);  // must not go backwards
  Transaction* b = mgr_->Begin();
  EXPECT_GT(b->id(), a->id());
  mgr_->Forget(a);
  mgr_->Forget(b);
}

}  // namespace
}  // namespace soreorg
