// Redo / undo recovery tests (the standard ARIES-lite part).

#include <functional>

#include "src/reorg/reorg_log.h"
#include "tests/test_util.h"

namespace soreorg {
namespace {

class RecoveryTest : public DbFixture {};

TEST_F(RecoveryTest, FreshDatabaseOpensEmpty) {
  EXPECT_EQ(CountRecords(), 0u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(RecoveryTest, RedoRebuildsSplitsAfterCrash) {
  // Enough inserts to force leaf and internal splits, none checkpointed.
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  BTreeStats before;
  ASSERT_TRUE(db_->tree()->ComputeStats(&before).ok());
  ASSERT_GT(before.leaf_pages, 10u);

  ASSERT_TRUE(HardCrashAndReopen().ok());
  BTreeStats after;
  ASSERT_TRUE(db_->tree()->ComputeStats(&after).ok());
  EXPECT_EQ(after.records, before.records);
  EXPECT_EQ(after.leaf_pages, before.leaf_pages);
  EXPECT_EQ(after.height, before.height);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(RecoveryTest, RedoRebuildsFreeAtEmptyAfterCrash) {
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Del(static_cast<uint64_t>(i)).ok());
  }
  ASSERT_TRUE(HardCrashAndReopen().ok());
  EXPECT_EQ(CountRecords(), 0u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(RecoveryTest, RedoIsIdempotentAcrossDoubleCrash) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), "v").ok());
  }
  ASSERT_TRUE(HardCrashAndReopen().ok());
  ASSERT_TRUE(HardCrashAndReopen().ok());  // recover twice
  EXPECT_EQ(CountRecords(), 500u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(RecoveryTest, MultipleLosersAllRolledBack) {
  // Spread records over many leaves so the two in-flight transactions hold
  // X locks on disjoint leaves (strict 2PL would otherwise serialize them).
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i) * 100, std::string(64, 'v')).ok());
  }
  Transaction* t1 = db_->Begin();
  Transaction* t2 = db_->Begin();
  ASSERT_TRUE(db_->tree()->Insert(t1, EncodeU64Key(105), "l1").ok());
  ASSERT_TRUE(db_->tree()->Insert(t2, EncodeU64Key(70005), "l2").ok());
  ASSERT_TRUE(db_->tree()->Delete(t1, EncodeU64Key(200)).ok());
  db_->log_manager()->Flush();
  ASSERT_TRUE(HardCrashAndReopen().ok());

  std::string v;
  ASSERT_TRUE(Get(200, &v).ok());  // loser delete undone
  EXPECT_TRUE(Get(105, &v).IsNotFound());
  EXPECT_TRUE(Get(70005, &v).IsNotFound());
  EXPECT_EQ(db_->recovery_result().losers.size(), 2u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(RecoveryTest, CommittedAfterCheckpointStillRedone) {
  ASSERT_TRUE(Put(1, "pre").ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(Put(2, "post").ok());
  ASSERT_TRUE(HardCrashAndReopen().ok());
  std::string v;
  ASSERT_TRUE(Get(1, &v).ok());
  ASSERT_TRUE(Get(2, &v).ok());
  EXPECT_EQ(v, "post");
}

TEST_F(RecoveryTest, AllocationStateRecovered) {
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Del(static_cast<uint64_t>(i)).ok());
  }
  PageId next_before = db_->disk_manager()->page_count();
  size_t free_before = db_->disk_manager()->free_count();
  ASSERT_TRUE(HardCrashAndReopen().ok());
  EXPECT_EQ(db_->disk_manager()->page_count(), next_before);
  EXPECT_EQ(db_->disk_manager()->free_count(), free_before);
  // New allocations don't collide with live pages.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        Put(static_cast<uint64_t>(100000 + i), std::string(64, 'n')).ok());
  }
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(RecoveryTest, ReplayedAllocationFarPastTheFileEndIsCorruption) {
  ASSERT_TRUE(Put(1, "v").ok());
  // Replaying this ALLOC would put a million never-used page ids into the
  // free set; no log of a few records can have grown the file that far.
  LogRecord alloc;
  alloc.type = LogType::kAllocPage;
  alloc.txn_id = kReorgTxnId;
  alloc.page_id = db_->disk_manager()->page_count() + 1000000;
  ASSERT_TRUE(db_->log_manager()->AppendAndFlush(&alloc).ok());
  Status s = HardCrashAndReopen();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(RecoveryTest, KeysOnlyMoveThatAStaleSourceCannotSupplyIsCorruption) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  std::vector<PageId> leaves;
  ASSERT_TRUE(db_->tree()->CollectLeaves(&leaves).ok());
  ASSERT_GE(leaves.size(), 2u);
  // A keys-only MOVE is redone by copying each record from the source: if
  // both pages predate the MOVE, the source must hold every key it names.
  LogRecord move;
  move.type = LogType::kReorgMove;
  move.txn_id = kReorgTxnId;
  move.flags = kMoveKeysOnly;
  move.page_id = leaves[0];
  move.page_id2 = leaves[1];
  move.payload = EncodeMovedKeys({EncodeU64Key(999999)});
  ASSERT_TRUE(db_->log_manager()->AppendAndFlush(&move).ok());
  Status s = HardCrashAndReopen();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(RecoveryTest, CrashDuringHeavyChurnAtEveryTenthWalWrite) {
  // Property-style sweep: crash at several WAL write points during churn
  // and verify consistency + committed-data durability each time.
  for (int crash_at = 5; crash_at <= 45; crash_at += 10) {
    OpenDb(DatabaseOptions());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(Put(static_cast<uint64_t>(i), "base").ok());
    }
    ASSERT_TRUE(db_->Checkpoint().ok());

    env_->FailOpAfter(crash_at, "soreorg.wal", "");
    // Churn until the injected crash fires.
    for (int i = 0; i < 10000 && !env_->fault_fired(); ++i) {
      uint64_t k = static_cast<uint64_t>(1000 + i);
      db_->Put(EncodeU64Key(k), "churn");
    }
    ASSERT_TRUE(env_->fault_fired()) << "crash point " << crash_at;
    db_.reset();
    env_->Crash();
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok())
        << "crash point " << crash_at;
    EXPECT_TRUE(db_->tree()->CheckConsistency().ok())
        << "crash point " << crash_at;
    // The checkpointed base records are all present.
    for (int i = 0; i < 100; ++i) {
      std::string v;
      EXPECT_TRUE(Get(static_cast<uint64_t>(i), &v).ok())
          << "crash point " << crash_at << " key " << i;
    }
  }
}

// LogManager::Append cannot fail: once a record has an LSN it is in the log,
// so the operation that logged it must not report a failure. With a 1-byte
// buffer cap every Append flushes, and a transient fault on the first WAL
// write (or sync) after the operation starts fails that flush. Whatever the
// operation returns, Get must agree with it — in memory and after a restart
// from durable state.
class AppendFaultTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    options_.log_buffer_bytes = 1;
    env_ = std::make_unique<FaultInjectionEnv>(&base_);
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
  }

  /// Runs `op` under the armed fault. `key` must then read `after` if the op
  /// succeeded and `before` if it failed ("" = absent).
  void RunAndCheck(const std::function<Status()>& op, const std::string& before,
                   const std::string& after) {
    env_->FailOpAfter(1, ".wal", GetParam(), /*transient=*/true);
    Status s = op();
    ASSERT_TRUE(env_->fault_fired());
    const std::string& want = s.ok() ? after : before;
    ExpectReads(want, s);
    env_->FailOpAfter(1, "", "");  // the close may make nothing durable
    db_.reset();
    env_->Crash();
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
    ExpectReads(want, s);
  }

  void ExpectReads(const std::string& want, const Status& op) {
    std::string v;
    Status g = db_->Get(key_, &v);
    if (want.empty()) {
      EXPECT_TRUE(g.IsNotFound()) << "op: " << op.ToString() << ", read " << v;
    } else {
      ASSERT_TRUE(g.ok()) << "op: " << op.ToString() << ", Get: "
                          << g.ToString();
      EXPECT_EQ(v, want) << "op: " << op.ToString();
    }
  }

  MemEnv base_;
  std::unique_ptr<FaultInjectionEnv> env_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  const std::string key_ = EncodeU64Key(7);
};

INSTANTIATE_TEST_SUITE_P(WalOp, AppendFaultTest,
                         ::testing::Values("write", "sync"));

TEST_P(AppendFaultTest, PutStatusAgreesWithReads) {
  RunAndCheck([&] { return db_->Put(key_, "v1"); }, "", "v1");
}

TEST_P(AppendFaultTest, UpdateStatusAgreesWithReads) {
  ASSERT_TRUE(db_->Put(key_, "v0").ok());
  RunAndCheck([&] { return db_->Update(key_, "v1"); }, "v0", "v1");
}

TEST_P(AppendFaultTest, DeleteStatusAgreesWithReads) {
  ASSERT_TRUE(db_->Put(key_, "v0").ok());
  RunAndCheck([&] { return db_->Delete(key_); }, "v0", "");
}

}  // namespace
}  // namespace soreorg
