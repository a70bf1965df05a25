#include "tests/test_util.h"

namespace soreorg {
namespace {

TEST_F(DbFixture, PutGetDeleteAutoCommit) {
  ASSERT_TRUE(Put(1, "one").ok());
  ASSERT_TRUE(Put(2, "two").ok());
  std::string v;
  ASSERT_TRUE(Get(1, &v).ok());
  EXPECT_EQ(v, "one");
  ASSERT_TRUE(Del(1).ok());
  EXPECT_TRUE(Get(1, &v).IsNotFound());
  ASSERT_TRUE(Get(2, &v).ok());
}

TEST_F(DbFixture, ExplicitTransactionCommit) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->tree()->Insert(txn, EncodeU64Key(10), "ten").ok());
  ASSERT_TRUE(db_->tree()->Insert(txn, EncodeU64Key(11), "eleven").ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_EQ(CountRecords(), 2u);
}

TEST_F(DbFixture, ExplicitTransactionAbortRollsBack) {
  ASSERT_TRUE(Put(1, "keep").ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->tree()->Insert(txn, EncodeU64Key(2), "x").ok());
  ASSERT_TRUE(db_->tree()->Delete(txn, EncodeU64Key(1)).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  std::string v;
  ASSERT_TRUE(Get(1, &v).ok());
  EXPECT_EQ(v, "keep");
  EXPECT_TRUE(Get(2, &v).IsNotFound());
}

TEST_F(DbFixture, CommittedDataSurvivesCrash) {
  for (int i = 0; i < 200; ++i) {
    std::string v = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), v).ok());
  }
  ASSERT_TRUE(HardCrashAndReopen().ok());
  for (int i = 0; i < 200; ++i) {
    std::string v;
    ASSERT_TRUE(Get(static_cast<uint64_t>(i), &v).ok()) << i;
    EXPECT_EQ(v, std::string("v").append(std::to_string(i)));
  }
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(DbFixture, UncommittedTransactionRolledBackAtRecovery) {
  ASSERT_TRUE(Put(1, "committed").ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->tree()->Insert(txn, EncodeU64Key(2), "loser").ok());
  db_->log_manager()->Flush();  // the loser's records ARE durable
  // Crash without commit.
  ASSERT_TRUE(HardCrashAndReopen().ok());
  std::string v;
  ASSERT_TRUE(Get(1, &v).ok());
  EXPECT_TRUE(Get(2, &v).IsNotFound()) << "loser insert must be undone";
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(DbFixture, CheckpointShortensRecovery) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), "v").ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), "v").ok());
  }
  ASSERT_TRUE(HardCrashAndReopen().ok());
  EXPECT_EQ(CountRecords(), 120u);
  // Only the post-checkpoint tail was scanned.
  EXPECT_LT(db_->recovery_result().records_scanned, 100u);
}

TEST_F(DbFixture, BulkLoadProducesRequestedFill) {
  auto records = MakeRecords(5000, 64);
  ASSERT_TRUE(db_->BulkLoad(records, 0.45).ok());
  BTreeStats st;
  ASSERT_TRUE(db_->tree()->ComputeStats(&st).ok());
  EXPECT_EQ(st.records, 5000u);
  EXPECT_GT(st.avg_leaf_fill, 0.33);
  EXPECT_LT(st.avg_leaf_fill, 0.57);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  // Bulk load checkpointed: survives a crash.
  ASSERT_TRUE(HardCrashAndReopen().ok());
  EXPECT_EQ(CountRecords(), 5000u);
}

TEST_F(DbFixture, SparsifyByDeletionLeavesSparseTreeAndFreePages) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 4000, 64, 0.95, 0.7, 10, 42,
                                 &survivors)
                  .ok());
  BTreeStats st;
  ASSERT_TRUE(db_->tree()->ComputeStats(&st).ok());
  EXPECT_EQ(st.records, survivors.size());
  EXPECT_LT(st.avg_leaf_fill, 0.55);
  EXPECT_GT(db_->disk_manager()->free_count(), 0u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(DbFixture, FullReorganizeRoundTrip) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 4000, 64, 0.95, 0.7, 10, 42,
                                 &survivors)
                  .ok());
  BTreeStats before;
  ASSERT_TRUE(db_->tree()->ComputeStats(&before).ok());

  ASSERT_TRUE(db_->Reorganize().ok());

  BTreeStats after;
  ASSERT_TRUE(db_->tree()->ComputeStats(&after).ok());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(after.records, before.records);
  EXPECT_LT(after.leaf_pages, before.leaf_pages);
  EXPECT_GT(after.avg_leaf_fill, before.avg_leaf_fill);

  // Every surviving record is still readable.
  for (uint64_t k : survivors) {
    std::string v;
    ASSERT_TRUE(db_->Get(EncodeU64Key(k), &v).ok()) << k;
  }
}

TEST_F(DbFixture, ReorganizedTreeSurvivesCrash) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 3000, 64, 0.95, 0.6, 10, 1,
                                 &survivors)
                  .ok());
  ASSERT_TRUE(db_->Reorganize().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(HardCrashAndReopen().ok());
  EXPECT_EQ(CountRecords(), survivors.size());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
