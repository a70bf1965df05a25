#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/reorg/side_file.h"
#include "src/storage/env.h"

namespace soreorg {
namespace {

class SideFileTest : public ::testing::Test {
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

TEST_F(SideFileTest, RecordPopFifo) {
  Transaction txn(50);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "a", 10).ok());
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kDelete, "b", 11).ok());
  EXPECT_EQ(side_->size(), 2u);
  EXPECT_EQ(side_->total_recorded(), 2u);

  // PopFront respects record locks: the recording transaction must finish
  // before its entries can be consumed.
  locks_.ReleaseAll(50);

  SideEntry e;
  bool empty;
  ASSERT_TRUE(side_->PopFront(&e, &empty).ok());
  EXPECT_FALSE(empty);
  EXPECT_EQ(e.key, "a");
  EXPECT_EQ(e.op, BaseUpdateOp::kInsert);
  EXPECT_EQ(e.leaf, 10u);
  ASSERT_TRUE(side_->PopFront(&e, &empty).ok());
  EXPECT_EQ(e.key, "b");
  ASSERT_TRUE(side_->PopFront(&e, &empty).ok());
  EXPECT_TRUE(empty);
  locks_.ReleaseAll(50);
}

TEST_F(SideFileTest, RecordLogsUnderTransactionChain) {
  Transaction txn(51);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "k", 3).ok());
  EXPECT_NE(txn.last_lsn(), kInvalidLsn);
  ASSERT_TRUE(log_->Flush().ok());
  std::vector<LogRecord> recs;
  ASSERT_TRUE(log_->ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, LogType::kSideInsert);
  EXPECT_EQ(recs[0].txn_id, 51u);
  EXPECT_EQ(recs[0].key, "k");
  EXPECT_EQ(recs[0].page_id, 3u);
  locks_.ReleaseAll(51);
}

TEST_F(SideFileTest, SwitcherXLockMakesRecordReturnBusy) {
  // The switcher holds X on the side file. An updater's Record() must wait
  // (instant-duration IX) and then report kBusy so the caller retries on
  // the new tree.
  ASSERT_TRUE(locks_.Lock(kReorgTxnId, SideFileLock(), LockMode::kX).ok());
  std::atomic<bool> got_busy{false};
  std::thread updater([&]() {
    Transaction txn(60);
    Status s = side_->Record(&txn, BaseUpdateOp::kInsert, "z", 9);
    got_busy.store(s.IsBusy());
    locks_.ReleaseAll(60);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got_busy.load());  // still waiting
  locks_.ReleaseAll(kReorgTxnId);  // switch finishes
  updater.join();
  EXPECT_TRUE(got_busy.load());
  EXPECT_EQ(side_->size(), 0u);  // nothing recorded
}

TEST_F(SideFileTest, UpdaterIxBlocksSwitcherUntilCommit) {
  Transaction txn(61);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "k", 2).ok());
  // The updater's IX is held: the switcher's X must wait.
  EXPECT_TRUE(
      locks_.TryLock(kReorgTxnId, SideFileLock(), LockMode::kX).IsBusy());
  locks_.ReleaseAll(61);  // commit
  EXPECT_TRUE(locks_.Lock(kReorgTxnId, SideFileLock(), LockMode::kX).ok());
  locks_.ReleaseAll(kReorgTxnId);
}

TEST_F(SideFileTest, UndoInsertRemovesNewestMatch) {
  Transaction txn(62);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "k", 1).ok());
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kDelete, "k", 1).ok());
  side_->UndoInsert(BaseUpdateOp::kDelete, "k");
  EXPECT_EQ(side_->size(), 1u);
  locks_.ReleaseAll(62);
  SideEntry e;
  bool empty;
  ASSERT_TRUE(side_->PopFront(&e, &empty).ok());
  EXPECT_EQ(e.op, BaseUpdateOp::kInsert);
}

TEST_F(SideFileTest, SerializeRestoreRoundTrip) {
  Transaction txn(63);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "aa", 5).ok());
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kDelete, "bb", 6).ok());
  std::string image = side_->Serialize();
  locks_.ReleaseAll(63);

  SideFile other(&locks_, log_.get());
  ASSERT_TRUE(other.Restore(image).ok());
  EXPECT_EQ(other.size(), 2u);
  SideEntry e;
  bool empty;
  ASSERT_TRUE(other.PopFront(&e, &empty).ok());
  EXPECT_EQ(e.key, "aa");
  EXPECT_EQ(e.leaf, 5u);
}

TEST_F(SideFileTest, PruneBeyondDropsLateEntries) {
  Transaction txn(64);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "aaa", 1).ok());
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "mmm", 2).ok());
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "zzz", 3).ok());
  side_->PruneBeyond("mmm");
  EXPECT_EQ(side_->size(), 2u);  // "zzz" dropped
  locks_.ReleaseAll(64);
}

TEST_F(SideFileTest, PopWaitsForRecordingTransaction) {
  Transaction txn(70);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "q", 4).ok());
  std::atomic<bool> popped{false};
  std::thread builder([&]() {
    SideEntry e;
    bool empty;
    ASSERT_TRUE(side_->PopFront(&e, &empty).ok());
    EXPECT_FALSE(empty);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(popped.load());  // txn 70 still holds the record lock
  locks_.ReleaseAll(70);        // commit
  builder.join();
  EXPECT_TRUE(popped.load());
}

TEST_F(SideFileTest, CancelRemovesAndLogsCompensation) {
  Transaction txn(71);
  ASSERT_TRUE(side_->Record(&txn, BaseUpdateOp::kInsert, "z", 8).ok());
  side_->Cancel(&txn, BaseUpdateOp::kInsert, "z", 8);
  EXPECT_EQ(side_->size(), 0u);
  // Cancel of a non-recorded entry is a silent no-op (and logs nothing).
  uint64_t recs = log_->records_appended();
  side_->Cancel(&txn, BaseUpdateOp::kDelete, "nope", 9);
  EXPECT_EQ(log_->records_appended(), recs);
  ASSERT_TRUE(log_->Flush().ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(log_->ReadAll(&all).ok());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].type, LogType::kSideInsert);
  EXPECT_EQ(all[1].type, LogType::kSideCancel);
  locks_.ReleaseAll(71);
}

TEST_F(SideFileTest, RedoCancelAndReAddRoundTrip) {
  side_->RedoInsert(BaseUpdateOp::kInsert, "m", 3);
  side_->RedoCancel(BaseUpdateOp::kInsert, "m", 3);
  EXPECT_EQ(side_->size(), 0u);
  side_->ReAdd(BaseUpdateOp::kInsert, "m", 3);
  EXPECT_EQ(side_->size(), 1u);
}

}  // namespace
}  // namespace soreorg
