// Regression tests for the correctness subtleties found during
// implementation (DESIGN.md §6): separator exactness, side-file
// cancellation, and reorganization under adversarial interleavings.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "tests/test_util.h"

namespace soreorg {
namespace {

class ReorgRegressionTest : public DbFixture {};

TEST_F(ReorgRegressionTest, InsertBelowSeparatorLowersIt) {
  // Build a tree whose leftmost region starts at key 1000, then compact so
  // separators are rewritten, then insert keys below every separator.
  for (uint64_t k = 1000; k < 3000; ++k) {
    ASSERT_TRUE(Put(k, std::string(64, 'v')).ok());
  }
  for (uint64_t k = 1000; k < 3000; k += 2) {
    ASSERT_TRUE(Del(k).ok());
  }
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());

  // Keys below the previous global minimum and between compacted leaves.
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(Put(k, "below").ok());
  }
  ASSERT_TRUE(db_->tree()->CheckConsistency().ok());

  // The critical part: pass 3's flat rebuild must keep every key reachable
  // (this corrupted the tree before separator exactness was enforced).
  ASSERT_TRUE(db_->reorganizer()->RunInternalPass().ok());
  ASSERT_TRUE(db_->tree()->CheckConsistency().ok());
  for (uint64_t k = 0; k < 50; ++k) {
    std::string v;
    ASSERT_TRUE(Get(k, &v).ok()) << k;
    EXPECT_EQ(v, "below");
  }
}

TEST_F(ReorgRegressionTest, SeparatorExactnessHoldsTreeWide) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 3000, 64, 0.95, 0.6, 10, 3,
                                 &survivors)
                  .ok());
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    Put(rng.Uniform(3000) * 10 + 1 + rng.Uniform(8), "x");
  }
  // Every base entry's separator must be <= its leaf's first key.
  std::vector<PageId> bases;
  ASSERT_TRUE(db_->tree()->CollectBasePages(&bases).ok());
  for (PageId b : bases) {
    Page* bp;
    ASSERT_TRUE(db_->buffer_pool()->FetchPage(b, &bp).ok());
    InternalNode node(bp);
    for (int i = 0; i < node.Count(); ++i) {
      PageId leaf = node.ChildAt(i);
      std::string sep = node.KeyAt(i).ToString();
      Page* lp;
      ASSERT_TRUE(db_->buffer_pool()->FetchPage(leaf, &lp).ok());
      LeafNode ln(lp);
      if (ln.Count() > 0) {
        EXPECT_LE(Slice(sep).compare(ln.KeyAt(0)), 0)
            << "base " << b << " slot " << i;
      }
      db_->buffer_pool()->UnpinPage(leaf, false);
    }
    db_->buffer_pool()->UnpinPage(b, false);
  }
}

TEST_F(ReorgRegressionTest, AbortedSplitLeavesNoPhantomSideEntry) {
  // An insert transaction that splits a leaf during pass 3 and then aborts
  // must leave the side file without its entry.
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 4000, 64, 0.95, 0.5, 10, 7,
                                 &survivors)
                  .ok());
  // Install the pass-3 interception machinery without running the pass:
  // activate the bit and an always-record hook via a builder stand-in.
  db_->tree()->set_base_update_hook(
      [this](Transaction* txn, BaseUpdateOp op, const Slice& key, PageId leaf,
             PageId) { return db_->side_file()->Record(txn, op, key, leaf); });
  db_->tree()->set_base_update_cancel_hook(
      [this](Transaction* txn, BaseUpdateOp op, const Slice& key,
             PageId leaf) { db_->side_file()->Cancel(txn, op, key, leaf); });
  db_->tree()->set_reorg_bit(true);

  // Fill one leaf until a split happens inside an explicit txn, then abort.
  Transaction* txn = db_->Begin();
  uint64_t k = 5;
  int inserted = 0;
  while (db_->side_file()->size() == 0 && inserted < 200) {
    ASSERT_TRUE(db_->tree()->Insert(txn, EncodeU64Key(k), std::string(64, 'f'))
                    .ok());
    k += 10;
    ++inserted;
  }
  ASSERT_GT(db_->side_file()->size(), 0u);  // the split recorded its entry
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_EQ(db_->side_file()->size(), 0u)
      << "aborting the splitter must remove its side entry";
  db_->tree()->set_reorg_bit(false);
  db_->tree()->set_base_update_hook(nullptr);
  db_->tree()->set_base_update_cancel_hook(nullptr);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(ReorgRegressionTest, RepeatedFullReorganizationsUnderChurn) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 3000, 64, 0.95, 0.6, 10, 17,
                                 &survivors)
                  .ok());
  // CheckConsistency reads leaf slots without latches, so the churn parks
  // between two ops while the main thread checks: a handshake on `mu`.
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false, pause = false, parked = false;  // guarded by mu
  std::atomic<int> unexpected{0};
  std::thread churn([&]() {
    Random rng(23);
    std::unique_lock<std::mutex> lk(mu);
    while (!stop) {
      if (pause) {
        parked = true;
        cv.notify_all();
        cv.wait(lk, [&] { return !pause || stop; });
        parked = false;
        continue;
      }
      lk.unlock();
      uint64_t slot = rng.Uniform(3000);
      if (rng.Bernoulli(0.5)) {
        Status s = db_->Put(EncodeU64Key(slot * 10 + 1 + rng.Uniform(8)),
                            std::string(64, 'c'));
        if (!s.ok() && !s.IsInvalidArgument()) ++unexpected;
      } else {
        Status s = db_->Delete(EncodeU64Key(slot * 10));
        if (!s.ok() && !s.IsNotFound()) ++unexpected;
      }
      lk.lock();
    }
  });
  auto check_paused = [&]() {
    std::unique_lock<std::mutex> lk(mu);
    pause = true;
    cv.wait(lk, [&] { return parked; });
    Status s = db_->tree()->CheckConsistency();
    pause = false;
    cv.notify_all();
    return s;
  };
  Status s;
  int round = 0;
  for (; round < 3; ++round) {
    s = db_->Reorganize();
    if (s.ok()) s = check_paused();
    if (!s.ok()) break;
  }
  {
    std::lock_guard<std::mutex> g(mu);
    stop = true;
  }
  cv.notify_all();
  churn.join();  // before any ASSERT can return
  ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(ReorgRegressionTest, AgedDatabaseReorganizesFully) {
  AgingOptions aging;
  aging.n = 5000;
  aging.random_delete_frac = 0.6;  // survivors sparse enough to compact
  aging.churn_inserts = 800;
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(AgeDatabase(db_.get(), aging, &survivors).ok());
  EXPECT_GT(db_->disk_manager()->free_count(), 0u);  // holes exist
  BTreeStats before;
  ASSERT_TRUE(db_->tree()->ComputeStats(&before).ok());

  ASSERT_TRUE(db_->Reorganize().ok());
  BTreeStats after;
  ASSERT_TRUE(db_->tree()->ComputeStats(&after).ok());
  EXPECT_EQ(after.records, survivors.size());
  EXPECT_LT(after.leaf_pages, before.leaf_pages);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  for (size_t i = 0; i < survivors.size(); i += 11) {
    std::string v;
    EXPECT_TRUE(db_->Get(EncodeU64Key(survivors[i]), &v).ok());
  }
}

TEST_F(ReorgRegressionTest, CheckpointDuringLeafPassIsRecoverable) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 3000, 64, 0.95, 0.7, 10, 31,
                                 &survivors)
                  .ok());
  std::atomic<bool> stop{false};
  std::thread checkpointer([&]() {
    while (!stop.load()) {
      db_->Checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  stop.store(true);
  checkpointer.join();
  // The mid-pass checkpoints carried the reorganization table; a crash now
  // recovers from the latest one.
  ASSERT_TRUE(HardCrashAndReopen().ok());
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors.size());
}

TEST_F(ReorgRegressionTest, LowerSeparatorSurvivesCrash) {
  for (uint64_t k = 1000; k < 2000; ++k) {
    ASSERT_TRUE(Put(k, std::string(64, 'v')).ok());
  }
  for (uint64_t k = 1000; k < 2000; k += 2) {
    ASSERT_TRUE(Del(k).ok());
  }
  ASSERT_TRUE(db_->reorganizer()->RunLeafPass().ok());
  ASSERT_TRUE(Put(5, "low").ok());  // lowers a separator + inserts
  ASSERT_TRUE(HardCrashAndReopen().ok());
  std::string v;
  ASSERT_TRUE(Get(5, &v).ok());
  EXPECT_EQ(v, "low");
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
