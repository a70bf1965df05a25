#include <gtest/gtest.h>

#include <map>

#include "src/btree/btree.h"
#include "src/btree/bulk_builder.h"
#include "src/btree/iterator.h"
#include "src/storage/env.h"
#include "src/txn/txn_manager.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace soreorg {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(BTreeOptions()); }

  void Reset(BTreeOptions options) {
    tree_.reset();
    txn_mgr_.reset();
    bp_.reset();
    log_.reset();
    disk_.reset();
    env_ = std::make_unique<MemEnv>();
    disk_ = std::make_unique<DiskManager>(env_.get(), "pages");
    ASSERT_TRUE(disk_->Open().ok());
    log_ = std::make_unique<LogManager>(env_.get(), "wal");
    ASSERT_TRUE(log_->Open().ok());
    bp_ = std::make_unique<BufferPool>(disk_.get(), 512, [this](Lsn lsn) {
      return log_->FlushTo(lsn);
    });
    txn_mgr_ = std::make_unique<TransactionManager>(log_.get(), &locks_);
    tree_ = std::make_unique<BTree>(bp_.get(), log_.get(), &locks_, options);
    ASSERT_TRUE(tree_->Create().ok());
    BTree* t = tree_.get();
    txn_mgr_->set_undo_applier(
        [t](const LogRecord& rec, Transaction* txn) -> Status {
          if (rec.flags & kInternalCell) return Status::OK();
          return t->UndoRecordOp(txn, rec);
        });
  }

  Status Put(uint64_t key, const std::string& value) {
    Transaction* txn = txn_mgr_->Begin();
    Status s = tree_->Insert(txn, EncodeU64Key(key), value);
    if (s.ok()) return txn_mgr_->Commit(txn);
    txn_mgr_->Abort(txn);
    return s;
  }

  Status Del(uint64_t key) {
    Transaction* txn = txn_mgr_->Begin();
    Status s = tree_->Delete(txn, EncodeU64Key(key));
    if (s.ok()) return txn_mgr_->Commit(txn);
    txn_mgr_->Abort(txn);
    return s;
  }

  Status Get(uint64_t key, std::string* value) {
    return tree_->Get(nullptr, EncodeU64Key(key), value);
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> bp_;
  LockManager locks_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, CreateMakesHeightTwoTree) {
  EXPECT_EQ(tree_->height(), 2);
  BTreeStats st;
  ASSERT_TRUE(tree_->ComputeStats(&st).ok());
  EXPECT_EQ(st.leaf_pages, 1u);
  EXPECT_EQ(st.base_pages, 1u);
  EXPECT_EQ(st.records, 0u);
  EXPECT_TRUE(tree_->CheckConsistency().ok());
}

TEST_F(BTreeTest, InsertGetDeleteSingle) {
  ASSERT_TRUE(Put(42, "value-42").ok());
  std::string v;
  ASSERT_TRUE(Get(42, &v).ok());
  EXPECT_EQ(v, "value-42");
  EXPECT_TRUE(Get(43, &v).IsNotFound());
  ASSERT_TRUE(Del(42).ok());
  EXPECT_TRUE(Get(42, &v).IsNotFound());
  EXPECT_TRUE(Del(42).IsNotFound());
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(Put(1, "a").ok());
  EXPECT_TRUE(Put(1, "b").IsInvalidArgument());
  std::string v;
  ASSERT_TRUE(Get(1, &v).ok());
  EXPECT_EQ(v, "a");
}

TEST_F(BTreeTest, ManyInsertsCauseSplitsAndStayConsistent) {
  const int kN = 2000;
  std::string value(64, 'v');
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i) * 3, value).ok()) << i;
  }
  ASSERT_TRUE(tree_->CheckConsistency().ok());
  BTreeStats st;
  ASSERT_TRUE(tree_->ComputeStats(&st).ok());
  EXPECT_EQ(st.records, static_cast<uint64_t>(kN));
  EXPECT_GT(st.leaf_pages, 30u);
  EXPECT_GE(st.height, 2u);
  for (int i = 0; i < kN; ++i) {
    std::string v;
    ASSERT_TRUE(Get(static_cast<uint64_t>(i) * 3, &v).ok()) << i;
  }
}

TEST_F(BTreeTest, RandomOrderInsertsMatchModel) {
  Random rng(99);
  std::map<uint64_t, std::string> model;
  while (model.size() < 1500) {
    uint64_t k = rng.Uniform(1000000);
    std::string v = "v" + std::to_string(k);
    if (model.emplace(k, v).second) {
      ASSERT_TRUE(Put(k, v).ok());
    }
  }
  ASSERT_TRUE(tree_->CheckConsistency().ok());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(Get(k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
}

TEST_F(BTreeTest, UpdateInPlaceAndGrowing) {
  ASSERT_TRUE(Put(5, "short").ok());
  Transaction* txn = txn_mgr_->Begin();
  ASSERT_TRUE(tree_->Update(txn, EncodeU64Key(5), "other").ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  std::string v;
  ASSERT_TRUE(Get(5, &v).ok());
  EXPECT_EQ(v, "other");

  txn = txn_mgr_->Begin();
  std::string big(500, 'B');
  ASSERT_TRUE(tree_->Update(txn, EncodeU64Key(5), big).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  ASSERT_TRUE(Get(5, &v).ok());
  EXPECT_EQ(v, big);
  EXPECT_TRUE(tree_->CheckConsistency().ok());
}

TEST_F(BTreeTest, FreeAtEmptyDeallocatesDrainedLeaves) {
  const int kN = 1000;
  std::string value(64, 'v');
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), value).ok());
  }
  BTreeStats before;
  ASSERT_TRUE(tree_->ComputeStats(&before).ok());
  ASSERT_GT(before.leaf_pages, 10u);

  // Delete everything: free-at-empty should release almost all leaves.
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(Del(static_cast<uint64_t>(i)).ok()) << i;
  }
  BTreeStats after;
  ASSERT_TRUE(tree_->ComputeStats(&after).ok());
  EXPECT_EQ(after.records, 0u);
  EXPECT_LE(after.leaf_pages, 2u);  // at most the last kept-empty leaf
  EXPECT_GT(disk_->free_count(), before.leaf_pages / 2);
  EXPECT_TRUE(tree_->CheckConsistency().ok());
}

TEST_F(BTreeTest, PartialDeletesLeaveSparseLeaves) {
  // This is the paper's §2 scenario: no consolidation, so deleting most
  // records leaves many pages sparsely filled.
  const int kN = 2000;
  std::string value(64, 'v');
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), value).ok());
  }
  Random rng(7);
  for (int i = 0; i < kN; ++i) {
    if (rng.Bernoulli(0.7)) Del(static_cast<uint64_t>(i));
  }
  BTreeStats st;
  ASSERT_TRUE(tree_->ComputeStats(&st).ok());
  EXPECT_LT(st.avg_leaf_fill, 0.5);   // sparse
  EXPECT_GT(st.leaf_pages, 20u);      // but pages were NOT merged
  EXPECT_TRUE(tree_->CheckConsistency().ok());
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i) * 10, "v").ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_
                  ->Scan(nullptr, EncodeU64Key(1000), EncodeU64Key(2000),
                         [&](const Slice& k, const Slice&) {
                           seen.push_back(DecodeU64Key(k));
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), 101u);  // 1000,1010,...,2000
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1000 + 10 * i);
  }
}

TEST_F(BTreeTest, ScanEarlyStopAndEmptyRange) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), "v").ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_
                  ->Scan(nullptr, EncodeU64Key(0), EncodeU64Key(99),
                         [&](const Slice&, const Slice&) {
                           return ++count < 5;
                         })
                  .ok());
  EXPECT_EQ(count, 5);

  count = 0;
  ASSERT_TRUE(tree_
                  ->Scan(nullptr, EncodeU64Key(1000), EncodeU64Key(2000),
                         [&](const Slice&, const Slice&) {
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 0);
}

TEST_F(BTreeTest, IteratorTrailVisitsLeavesInKeyOrder) {
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  BTreeIterator it(tree_.get(), nullptr);
  ASSERT_TRUE(it.Seek(Slice()).ok());
  uint64_t prev = 0;
  bool first = true;
  uint64_t n = 0;
  while (it.Valid()) {
    uint64_t k = DecodeU64Key(it.key());
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
    ++n;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(n, 800u);
  EXPECT_GT(it.leaf_trail().size(), 5u);
}

TEST_F(BTreeTest, SidePointersChainMatchesKeyOrder) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  std::vector<PageId> leaves;
  ASSERT_TRUE(tree_->CollectLeaves(&leaves).ok());
  ASSERT_GT(leaves.size(), 2u);
  for (size_t i = 0; i < leaves.size(); ++i) {
    Page* page;
    ASSERT_TRUE(bp_->FetchPage(leaves[i], &page).ok());
    PageId want_prev = i > 0 ? leaves[i - 1] : kInvalidPageId;
    PageId want_next = i + 1 < leaves.size() ? leaves[i + 1] : kInvalidPageId;
    EXPECT_EQ(page->prev(), want_prev) << i;
    EXPECT_EQ(page->next(), want_next) << i;
    bp_->UnpinPage(leaves[i], false);
  }
}

TEST_F(BTreeTest, SidePointerModeNoneWorks) {
  Reset(BTreeOptions{.side_pointers = SidePointerMode::kNone});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  for (int i = 0; i < 600; i += 2) {
    ASSERT_TRUE(Del(static_cast<uint64_t>(i)).ok());
  }
  ASSERT_TRUE(tree_->CheckConsistency().ok());
  int count = 0;
  ASSERT_TRUE(tree_
                  ->Scan(nullptr, Slice(), Slice(),
                         [&](const Slice&, const Slice&) {
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 300);
}

TEST_F(BTreeTest, AbortUndoesInserts) {
  ASSERT_TRUE(Put(1, "keep").ok());
  Transaction* txn = txn_mgr_->Begin();
  ASSERT_TRUE(tree_->Insert(txn, EncodeU64Key(2), "drop").ok());
  ASSERT_TRUE(tree_->Insert(txn, EncodeU64Key(3), "drop").ok());
  ASSERT_TRUE(txn_mgr_->Abort(txn).ok());
  std::string v;
  EXPECT_TRUE(Get(1, &v).ok());
  EXPECT_TRUE(Get(2, &v).IsNotFound());
  EXPECT_TRUE(Get(3, &v).IsNotFound());
}

TEST_F(BTreeTest, AbortUndoesDeletesAndUpdates) {
  ASSERT_TRUE(Put(1, "original").ok());
  ASSERT_TRUE(Put(2, "second").ok());
  Transaction* txn = txn_mgr_->Begin();
  ASSERT_TRUE(tree_->Delete(txn, EncodeU64Key(1)).ok());
  ASSERT_TRUE(tree_->Update(txn, EncodeU64Key(2), "changed").ok());
  ASSERT_TRUE(txn_mgr_->Abort(txn).ok());
  std::string v;
  ASSERT_TRUE(Get(1, &v).ok());
  EXPECT_EQ(v, "original");
  ASSERT_TRUE(Get(2, &v).ok());
  EXPECT_EQ(v, "second");
}

TEST_F(BTreeTest, BasePageUtilities) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), std::string(64, 'v')).ok());
  }
  std::vector<PageId> bases;
  ASSERT_TRUE(tree_->CollectBasePages(&bases).ok());
  ASSERT_GE(bases.size(), 1u);

  // Base-level descents walk them all in order: the first from -infinity,
  // each next one from the previous page's upper bound.
  TxnId id = tree_->NewEphemeralId();
  std::string from;
  size_t count = 0;
  while (true) {
    BTree::Descent d{.access = BTree::Access::kShared, .stop_level = 1};
    ASSERT_TRUE(tree_->Descend(id, from, &d).ok());
    locks_.Unlock(id, PageLock(d.pid));
    ASSERT_LT(count, bases.size());
    EXPECT_EQ(d.pid, bases[count]);
    EXPECT_EQ(d.lo, from);
    ++count;
    if (d.hi.empty()) break;
    from = d.hi;
  }
  EXPECT_EQ(count, bases.size());

  // A base-level descent lands on the right base page for a key.
  BTree::Descent d{.access = BTree::Access::kShared,
                   .stop_level = 1,
                   .stop_mode = LockMode::kR};
  ASSERT_TRUE(tree_->Descend(id, EncodeU64Key(1500), &d).ok());
  Page* page;
  ASSERT_TRUE(bp_->FetchPage(d.pid, &page).ok());
  InternalNode node(page);
  EXPECT_GE(node.FindChildSlot(node.ChildAt(node.FindChild(
                EncodeU64Key(1500)))), 0);
  bp_->UnpinPage(d.pid, false);
  locks_.ReleaseAll(id);
}

TEST_F(BTreeTest, BaseApplyInsertAndRemove) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i) * 10, std::string(64, 'v')).ok());
  }
  // Fabricate a leaf and register it at the base level via BaseApply.
  PageId leaf_pid;
  Page* leaf_page;
  ASSERT_TRUE(bp_->NewPage(&leaf_pid, &leaf_page).ok());
  LeafNode::Format(leaf_page, leaf_pid);
  LeafNode ln(leaf_page);
  std::string key = EncodeU64Key(1501);
  ASSERT_TRUE(ln.Insert(key, "planted").ok());
  bp_->UnpinPage(leaf_pid, true);

  Transaction* txn = txn_mgr_->Begin();
  ASSERT_TRUE(
      tree_->BaseApply(txn, BaseUpdateOp::kInsert, key, leaf_pid).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(nullptr, key, &v).ok());
  EXPECT_EQ(v, "planted");

  txn = txn_mgr_->Begin();
  ASSERT_TRUE(
      tree_->BaseApply(txn, BaseUpdateOp::kDelete, key, leaf_pid).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  EXPECT_TRUE(tree_->Get(nullptr, key, &v).IsNotFound());
}

TEST(BulkBuilderTest, BuildsAtRequestedFill) {
  MemEnv env;
  DiskManager disk(&env, "pages");
  ASSERT_TRUE(disk.Open().ok());
  BufferPool bp(&disk, 512);

  BTreeOptions topt;
  BulkBuilder builder(&bp, topt, /*leaf_fill=*/0.5, /*internal_fill=*/0.9);
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(builder.Add(EncodeU64Key(i), std::string(64, 'v')).ok());
  }
  PageId root;
  uint8_t height;
  ASSERT_TRUE(builder.Finish(&root, &height).ok());
  ASSERT_GE(height, 2);

  LockManager locks;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  BTree tree(&bp, &log, &locks, topt);
  tree.Attach(root, height, 1);
  ASSERT_TRUE(tree.CheckConsistency().ok());
  BTreeStats st;
  ASSERT_TRUE(tree.ComputeStats(&st).ok());
  EXPECT_EQ(st.records, static_cast<uint64_t>(kN));
  EXPECT_GT(st.avg_leaf_fill, 0.38);
  EXPECT_LT(st.avg_leaf_fill, 0.62);
  std::string v;
  ASSERT_TRUE(tree.Get(nullptr, EncodeU64Key(kN / 2), &v).ok());
}

TEST(BulkBuilderTest, BulkLoadedLeavesAreDiskContiguous) {
  MemEnv env;
  DiskManager disk(&env, "pages");
  ASSERT_TRUE(disk.Open().ok());
  BufferPool bp(&disk, 512);
  BTreeOptions topt;
  BulkBuilder builder(&bp, topt, 0.9, 0.9);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(builder.Add(EncodeU64Key(i), std::string(64, 'v')).ok());
  }
  PageId root;
  uint8_t height;
  ASSERT_TRUE(builder.Finish(&root, &height).ok());
  LockManager locks;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  BTree tree(&bp, &log, &locks, topt);
  tree.Attach(root, height, 1);
  BTreeStats st;
  ASSERT_TRUE(tree.ComputeStats(&st).ok());
  // Leaves were allocated in key order; the only gaps are the occasional
  // internal-page allocation interleaved when a level page fills.
  EXPECT_GE(st.leaves_in_disk_order + 4, st.leaf_pages - 1);
}

}  // namespace
}  // namespace soreorg
