// BTreeIterator behaviors: seek semantics, upper-bound hops across leaves
// and base pages, empty-leaf tolerance, and stability under concurrent
// structural change.

#include <thread>

#include "src/btree/iterator.h"
#include "tests/test_util.h"

namespace soreorg {
namespace {

class IteratorTest : public DbFixture {};

TEST_F(IteratorTest, SeekLandsOnLowerBound) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i) * 10, "v").ok());
  }
  BTreeIterator it(db_->tree(), nullptr);
  ASSERT_TRUE(it.Seek(EncodeU64Key(105)).ok());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(DecodeU64Key(it.key()), 110u);  // first key >= 105
  ASSERT_TRUE(it.Seek(EncodeU64Key(110)).ok());
  EXPECT_EQ(DecodeU64Key(it.key()), 110u);  // exact hit
}

TEST_F(IteratorTest, SeekPastEndIsInvalid) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), "v").ok());
  }
  BTreeIterator it(db_->tree(), nullptr);
  ASSERT_TRUE(it.Seek(EncodeU64Key(1000)).ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(IteratorTest, EmptyTreeIteratesNothing) {
  BTreeIterator it(db_->tree(), nullptr);
  ASSERT_TRUE(it.Seek(Slice()).ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(IteratorTest, FullIterationCrossesManyLeavesAndBasePages) {
  const int kN = 20000;  // multiple base pages => hops across them
  auto records = MakeRecords(kN, 64);
  ASSERT_TRUE(db_->BulkLoad(records, 0.9).ok());
  BTreeIterator it(db_->tree(), nullptr);
  ASSERT_TRUE(it.Seek(Slice()).ok());
  uint64_t n = 0, prev = 0;
  while (it.Valid()) {
    uint64_t k = DecodeU64Key(it.key());
    if (n > 0) {
      ASSERT_GT(k, prev);
    }
    prev = k;
    ++n;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(n, static_cast<uint64_t>(kN));
  EXPECT_GT(it.leaf_trail().size(), 300u);
}

TEST_F(IteratorTest, SkipsEmptyLeavesLeftByFailedUnlink) {
  // Force an empty leaf to remain linked: delete the only record of the
  // last leaf under the root when it is the single leaf (kept empty).
  ASSERT_TRUE(Put(1, "only").ok());
  ASSERT_TRUE(Del(1).ok());  // the last leaf is kept (empty)
  ASSERT_TRUE(Put(2, "two").ok());
  int count = 0;
  ASSERT_TRUE(db_->Scan(Slice(), Slice(),
                        [&](const Slice&, const Slice&) {
                          ++count;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST_F(IteratorTest, CursorStabilityUnderConcurrentReorganization) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 4000, 64, 0.95, 0.6, 10, 3,
                                 &survivors)
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread scanner([&]() {
    while (!stop.load()) {
      BTreeIterator it(db_->tree(), nullptr);
      if (!it.Seek(Slice()).ok()) continue;
      uint64_t prev = 0;
      bool first = true;
      while (it.Valid()) {
        uint64_t k = DecodeU64Key(it.key());
        if (!first && k <= prev) {
          ++bad;
          break;
        }
        prev = k;
        first = false;
        if (!it.Next().ok()) break;
      }
    }
  });
  ASSERT_TRUE(db_->Reorganize().ok());
  stop.store(true);
  scanner.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(IteratorTest, TransactionalIteratorUsesTxnLockOwner) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), "v").ok());
  }
  Transaction* txn = db_->Begin();
  {
    BTreeIterator it(db_->tree(), txn);
    ASSERT_TRUE(it.Seek(Slice()).ok());
    int n = 0;
    while (it.Valid() && n < 50) {
      ++n;
      ASSERT_TRUE(it.Next().ok());
    }
    EXPECT_EQ(n, 50);
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
}

}  // namespace
}  // namespace soreorg
