// Multi-threaded consistency: readers, updaters and the reorganizer live
// together under the paper's protocols.

#include <atomic>
#include <thread>

#include "tests/test_util.h"

namespace soreorg {
namespace {

class ConcurrencyTest : public DbFixture {};

TEST_F(ConcurrencyTest, ParallelReadersSeeConsistentData) {
  for (int i = 0; i < 1000; ++i) {
    std::string v = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(Put(static_cast<uint64_t>(i), v).ok());
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(t + 1);
      for (int i = 0; i < 500; ++i) {
        uint64_t k = rng.Uniform(1000);
        std::string v;
        if (!db_->Get(EncodeU64Key(k), &v).ok() ||
            v != std::string("v").append(std::to_string(k))) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(ConcurrencyTest, ParallelDisjointWriters) {
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t]() {
      for (int i = 0; i < 300; ++i) {
        uint64_t k = static_cast<uint64_t>(t) * 1000000 +
                     static_cast<uint64_t>(i);
        if (!db_->Put(EncodeU64Key(k), std::string(64, 'w')).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(CountRecords(), 1200u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, MixedChurnStaysConsistent) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(Put(static_cast<uint64_t>(i) * 10, std::string(64, 'v')).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(t * 31 + 7);
      while (!stop.load()) {
        uint64_t slot = rng.Uniform(2000);
        int op = static_cast<int>(rng.Uniform(3));
        Status s;
        if (op == 0) {
          std::string v;
          s = db_->Get(EncodeU64Key(slot * 10), &v);
          if (!s.ok() && !s.IsNotFound()) ++unexpected;
        } else if (op == 1) {
          s = db_->Put(EncodeU64Key(slot * 10 + 1 + rng.Uniform(8)),
                       std::string(64, 'n'));
          if (!s.ok() && !s.IsInvalidArgument()) ++unexpected;
        } else {
          s = db_->Delete(EncodeU64Key(slot * 10));
          if (!s.ok() && !s.IsNotFound()) ++unexpected;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, ReadersRunDuringLeafPassViaBackoffProtocol) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 4000, 64, 0.95, 0.7, 10, 42,
                                 &survivors)
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(t + 11);
      while (!stop.load()) {
        uint64_t k = survivors[rng.Uniform(survivors.size())];
        std::string v;
        Status s = db_->Get(EncodeU64Key(k), &v);
        if (s.ok()) {
          ++reads;
        } else {
          ++errors;  // a missing survivor = lost record
        }
      }
    });
  }
  while (reads.load() == 0 && errors.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status s = db_->reorganizer()->RunLeafPass();
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(reads.load(), 100u);
  // (Whether the RX back-off path fires is timing-dependent here; its
  // deterministic coverage lives in lock_manager_test.)
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, UpdatersRunDuringFullReorganization) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 4000, 64, 0.95, 0.6, 10, 13,
                                 &survivors)
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::atomic<int> errors{0};
  std::thread updater([&]() {
    uint64_t k = 5;  // keys congruent 5 mod 10: never collide with slots
    while (!stop.load()) {
      Status s = db_->Put(EncodeU64Key(k), std::string(64, 'u'));
      if (s.ok()) {
        ++writes;
      } else if (!s.IsInvalidArgument()) {
        ++errors;
      }
      k += 10;
    }
  });
  while (writes.load() == 0 && errors.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status s = db_->Reorganize();
  stop.store(true);
  updater.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(writes.load(), 0u);
  EXPECT_TRUE(db_->tree()->CheckConsistency().ok());
  EXPECT_EQ(CountRecords(), survivors.size() + writes.load());
}

TEST_F(ConcurrencyTest, ScansOverlapReorganization) {
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db_.get(), 3000, 64, 0.95, 0.6, 10, 17,
                                 &survivors)
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<int> bad_scans{0};
  std::thread scanner([&]() {
    while (!stop.load()) {
      uint64_t prev = 0;
      bool first = true;
      bool ordered = true;
      db_->Scan(Slice(), Slice(), [&](const Slice& k, const Slice&) {
        uint64_t v = DecodeU64Key(k);
        if (!first && v <= prev) ordered = false;
        prev = v;
        first = false;
        return true;
      });
      if (!ordered) ++bad_scans;
    }
  });
  Status s = db_->Reorganize();
  stop.store(true);
  scanner.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(bad_scans.load(), 0);
}

}  // namespace
}  // namespace soreorg
