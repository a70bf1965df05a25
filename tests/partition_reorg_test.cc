// Reorganization-under-load across partitions: one partition runs the full
// three passes — with a forced step-aside window in the switch — while the
// executor keeps serving Gets on every partition. Reorganizing one partition
// must not touch the others' trees, and the usual tier-1 invariants hold on
// all of them afterwards.

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/db/partitioned_db.h"
#include "src/storage/env.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace soreorg {
namespace {

std::string Val(uint64_t i) { return "value-" + std::to_string(i * 3 + 1); }

TEST(PartitionReorgTest, GetsServedOnAllPartitionsWhilePartitionZeroReorgs) {
  MemEnv env;
  PartitionedDBOptions opts;
  opts.partitions = 4;
  opts.base.buffer_pool_pages = 512;
  opts.executor.workers = 2;
  // Force a deterministic step-aside round in partition 0's switch so the
  // release-reacquire window is part of the schedule, not a lucky race.
  opts.base.reorg.switcher.force_step_asides = 1;
  opts.base.reorg.switcher.step_aside_wait_ms = 25;
  std::unique_ptr<PartitionedDatabase> pdb;
  ASSERT_TRUE(PartitionedDatabase::Open(&env, opts, &pdb).ok());

  // Sparse load so pass 1 has real compaction work in every partition.
  std::vector<std::pair<std::string, std::string>> records;
  std::map<std::string, std::string> shadow;
  for (uint64_t i = 0; i < 6000; ++i) {
    std::string k = EncodeU64Key(i * 10);
    records.emplace_back(k, Val(i));
    shadow[k] = Val(i);
  }
  ASSERT_TRUE(pdb->BulkLoad(records, /*leaf_fill=*/0.5).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(900 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t i = rng.Uniform(6000);
        std::string key = EncodeU64Key(i * 10);
        std::string v;
        Status s = pdb->Get(key, &v);
        if (!s.ok() || v != Val(i)) failures.fetch_add(1);
        gets.fetch_add(1);
      }
    });
  }

  Status reorg = pdb->ReorganizePartition(0);
  stop.store(true);
  for (auto& r : readers) r.join();
  ASSERT_TRUE(reorg.ok()) << reorg.ToString();

  EXPECT_GT(gets.load(), 0u);
  EXPECT_EQ(0u, failures.load())
      << "every Get during the reorg must return the correct value";

  // The forced step-aside actually happened on partition 0's switch.
  EXPECT_GE(pdb->partition(0)->reorganizer()->switch_stats().step_asides, 1u);
  EXPECT_GT(pdb->partition(0)->reorganizer()->stats().units, 0u);

  // No cross-partition interference: the other reorganizers never ran a unit.
  for (size_t p = 1; p < 4; ++p) {
    EXPECT_EQ(0u, pdb->partition(p)->reorganizer()->stats().units)
        << "partition " << p << " was touched by partition 0's reorg";
  }

  // Tier-1 invariants on every partition, reorganized or not.
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(pdb->partition(p)->tree()->CheckConsistency().ok())
        << "partition " << p;
  }

  // The merged view still equals the shadow map record-for-record.
  auto it = shadow.begin();
  uint64_t seen = 0;
  ASSERT_TRUE(pdb->Scan(Slice(), Slice(),
                        [&](const Slice& k, const Slice& v) {
                          EXPECT_NE(shadow.end(), it);
                          EXPECT_EQ(it->first, k.ToString());
                          EXPECT_EQ(it->second, v.ToString());
                          ++it;
                          ++seen;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(shadow.size(), seen);

  // The serving path itself stayed clean: no deadline or shutdown failures.
  ExecutorStats ex = pdb->stats().executor;
  EXPECT_EQ(0u, ex.timed_out_queue_full);
  EXPECT_EQ(0u, ex.timed_out_unstarted);
  EXPECT_EQ(0u, ex.aborted_at_shutdown);
}

// Writes routed to a *different* partition proceed concurrently with the
// reorg and land durably; partition 0's switch never blocks them.
TEST(PartitionReorgTest, WritesToOtherPartitionsProceedDuringReorg) {
  MemEnv env;
  PartitionedDBOptions opts;
  opts.partitions = 4;
  opts.base.buffer_pool_pages = 512;
  opts.executor.workers = 2;
  opts.base.reorg.switcher.force_step_asides = 1;
  opts.base.reorg.switcher.step_aside_wait_ms = 25;
  std::unique_ptr<PartitionedDatabase> pdb;
  ASSERT_TRUE(PartitionedDatabase::Open(&env, opts, &pdb).ok());

  std::vector<std::pair<std::string, std::string>> records;
  for (uint64_t i = 0; i < 6000; ++i) {
    records.emplace_back(EncodeU64Key(i * 10), Val(i));
  }
  ASSERT_TRUE(pdb->BulkLoad(records, /*leaf_fill=*/0.5).ok());

  // Fresh keys (odd suffixes, disjoint from the load) that do NOT route to
  // partition 0.
  std::vector<std::string> fresh;
  for (uint64_t i = 0; fresh.size() < 300; ++i) {
    std::string k = EncodeU64Key(i * 10 + 7);
    if (pdb->PartitionOf(k) != 0) fresh.push_back(k);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> puts_done{0};
  std::atomic<uint64_t> put_failures{0};
  std::thread writer([&]() {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed) && i < fresh.size()) {
      if (!pdb->Put(fresh[i], "fresh").ok()) put_failures.fetch_add(1);
      puts_done.fetch_add(1);
      ++i;
    }
  });

  ASSERT_TRUE(pdb->ReorganizePartition(0).ok());
  stop.store(true);
  writer.join();

  EXPECT_GT(puts_done.load(), 0u);
  EXPECT_EQ(0u, put_failures.load());
  EXPECT_GE(pdb->partition(0)->reorganizer()->switch_stats().step_asides, 1u);

  // Every write that completed is durable and readable.
  for (uint64_t i = 0; i < puts_done.load(); ++i) {
    std::string v;
    ASSERT_TRUE(pdb->Get(fresh[i], &v).ok()) << "lost write " << i;
    EXPECT_EQ("fresh", v);
  }
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(pdb->partition(p)->tree()->CheckConsistency().ok());
  }
}

}  // namespace
}  // namespace soreorg
