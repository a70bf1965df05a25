// Simulation-layer tests: disk cost model and workload generators.

#include "src/sim/disk_model.h"
#include "tests/test_util.h"

namespace soreorg {
namespace {

TEST(DiskModelTest, SequentialIsCheaperThanRandom) {
  DiskModel seq_model;
  for (PageId p = 0; p < 100; ++p) seq_model.OnAccess(p, false);
  DiskModel rnd_model;
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    rnd_model.OnAccess(static_cast<PageId>(rng.Uniform(100000)), false);
  }
  EXPECT_LT(seq_model.stats().total_ms * 5, rnd_model.stats().total_ms);
  EXPECT_EQ(seq_model.stats().sequential, 99u);
  EXPECT_GT(rnd_model.stats().random, 90u);
}

TEST(DiskModelTest, NearSeeksAreIntermediate) {
  DiskModelOptions opts;
  DiskModel m(opts);
  m.OnAccess(100, false);
  m.OnAccess(104, false);  // near
  auto st = m.stats();
  EXPECT_EQ(st.near, 1u);
  EXPECT_LT(st.total_ms, 2 * (opts.seek_ms + opts.half_rotation_ms));
}

TEST(DiskModelTest, AttachObservesDatabaseIo) {
  MemEnv env;
  DatabaseOptions opts;
  opts.buffer_pool_pages = 16;  // force real page I/O
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  DiskModel model;
  model.Attach(db->disk_manager());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db->Put(EncodeU64Key(i), std::string(64, 'v')).ok());
  }
  EXPECT_GT(model.stats().accesses, 0u);
}

TEST(WorkloadTest, MakeRecordsSortedAndSized) {
  auto recs = MakeRecords(100, 32, 10, 1);
  ASSERT_EQ(recs.size(), 100u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].second.size(), 32u);
    if (i > 0) {
      EXPECT_LT(recs[i - 1].first, recs[i].first);
    }
    EXPECT_EQ(DecodeU64Key(recs[i].first), i * 10);
  }
}

TEST(WorkloadTest, LoadSparseTreeHitsTargetFill) {
  MemEnv env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, DatabaseOptions(), &db).ok());
  ASSERT_TRUE(LoadSparseTree(db.get(), 3000, 64, 0.3).ok());
  BTreeStats st;
  ASSERT_TRUE(db->tree()->ComputeStats(&st).ok());
  EXPECT_GT(st.avg_leaf_fill, 0.2);
  EXPECT_LT(st.avg_leaf_fill, 0.4);
  EXPECT_EQ(st.records, 3000u);
}

TEST(WorkloadTest, ConcurrentDriverProducesOps) {
  MemEnv env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, DatabaseOptions(), &db).ok());
  ASSERT_TRUE(LoadSparseTree(db.get(), 2000, 64, 0.8).ok());

  DriverOptions dopts;
  dopts.threads = 2;
  dopts.key_space = 2000;
  ConcurrentDriver driver(db.get(), dopts);
  driver.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  driver.Stop();
  DriverStats st = driver.stats();
  EXPECT_GT(st.ops, 50u);
  EXPECT_EQ(st.failures, 0u);
  EXPECT_GT(st.reads, 0u);
  EXPECT_TRUE(db->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
