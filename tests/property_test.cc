// Property-based sweeps (parameterized): invariants that must hold across
// the whole configuration space — sparsity levels, fill targets, side
// pointer modes, free-space policies.

#include <map>

#include "tests/test_util.h"

namespace soreorg {
namespace {

// ---------------------------------------------------------------------------
// Invariant 1: reorganization at any sparsity preserves exactly the record
// set and raises fill.
// ---------------------------------------------------------------------------

class SparsitySweep : public ::testing::TestWithParam<double> {};

TEST_P(SparsitySweep, ReorganizePreservesRecordsAndRaisesFill) {
  double delete_frac = GetParam();
  MemEnv env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, DatabaseOptions(), &db).ok());
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(SparsifyByDeletion(db.get(), 2500, 64, 0.95, delete_frac, 10,
                                 99, &survivors)
                  .ok());
  BTreeStats before;
  ASSERT_TRUE(db->tree()->ComputeStats(&before).ok());

  ASSERT_TRUE(db->Reorganize().ok());

  BTreeStats after;
  ASSERT_TRUE(db->tree()->ComputeStats(&after).ok());
  EXPECT_EQ(after.records, survivors.size());
  if (delete_frac >= 0.4) {
    EXPECT_GT(after.avg_leaf_fill, before.avg_leaf_fill);
    EXPECT_LT(after.leaf_pages, before.leaf_pages);
  }
  EXPECT_TRUE(db->tree()->CheckConsistency().ok());
  for (size_t i = 0; i < survivors.size(); i += 13) {
    std::string v;
    EXPECT_TRUE(db->Get(EncodeU64Key(survivors[i]), &v).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sparsity, SparsitySweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.9));

// ---------------------------------------------------------------------------
// Invariant 2: every (side-pointer mode x free-space policy) combination
// reorganizes correctly.
// ---------------------------------------------------------------------------

struct ConfigCase {
  SidePointerMode side;
  FreeSpacePolicy policy;
};

class ConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweep, ReorganizeUnderConfig) {
  const ConfigCase& c = GetParam();
  MemEnv env;
  DatabaseOptions opts;
  opts.tree.side_pointers = c.side;
  opts.reorg.compactor.free_space_policy = c.policy;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(
      SparsifyByDeletion(db.get(), 2000, 64, 0.95, 0.65, 10, 5, &survivors)
          .ok());
  ASSERT_TRUE(db->Reorganize().ok());
  EXPECT_TRUE(db->tree()->CheckConsistency().ok());
  uint64_t n = 0;
  db->Scan(Slice(), Slice(), [&n](const Slice&, const Slice&) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, survivors.size());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigSweep,
    ::testing::Values(
        ConfigCase{SidePointerMode::kNone, FreeSpacePolicy::kPaperHeuristic},
        ConfigCase{SidePointerMode::kOneWay,
                   FreeSpacePolicy::kPaperHeuristic},
        ConfigCase{SidePointerMode::kTwoWay,
                   FreeSpacePolicy::kPaperHeuristic},
        ConfigCase{SidePointerMode::kTwoWay,
                   FreeSpacePolicy::kFirstFitAnywhere},
        ConfigCase{SidePointerMode::kTwoWay, FreeSpacePolicy::kNone}));

// ---------------------------------------------------------------------------
// Invariant 3: target fill factors are honoured across f2 values.
// ---------------------------------------------------------------------------

class FillSweep : public ::testing::TestWithParam<double> {};

TEST_P(FillSweep, CompactionApproachesTargetFill) {
  double f2 = GetParam();
  MemEnv env;
  DatabaseOptions opts;
  opts.reorg.compactor.target_fill = f2;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  ASSERT_TRUE(LoadSparseTree(db.get(), 4000, 64, 0.3).ok());

  ASSERT_TRUE(db->reorganizer()->RunLeafPass().ok());
  BTreeStats st;
  ASSERT_TRUE(db->tree()->ComputeStats(&st).ok());
  EXPECT_LE(st.avg_leaf_fill, f2 + 0.13);
  EXPECT_GE(st.avg_leaf_fill, f2 - 0.25);
  EXPECT_TRUE(db->tree()->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Fill, FillSweep,
                         ::testing::Values(0.5, 0.7, 0.9));

// ---------------------------------------------------------------------------
// Invariant 4: random operation sequences against a std::map model.
// ---------------------------------------------------------------------------

class ModelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelSweep, RandomOpsMatchModelWithPeriodicReorg) {
  uint64_t seed = GetParam();
  MemEnv env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, DatabaseOptions(), &db).ok());
  Random rng(seed);
  std::map<uint64_t, std::string> model;

  for (int step = 0; step < 4000; ++step) {
    uint64_t k = rng.Uniform(5000);
    int op = static_cast<int>(rng.Uniform(10));
    if (op < 5) {  // insert
      std::string v = std::string("v").append(std::to_string(k));
      v.append("-").append(std::to_string(step));
      Status s = db->Put(EncodeU64Key(k), v);
      if (model.count(k)) {
        EXPECT_TRUE(s.IsInvalidArgument());
      } else {
        ASSERT_TRUE(s.ok());
        model[k] = v;
      }
    } else if (op < 8) {  // delete
      Status s = db->Delete(EncodeU64Key(k));
      if (model.count(k)) {
        ASSERT_TRUE(s.ok());
        model.erase(k);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {  // read
      std::string v;
      Status s = db->Get(EncodeU64Key(k), &v);
      auto it = model.find(k);
      if (it != model.end()) {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(v, it->second);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
    if (step == 2000) {
      ASSERT_TRUE(db->Reorganize().ok());
      ASSERT_TRUE(db->tree()->CheckConsistency().ok());
    }
  }
  // Final full comparison via scan.
  auto it = model.begin();
  uint64_t scanned = 0;
  ASSERT_TRUE(db->Scan(Slice(), Slice(),
                       [&](const Slice& k, const Slice& v) {
                         EXPECT_NE(it, model.end());
                         if (it == model.end()) return false;
                         EXPECT_EQ(DecodeU64Key(k), it->first);
                         EXPECT_EQ(v.ToString(), it->second);
                         ++it;
                         ++scanned;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(scanned, model.size());
  EXPECT_EQ(it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace soreorg
