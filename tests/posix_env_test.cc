// PosixEnv: the real-file backend, exercised end to end including a
// process-local "restart" (close + reopen from disk).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/db/database.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace soreorg {
namespace {

class PosixEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/soreorg_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(system(cmd.c_str()), 0);
  }

  std::string dir_;
  PosixEnv env_;
};

TEST_F(PosixEnvTest, FileReadWriteSyncTruncate) {
  std::unique_ptr<File> f;
  ASSERT_TRUE(env_.NewFile(dir_ + "/f", &f).ok());
  ASSERT_TRUE(f->Append("hello world").ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(f->Size(), 11u);
  char buf[16];
  size_t n;
  ASSERT_TRUE(f->Read(6, 5, buf, &n).ok());
  EXPECT_EQ(std::string(buf, n), "world");
  ASSERT_TRUE(f->Write(0, "HELLO").ok());
  ASSERT_TRUE(f->Read(0, 5, buf, &n).ok());
  EXPECT_EQ(std::string(buf, n), "HELLO");
  ASSERT_TRUE(f->Truncate(5).ok());
  EXPECT_EQ(f->Size(), 5u);
  EXPECT_TRUE(env_.FileExists(dir_ + "/f"));
  ASSERT_TRUE(env_.DeleteFile(dir_ + "/f").ok());
  EXPECT_FALSE(env_.FileExists(dir_ + "/f"));
}

TEST_F(PosixEnvTest, DatabaseSurvivesCloseAndReopen) {
  DatabaseOptions options;
  options.name = dir_ + "/db";
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env_, options, &db).ok());
    for (int i = 0; i < 500; ++i) {
      std::string v = std::string("v").append(std::to_string(i));
      ASSERT_TRUE(db->Put(EncodeU64Key(static_cast<uint64_t>(i)), v).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env_, options, &db).ok());
    for (int i = 0; i < 500; ++i) {
      std::string v;
      ASSERT_TRUE(db->Get(EncodeU64Key(static_cast<uint64_t>(i)), &v).ok())
          << i;
      EXPECT_EQ(v, std::string("v").append(std::to_string(i)));
    }
    EXPECT_TRUE(db->tree()->CheckConsistency().ok());
  }
}

TEST_F(PosixEnvTest, ReopenWithoutCheckpointRedoesFromWal) {
  DatabaseOptions options;
  options.name = dir_ + "/db";
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env_, options, &db).ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Put(EncodeU64Key(static_cast<uint64_t>(i)),
                          std::string(64, 'w'))
                      .ok());
    }
    // No checkpoint: everything must come back from the WAL alone (the
    // destructor flushes pages, but redo must also work from a cold start;
    // remove the page file to prove it).
  }
  ASSERT_EQ(system(("rm -f " + dir_ + "/db.pages").c_str()), 0);
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env_, options, &db).ok());
    uint64_t n = 0;
    db->Scan(Slice(), Slice(), [&n](const Slice&, const Slice&) {
      ++n;
      return true;
    });
    EXPECT_EQ(n, 300u);
    EXPECT_TRUE(db->tree()->CheckConsistency().ok());
  }
}

TEST_F(PosixEnvTest, ReorganizeOnRealFiles) {
  DatabaseOptions options;
  options.name = dir_ + "/db";
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env_, options, &db).ok());
  std::vector<uint64_t> survivors;
  ASSERT_TRUE(
      SparsifyByDeletion(db.get(), 2000, 64, 0.95, 0.7, 10, 5, &survivors)
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

}  // namespace
}  // namespace soreorg
