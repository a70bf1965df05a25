// Shared fixtures for the integration tests: an in-memory database with
// crash/reopen support and sparse-tree construction helpers.

#ifndef SOREORG_TESTS_TEST_UTIL_H_
#define SOREORG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>

#include "src/db/database.h"
#include "src/sim/workload.h"
#include "src/storage/fault_env.h"
#include "src/util/coding.h"

namespace soreorg {

class DbFixture : public ::testing::Test {
 protected:
  void SetUp() override { OpenDb(DatabaseOptions()); }

  void OpenDb(DatabaseOptions options) {
    db_.reset();
    options_ = options;
    base_ = std::make_unique<MemEnv>();
    env_ = std::make_unique<FaultInjectionEnv>(base_.get());
    ASSERT_TRUE(Database::Open(env_.get(), options_, &db_).ok());
  }

  /// Simulate a system failure and restart: un-synced state is lost, then
  /// the database re-opens and runs recovery.
  Status CrashAndReopen() {
    db_.reset();  // note: the destructor flushes; callers that want a hard
                  // crash must have armed a fault or call HardCrash().
    env_->Crash();  // also disarms any armed fault
    return Database::Open(env_.get(), options_, &db_);
  }

  /// Hard crash: drop the Database object without any flushing (a sticky
  /// fault takes the env down first so the destructor cannot save
  /// anything), discard un-synced state, reopen.
  Status HardCrashAndReopen() {
    env_->FailOpAfter(1, "", "");  // next write-like op fails; env goes down
    db_.reset();
    env_->Crash();
    return Database::Open(env_.get(), options_, &db_);
  }

  Status Put(uint64_t key, const std::string& value) {
    return db_->Put(EncodeU64Key(key), value);
  }
  Status Del(uint64_t key) { return db_->Delete(EncodeU64Key(key)); }
  Status Get(uint64_t key, std::string* value) {
    return db_->Get(EncodeU64Key(key), value);
  }

  uint64_t CountRecords() {
    uint64_t n = 0;
    db_->Scan(Slice(), Slice(), [&n](const Slice&, const Slice&) {
      ++n;
      return true;
    });
    return n;
  }

  DatabaseOptions options_;
  std::unique_ptr<MemEnv> base_;
  std::unique_ptr<FaultInjectionEnv> env_;
  std::unique_ptr<Database> db_;
};

}  // namespace soreorg

#endif  // SOREORG_TESTS_TEST_UTIL_H_
