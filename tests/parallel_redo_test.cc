// Page redo by component: replaying the same crashed image in log order
// (redo_threads = 1, the verification oracle), page by page on the
// recovering thread (the default) and on 4 lanes must produce bit-identical
// page files; page by page, a page redo touches is read at most once;
// checkpoint-driven truncation floors bound the redo scan to the segments
// written since the floor; and the RecoveryResult forensics (lanes used,
// per-lane work, segment counts, torn tail) are populated and consistent.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/storage/env.h"
#include "src/storage/fault_env.h"
#include "src/wal/log_manager.h"

namespace soreorg {
namespace {

std::string KeyOf(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

DatabaseOptions SmallSegmentOptions() {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 48;
  opts.wal_segment_bytes = 2048;
  opts.wal_recycle_segments = 2;
  return opts;
}

// Deterministic workload that ends in a crash: load + checkpoint baseline,
// then scattered single-page updates/deletes until the armed fault takes
// the env down. Two runs with the same options produce identical durable
// images, so recoveries with different thread counts start from the same
// bytes.
void BuildCrashedImage(FaultInjectionEnv* env, const DatabaseOptions& opts,
                       int crash_at_op) {
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(env, opts, &db).ok());
  const std::string value(100, 'v');
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), value).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());

  env->FailOpAfter(crash_at_op, "", "");
  int i = 0;
  while (true) {
    Status s;
    if (i % 5 == 4) {
      s = db->Delete(KeyOf((i * 7) % 300));
      if (s.IsNotFound()) s = Status::OK();  // already deleted earlier
    } else {
      s = db->Update(KeyOf((i * 13) % 300), std::string(100, 'a' + i % 20));
      if (s.IsNotFound()) s = Status::OK();  // hit a deleted key
    }
    if (!s.ok()) break;  // the fault fired; the env is down
    ++i;
    ASSERT_LT(i, 100000) << "fault never fired";
  }
  ASSERT_TRUE(env->fault_fired());
  db.reset();   // destructor flushes fail against the downed env
  env->Crash();  // volatile state is gone
}

// Whole-file durable bytes, for bit-identity comparison.
std::string FileBytes(Env* env, const std::string& name) {
  std::unique_ptr<File> f;
  if (!env->NewFile(name, &f).ok()) return {};
  const uint64_t size = f->Size();
  std::string buf(size, '\0');
  size_t got = 0;
  if (!f->Read(0, size, buf.data(), &got).ok()) return {};
  buf.resize(got);
  return buf;
}

// Copies every file of a crashed env into `to` and syncs it, so several
// recoveries start from the same durable bytes.
void CopyFiles(Env* from, Env* to) {
  std::vector<std::string> names;
  ASSERT_TRUE(from->ListFiles("", &names).ok());
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    std::unique_ptr<File> f;
    ASSERT_TRUE(to->NewFile(name, &f).ok());
    ASSERT_TRUE(f->Append(FileBytes(from, name)).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
}

// Takes the env down so the destructor saves nothing, then drops every
// un-synced write.
void HardCrash(FaultInjectionEnv* env, std::unique_ptr<Database>* db) {
  env->FailOpAfter(1, "", "");
  db->reset();
  env->Crash();
}

constexpr size_t kRecoveryPool = 16;  // frames; one shard, exact LRU

// A crash image whose redo spans many times the recovery pool: inserts in
// scattered order (leaf and internal splits) on both sides of a checkpoint,
// scattered deletes (free-at-empty) and updates, a completed pass 1 (moves,
// base-page modifies, page frees) and more updates, then a hard crash.
void BuildLargeCrashedImage(FaultInjectionEnv* env) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 64;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(env, opts, &db).ok());
  constexpr int kKeys = 4000;
  auto key = [](int i) { return KeyOf((i * 7919) % kKeys); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(key(i), std::string(100, 'v')).ok());
    if (i == kKeys / 4) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
  for (int i = 0; i < kKeys; i += 5) {
    for (int j = i; j < i + 3; ++j) ASSERT_TRUE(db->Delete(key(j)).ok());
    ASSERT_TRUE(db->Update(key(i + 3), std::string(100, 'a' + i % 26)).ok());
  }
  ASSERT_TRUE(db->reorganizer()->RunLeafPass().ok());
  for (int i = 4; i < kKeys; i += 10) {
    ASSERT_TRUE(db->Update(key(i), std::string(100, 'z')).ok());
  }
  HardCrash(env, &db);
}

using Rows = std::vector<std::pair<std::string, std::string>>;

Rows ScanAll(Database* db) {
  Rows rows;
  EXPECT_TRUE(db->Scan(Slice(), Slice(),
                       [&rows](const Slice& k, const Slice& v) {
                         rows.emplace_back(k.ToString(), v.ToString());
                         return true;
                       })
                  .ok());
  return rows;
}

TEST(ParallelRedoTest, ParallelRedoIsBitIdenticalToSerialOracle) {
  constexpr int kCrashAt = 400;
  MemEnv base1, base4;
  FaultInjectionEnv env1(&base1), env4(&base4);
  DatabaseOptions build = SmallSegmentOptions();
  BuildCrashedImage(&env1, build, kCrashAt);
  BuildCrashedImage(&env4, build, kCrashAt);
  ASSERT_EQ(FileBytes(&env1, "soreorg.pages"),
            FileBytes(&env4, "soreorg.pages"))
      << "the two crashed images must start identical";

  DatabaseOptions serial = build;
  serial.redo_threads = 1;
  DatabaseOptions parallel = build;
  parallel.redo_threads = 4;

  std::unique_ptr<Database> db1, db4;
  ASSERT_TRUE(Database::Open(&env1, serial, &db1).ok());
  ASSERT_TRUE(Database::Open(&env4, parallel, &db4).ok());
  const RecoveryResult& r1 = db1->recovery_result();
  const RecoveryResult& r4 = db4->recovery_result();
  EXPECT_EQ(r1.redo_threads_used, 1);
  EXPECT_GE(r4.redo_threads_used, 1);
  EXPECT_GT(r1.records_redone, 0u) << "the crash must leave redo work";
  EXPECT_EQ(r1.records_redone, r4.records_redone);
  EXPECT_EQ(r1.records_scanned, r4.records_scanned);

  // Logical equality first (better failure messages than a byte diff)...
  std::vector<std::pair<std::string, std::string>> got1, got4;
  auto collect = [](std::vector<std::pair<std::string, std::string>>* out) {
    return [out](const Slice& k, const Slice& v) {
      out->emplace_back(k.ToString(), v.ToString());
      return true;
    };
  };
  ASSERT_TRUE(db1->Scan(Slice(), Slice(), collect(&got1)).ok());
  ASSERT_TRUE(db4->Scan(Slice(), Slice(), collect(&got4)).ok());
  EXPECT_EQ(got1, got4);
  ASSERT_TRUE(db1->tree()->CheckConsistency().ok());
  ASSERT_TRUE(db4->tree()->CheckConsistency().ok());

  // ...then the hard claim: after a full flush the page files are
  // bit-identical — 4 redo lanes left no page in a different state than
  // the serial oracle.
  ASSERT_TRUE(db1->buffer_pool()->FlushAndSync().ok());
  ASSERT_TRUE(db4->buffer_pool()->FlushAndSync().ok());
  db1.reset();
  db4.reset();
  const std::string pages1 = FileBytes(&env1, "soreorg.pages");
  const std::string pages4 = FileBytes(&env4, "soreorg.pages");
  ASSERT_FALSE(pages1.empty());
  EXPECT_EQ(pages1, pages4);
}

TEST(ParallelRedoTest, PageByPageMatchesLogOrderBeyondThePool) {
  MemEnv crashed_base;
  FaultInjectionEnv crashed(&crashed_base);
  BuildLargeCrashedImage(&crashed);
  if (HasFatalFailure()) return;

  const int kModes[] = {1, DatabaseOptions().redo_threads, 4};
  std::string oracle_pages;
  Rows oracle_rows;
  for (int threads : kModes) {
    SCOPED_TRACE(testing::Message() << "redo_threads = " << threads);
    MemEnv env;
    CopyFiles(&crashed, &env);
    DatabaseOptions opts;
    opts.buffer_pool_pages = kRecoveryPool;
    opts.redo_threads = threads;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
    const RecoveryResult& rr = db->recovery_result();
    uint64_t pages = 0;
    for (uint64_t n : rr.redo_pages_per_thread) pages += n;
    EXPECT_GE(pages, 4 * kRecoveryPool)
        << "redo must touch at least 4x as many pages as the pool holds";
    ASSERT_TRUE(db->tree()->CheckConsistency().ok());
    Rows rows = ScanAll(db.get());
    ASSERT_TRUE(db->buffer_pool()->FlushAndSync().ok());
    db.reset();
    std::string page_file = FileBytes(&env, "soreorg.pages");
    ASSERT_FALSE(page_file.empty());
    if (threads == 1) {
      oracle_rows = std::move(rows);
      oracle_pages = std::move(page_file);
      continue;
    }
    EXPECT_EQ(rows, oracle_rows);
    EXPECT_TRUE(page_file == oracle_pages)
        << "page file differs from the log-order oracle's";
  }
}

// Committed single-page updates scattered over every leaf, no loser and no
// open unit: page by page each page redo touches is read once, while log
// order re-reads a leaf on almost every record once the pool is full.
TEST(ParallelRedoTest, PageByPageReadsEachRedoPageOnce) {
  MemEnv crashed_base;
  FaultInjectionEnv crashed(&crashed_base);
  {
    DatabaseOptions opts;
    opts.buffer_pool_pages = kRecoveryPool;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&crashed, opts, &db).ok());
    constexpr int kKeys = 3000;
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(db->Put(KeyOf(i), std::string(100, 'v')).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db->Update(KeyOf((i * 7919) % kKeys),
                             std::string(100, 'a' + i % 26))
                      .ok());
    }
    HardCrash(&crashed, &db);
  }

  uint64_t reads[2] = {0, 0};
  const int kModes[2] = {DatabaseOptions().redo_threads, 1};
  for (int m = 0; m < 2; ++m) {
    SCOPED_TRACE(testing::Message() << "redo_threads = " << kModes[m]);
    MemEnv env;
    CopyFiles(&crashed, &env);
    DatabaseOptions opts;
    opts.buffer_pool_pages = kRecoveryPool;
    opts.redo_threads = kModes[m];
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
    const RecoveryResult& rr = db->recovery_result();
    ASSERT_TRUE(rr.losers.empty());
    ASSERT_TRUE(rr.incomplete_unit_records.empty());
    EXPECT_EQ(rr.records_redone, 2000u);
    uint64_t pages = 0;
    for (uint64_t n : rr.redo_pages_per_thread) pages += n;
    EXPECT_GE(pages, 4 * kRecoveryPool);
    reads[m] = db->disk_manager()->pages_read();
    if (m == 0) {
      EXPECT_LE(reads[m], pages)
          << "page-by-page redo read a page more than once";
    }
  }
  EXPECT_GE(reads[1], 3 * reads[0])
      << "log order read " << reads[1] << " pages, page by page " << reads[0];
}

TEST(ParallelRedoTest, CheckpointFloorBoundsSegmentsScanned) {
  // Acceptance: write 10x the segment size, checkpoint, recover — redo must
  // visit only the segments at/above the floor, not the whole log.
  // Truncation is off so the old segments still exist on disk and the bound
  // is proven by the *scan*, not by deletion.
  MemEnv env;
  DatabaseOptions opts = SmallSegmentOptions();
  opts.wal_truncate_on_checkpoint = false;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
    const std::string value(100, 'v');
    // >= 10 segments of 2 KiB = 20 KiB of WAL; each put logs ~150 bytes.
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Put(KeyOf(i), value).ok());
    }
    ASSERT_GE(db->log_manager()->segment_count(), 10u);
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Update(KeyOf(i), std::string(100, 'u')).ok());
    }
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  const RecoveryResult& rr = db->recovery_result();
  EXPECT_GE(db->log_manager()->segment_count(), 10u)
      << "with truncation off the whole history must still be on disk";
  EXPECT_LE(rr.segments_scanned, 3u)
      << "redo scanned segments below the checkpoint floor";
  EXPECT_GT(rr.segments_scanned, 0u);
  std::string v;
  ASSERT_TRUE(db->Get(KeyOf(0), &v).ok());
  EXPECT_EQ(v, std::string(100, 'u'));
}

TEST(ParallelRedoTest, TruncationShrinksRecoveryScanAndLog) {
  // Same shape with truncation on: the checkpoint removes the dead
  // segments themselves, and recovery scans the short chain.
  MemEnv env;
  DatabaseOptions opts = SmallSegmentOptions();
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
    const std::string value(100, 'v');
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Put(KeyOf(i), value).ok());
    }
    ASSERT_GE(db->log_manager()->segment_count(), 10u);
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_LE(db->log_manager()->segment_count(), 3u)
        << "checkpoint truncation left dead segments behind";
    EXPECT_GT(db->log_manager()->segments_truncated(), 0u);
    EXPECT_GT(db->log_manager()->LowestLsn(), 1u);
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  EXPECT_LE(db->recovery_result().segments_scanned, 3u);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(db->Scan(Slice(), Slice(),
                       [&](const Slice& k, const Slice& v) {
                         got.emplace_back(k.ToString(), v.ToString());
                         return true;
                       })
                  .ok());
  EXPECT_EQ(got.size(), 300u);
}

TEST(ParallelRedoTest, ForensicsFieldsAreConsistent) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  DatabaseOptions build = SmallSegmentOptions();
  BuildCrashedImage(&env, build, 300);

  // Tear the tail segment too, so the torn-tail forensics have something
  // to report.
  {
    LogManager probe(&env, "soreorg.wal", LogManagerOptions{2048, 2});
    ASSERT_TRUE(probe.Open().ok());
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.NewFile(probe.tail_segment_name(), &f).ok());
    ASSERT_TRUE(f->Append("garbage-torn-tail").ok());
  }

  DatabaseOptions opts = build;
  opts.redo_threads = 4;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  const RecoveryResult& rr = db->recovery_result();
  EXPECT_TRUE(rr.tail_segment_torn);
  EXPECT_GT(rr.wal_bytes_dropped, 0u);
  EXPECT_GT(rr.segments_scanned, 0u);
  EXPECT_GE(rr.redo_threads_used, 1);
  ASSERT_EQ(rr.redo_pages_per_thread.size(),
            static_cast<size_t>(rr.redo_threads_used));
  ASSERT_EQ(rr.redo_records_per_thread.size(),
            static_cast<size_t>(rr.redo_threads_used));
  uint64_t sum = 0;
  for (uint64_t n : rr.redo_records_per_thread) sum += n;
  EXPECT_EQ(sum, rr.records_redone)
      << "per-thread record counts must add up to the total";
  ASSERT_TRUE(db->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
