#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/storage/env.h"
#include "src/storage/fault_env.h"
#include "src/wal/checkpoint.h"
#include "src/wal/log_manager.h"
#include "src/wal/log_record.h"

namespace soreorg {
namespace {

LogRecord MakeInsert(TxnId txn, PageId page, const std::string& key,
                     const std::string& value) {
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.txn_id = txn;
  rec.page_id = page;
  rec.key = key;
  rec.value = value;
  return rec;
}

// "k<i>". Built with append: GCC 12 at -O3 reports a false -Wrestrict
// overlap for `"k" + std::to_string(i)`.
std::string KeyN(int i) { return std::string("k").append(std::to_string(i)); }

// "t<t>-<i>", one key per writer thread and record.
std::string ThreadKey(int t, int i) {
  std::string key = std::string("t").append(std::to_string(t));
  return key.append("-").append(std::to_string(i));
}

TEST(LogRecordTest, RoundTripAllFields) {
  LogRecord rec;
  rec.type = LogType::kReorgModify;
  rec.txn_id = kReorgTxnId;
  rec.prev_lsn = 12345;
  rec.lsn2 = 999;
  rec.page_id = 7;
  rec.page_id2 = 8;
  rec.page_id3 = 9;
  rec.unit = 42;
  rec.unit_type = static_cast<uint8_t>(ReorgUnitType::kSwap);
  rec.flags = kMoveKeysOnly;
  rec.key = "org-key";
  rec.key2 = "new-key";
  rec.value = "org-ptr";
  rec.value2 = "new-ptr";
  rec.payload = std::string(300, 'p');

  std::string buf;
  rec.AppendTo(&buf);
  LogRecord got;
  ASSERT_TRUE(LogRecord::Parse(Slice(buf), &got).ok());
  EXPECT_EQ(got.type, rec.type);
  EXPECT_EQ(got.txn_id, rec.txn_id);
  EXPECT_EQ(got.prev_lsn, rec.prev_lsn);
  EXPECT_EQ(got.lsn2, rec.lsn2);
  EXPECT_EQ(got.page_id, rec.page_id);
  EXPECT_EQ(got.page_id2, rec.page_id2);
  EXPECT_EQ(got.page_id3, rec.page_id3);
  EXPECT_EQ(got.unit, rec.unit);
  EXPECT_EQ(got.unit_type, rec.unit_type);
  EXPECT_EQ(got.flags, rec.flags);
  EXPECT_EQ(got.key, rec.key);
  EXPECT_EQ(got.key2, rec.key2);
  EXPECT_EQ(got.value, rec.value);
  EXPECT_EQ(got.value2, rec.value2);
  EXPECT_EQ(got.payload, rec.payload);
}

TEST(LogRecordTest, ParseRejectsTruncation) {
  LogRecord rec = MakeInsert(5, 3, "k", "v");
  std::string buf;
  rec.AppendTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    LogRecord got;
    EXPECT_FALSE(LogRecord::Parse(Slice(buf.data(), cut), &got).ok());
  }
}

TEST(LogManagerTest, AppendAssignsMonotonicLsns) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  LogRecord a = MakeInsert(2, 1, "a", "1");
  LogRecord b = MakeInsert(2, 1, "b", "2");
  log.Append(&a);
  log.Append(&b);
  EXPECT_LT(a.lsn, b.lsn);
  EXPECT_EQ(log.FlushedLsn(), 1u);  // nothing durable yet (LSNs start at 1)
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_GT(log.FlushedLsn(), b.lsn);
}

TEST(LogManagerTest, ReadAllAndReadAt) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  std::vector<Lsn> lsns;
  for (int i = 0; i < 20; ++i) {
    LogRecord rec = MakeInsert(2, 1, KeyN(i), "v");
    log.Append(&rec);
    lsns.push_back(rec.lsn);
  }
  ASSERT_TRUE(log.Flush().ok());

  std::vector<LogRecord> all;
  ASSERT_TRUE(log.ReadAll(&all).ok());
  ASSERT_EQ(all.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(all[i].key, KeyN(i));
    EXPECT_EQ(all[i].lsn, lsns[i]);
  }

  LogRecord one;
  ASSERT_TRUE(log.ReadAt(lsns[7], &one).ok());
  EXPECT_EQ(one.key, "k7");

  std::vector<LogRecord> tail;
  ASSERT_TRUE(log.ReadAll(&tail, lsns[15]).ok());
  EXPECT_EQ(tail.size(), 5u);
}

TEST(LogManagerTest, CrashDiscardsUnflushedTail) {
  MemEnv env;
  {
    LogManager log(&env, "wal");
    ASSERT_TRUE(log.Open().ok());
    LogRecord a = MakeInsert(2, 1, "durable", "v");
    ASSERT_TRUE(log.AppendAndFlush(&a).ok());
    LogRecord b = MakeInsert(2, 1, "lost", "v");
    log.Append(&b);  // buffered only
  }
  env.Crash();
  LogManager log2(&env, "wal");
  ASSERT_TRUE(log2.Open().ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(log2.ReadAll(&all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].key, "durable");
}

TEST(LogManagerTest, TornTailIsTruncatedOnOpen) {
  MemEnv env;
  Lsn first_lsn;
  {
    LogManager log(&env, "wal");
    ASSERT_TRUE(log.Open().ok());
    LogRecord a = MakeInsert(2, 1, "good", "v");
    ASSERT_TRUE(log.AppendAndFlush(&a).ok());
    first_lsn = a.lsn;
  }
  // Corrupt the file by appending garbage bytes (a torn frame).
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile("wal", &f).ok());
  ASSERT_TRUE(f->Append("garbage-frame-bytes").ok());
  ASSERT_TRUE(f->Sync().ok());

  LogManager log2(&env, "wal");
  ASSERT_TRUE(log2.Open().ok());
  std::vector<LogRecord> all;
  ASSERT_TRUE(log2.ReadAll(&all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].key, "good");
  // New appends land where the valid prefix ended.
  LogRecord b = MakeInsert(2, 1, "after", "v");
  ASSERT_TRUE(log2.AppendAndFlush(&b).ok());
  EXPECT_GT(b.lsn, first_lsn);
  all.clear();
  ASSERT_TRUE(log2.ReadAll(&all).ok());
  EXPECT_EQ(all.size(), 2u);
}

TEST(LogManagerTest, PerTypeByteAccounting) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  LogRecord a = MakeInsert(2, 1, "k", "v");
  log.Append(&a);
  LogRecord mv;
  mv.type = LogType::kReorgMove;
  mv.payload = std::string(500, 'm');
  log.Append(&mv);
  EXPECT_GT(log.bytes_for_type(LogType::kReorgMove), 500u);
  EXPECT_GT(log.bytes_for_type(LogType::kInsert), 0u);
  EXPECT_EQ(log.bytes_for_type(LogType::kCommit), 0u);
  EXPECT_EQ(log.records_appended(), 2u);
  EXPECT_EQ(log.bytes_appended(), log.bytes_for_type(LogType::kReorgMove) +
                                      log.bytes_for_type(LogType::kInsert));
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

// The fsync-count contract: records buffered by one thread, then flushed by
// K threads concurrently — the first leader steals the whole buffer, so the
// sync count rises by exactly 1 and every FlushTo returns durable.
TEST(LogManagerTest, GroupFlushOfBufferedRecordsCostsOneSync) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());

  constexpr int kN = 8;
  std::vector<Lsn> lsns;
  for (int i = 0; i < kN; ++i) {
    LogRecord rec = MakeInsert(1, 1, KeyN(i), "v");
    log.Append(&rec);
    lsns.push_back(rec.lsn);
  }
  uint64_t syncs_before = env.sync_count();

  std::vector<std::thread> threads;
  for (int i = 0; i < kN; ++i) {
    threads.emplace_back(
        [&log, lsn = lsns[i]] { ASSERT_TRUE(log.FlushTo(lsn).ok()); });
  }
  for (auto& t : threads) t.join();

  // One leader, one physical batch: N "commits" cost exactly 1 fsync.
  EXPECT_EQ(env.sync_count() - syncs_before, 1u);
  EXPECT_EQ(log.sync_batches(), 1u);
  for (Lsn lsn : lsns) EXPECT_LT(lsn, log.FlushedLsn());

  // And they really are durable: a crash keeps all of them.
  env.Crash();
  LogManager reopened(&env, "wal");
  ASSERT_TRUE(reopened.Open().ok());
  std::vector<LogRecord> recs;
  ASSERT_TRUE(reopened.ReadAll(&recs).ok());
  EXPECT_EQ(recs.size(), static_cast<size_t>(kN));
}

// Concurrent AppendAndFlush from many threads: every record lands exactly
// once, recovery replays the identical record set a per-commit-flush run
// produces, and the fsync count stays well under one per commit.
TEST(LogManagerTest, ConcurrentAppendAndFlushRecoversEveryRecordOnce) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec = MakeInsert(100 + t, 1, ThreadKey(t, i), "v");
        ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
        ASSERT_LT(rec.lsn, log.FlushedLsn());  // durable on return
      }
    });
  }
  for (auto& t : threads) t.join();

  // Group commit must have batched at least some of the 200 commits.
  EXPECT_LE(log.sync_batches(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(log.sync_batches(), 1u);

  env.Crash();  // discard nothing that was acked
  LogManager reopened(&env, "wal");
  ASSERT_TRUE(reopened.Open().ok());
  std::vector<LogRecord> recs;
  ASSERT_TRUE(reopened.ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), static_cast<size_t>(kThreads * kPerThread));

  // Same record multiset as a serial per-commit-flush reference run.
  std::multiset<std::string> got, want;
  for (const auto& r : recs) got.insert(r.key);
  MemEnv ref_env;
  LogManager ref(&ref_env, "wal");
  ASSERT_TRUE(ref.Open().ok());
  const uint64_t ref_base_syncs = ref_env.sync_count();  // Open's header sync
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      LogRecord rec = MakeInsert(100 + t, 1, ThreadKey(t, i), "v");
      ASSERT_TRUE(ref.AppendAndFlush(&rec).ok());
    }
  }
  std::vector<LogRecord> ref_recs;
  ASSERT_TRUE(ref.ReadAll(&ref_recs).ok());
  for (const auto& r : ref_recs) want.insert(r.key);
  EXPECT_EQ(got, want);
  // The serial reference pays one fsync per commit; the concurrent run
  // must not pay more.
  EXPECT_EQ(ref_env.sync_count() - ref_base_syncs,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(env.sync_count(), ref_env.sync_count());
}

// FlushTo's fast path: an already-durable LSN returns without any file
// traffic, and FlushedLsn() itself is a lock-free read.
TEST(LogManagerTest, FlushToIsANoOpWhenAlreadyDurable) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());

  LogRecord rec = MakeInsert(1, 1, "k", "v");
  ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
  uint64_t syncs = env.sync_count();
  uint64_t batches = log.sync_batches();

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(log.FlushTo(rec.lsn).ok());
  }
  EXPECT_EQ(env.sync_count(), syncs);       // no I/O at all
  EXPECT_EQ(log.sync_batches(), batches);

  // The boundary stays exact: the next (not yet appended) LSN is not
  // durable, so probing it triggers a real (empty-buffer, no-op) pass.
  LogRecord rec2 = MakeInsert(1, 1, "k2", "v");
  log.Append(&rec2);
  ASSERT_TRUE(log.FlushTo(rec2.lsn).ok());
  EXPECT_GT(env.sync_count(), syncs);
  EXPECT_LT(rec2.lsn, log.FlushedLsn());
}

// The group-commit failure path: a leader whose fsync fails must splice its
// stolen batch back at the front of the buffer, at the original offsets, so
// that (a) no record is lost, (b) no record is duplicated, and (c) every
// record keeps the LSN it was assigned at Append time. A later flush retries
// the whole batch and pays exactly one successful fsync.
TEST(LogManagerTest, SyncFailureSplicesBatchBackAndRetriesExactlyOnce) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());

  LogRecord a = MakeInsert(1, 1, "a", "v");
  LogRecord b = MakeInsert(1, 1, "b", "v");
  log.Append(&a);
  log.Append(&b);

  const uint64_t base_syncs = base.sync_count();  // Open's header sync
  env.FailOpAfter(1, "", "sync", /*transient=*/true);
  Status s = log.Flush();
  ASSERT_FALSE(s.ok()) << "injected fsync failure must surface";
  EXPECT_TRUE(env.fault_fired());
  // Nothing was acked durable and no successful batch was counted.
  EXPECT_LE(log.FlushedLsn(), a.lsn);
  EXPECT_EQ(log.sync_batches(), 0u);
  EXPECT_EQ(base.sync_count(), base_syncs);

  // Records appended after the failure land *behind* the spliced batch.
  LogRecord c = MakeInsert(1, 1, "c", "v");
  log.Append(&c);
  EXPECT_GT(c.lsn, b.lsn);

  // The retry flushes everything exactly once.
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_GT(log.FlushedLsn(), c.lsn);
  EXPECT_EQ(log.sync_batches(), 1u);
  EXPECT_EQ(base.sync_count(), base_syncs + 1);

  std::vector<LogRecord> all;
  ASSERT_TRUE(log.ReadAll(&all).ok());
  ASSERT_EQ(all.size(), 3u);
  // Exactly-once, in order, and the file-offset-derived LSNs match the
  // Append-time LSNs: the splice kept the batch contiguous at its offsets.
  EXPECT_EQ(all[0].key, "a");
  EXPECT_EQ(all[1].key, "b");
  EXPECT_EQ(all[2].key, "c");
  EXPECT_EQ(all[0].lsn, a.lsn);
  EXPECT_EQ(all[1].lsn, b.lsn);
  EXPECT_EQ(all[2].lsn, c.lsn);

  // And durably so: the record set survives a crash.
  env.Crash();
  LogManager reopened(&env, "wal");
  ASSERT_TRUE(reopened.Open().ok());
  all.clear();
  ASSERT_TRUE(reopened.ReadAll(&all).ok());
  EXPECT_EQ(all.size(), 3u);
}

// Same failure under concurrency: the leader that eats the injected fsync
// error reports it to its caller; the other committers elect a new leader
// and the retried batch carries every record exactly once.
TEST(LogManagerTest, ConcurrentCommitSurvivesOneSyncFailure) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());

  env.FailOpAfter(1, "", "sync", /*transient=*/true);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec = MakeInsert(100 + t, 1, ThreadKey(t, i), "v");
        Status s = log.AppendAndFlush(&rec);
        if (!s.ok()) {
          // This thread led the batch the injected fault killed. The record
          // is spliced back, not lost: retrying the flush makes it durable.
          s = log.FlushTo(rec.lsn);
        }
        ASSERT_TRUE(s.ok());
        ASSERT_LT(rec.lsn, log.FlushedLsn());  // durable on return
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(env.fault_fired());

  env.Crash();
  LogManager reopened(&env, "wal");
  ASSERT_TRUE(reopened.Open().ok());
  std::vector<LogRecord> recs;
  ASSERT_TRUE(reopened.ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), static_cast<size_t>(kThreads * kPerThread));

  // Exactly once each, and LSNs stayed strictly increasing with no holes
  // in the byte stream (ReadAll derives them from file offsets).
  std::multiset<std::string> got;
  for (const auto& r : recs) got.insert(r.key);
  EXPECT_EQ(got.size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<std::string> uniq(got.begin(), got.end());
  EXPECT_EQ(uniq.size(), got.size()) << "a record was duplicated";
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LT(recs[i - 1].lsn, recs[i].lsn);
  }
}

// Torn-tail forensics: ReadAll reports a torn trailing frame via
// LogReadStats (normal after a crash), while *mid-log* damage — valid
// frames beyond the corruption — is flagged, and a fresh Open refuses to
// "heal" it by truncation (that would destroy acknowledged records).
TEST(LogManagerTest, ReadStatsDistinguishTornTailFromMidLogCorruption) {
  MemEnv env;
  LogManager log(&env, "wal");
  ASSERT_TRUE(log.Open().ok());
  LogRecord a = MakeInsert(2, 1, "first", "v");
  ASSERT_TRUE(log.AppendAndFlush(&a).ok());
  LogRecord b = MakeInsert(2, 1, "second", "v");
  ASSERT_TRUE(log.AppendAndFlush(&b).ok());

  // Clean log: no tear, nothing dropped.
  std::vector<LogRecord> recs;
  LogReadStats stats;
  ASSERT_TRUE(log.ReadAll(&recs, 0, &stats).ok());
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_FALSE(stats.mid_log_corruption);
  EXPECT_EQ(stats.dropped_bytes, 0u);

  // Append garbage behind the manager's back: a torn final frame. Dropped
  // bytes are reported, but it is NOT corruption — the valid prefix reads
  // clean and a reopen self-heals by truncating.
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile(LogManager::SegmentFileName("wal", 1), &f).ok());
  ASSERT_TRUE(f->Append("torn-frame-garbage").ok());
  recs.clear();
  ASSERT_TRUE(log.ReadAll(&recs, 0, &stats).ok());
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_FALSE(stats.mid_log_corruption);
  EXPECT_EQ(stats.dropped_bytes, sizeof("torn-frame-garbage") - 1);
  {
    LogManager healed(&env, "wal");
    EXPECT_TRUE(healed.Open().ok());
  }

  // Mid-log damage: zero bytes *inside the first frame's body* so a
  // CRC-valid frame (the second record) survives beyond the corruption.
  ASSERT_TRUE(f->Write(LogManager::kSegmentHeaderSize +
                           LogManager::kFrameHeader + 2,
                       Slice("\xDE\xAD\xBE\xEF", 4)).ok());
  recs.clear();
  ASSERT_TRUE(log.ReadAll(&recs, 0, &stats).ok());
  EXPECT_EQ(stats.records_read, 0u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_TRUE(stats.mid_log_corruption)
      << "the intact second frame beyond the damage must be flagged";
  EXPECT_GT(stats.dropped_bytes, 0u);

  // A fresh Open must refuse rather than truncate away the second record.
  LogManager reopened(&env, "wal");
  Status s = reopened.Open();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CheckpointTest, ImageRoundTrip) {
  CheckpointImage img;
  img.disk_meta = "disk-meta-bytes";
  img.active_txns = {{5, 100}, {9, 222}};
  img.next_txn_id = 10;
  img.reorg.has_open_unit = true;
  img.reorg.unit = 3;
  img.reorg.begin_lsn = 50;
  img.reorg.recent_lsn = 80;
  img.reorg.largest_finished_key = "LK";
  img.reorg.leaf_pass_active = true;
  img.reorg.reorg_bit = true;
  img.reorg.stable_key = "SK";
  img.reorg.new_tree_root = 77;
  img.tree_root = 3;
  img.tree_height = 4;
  img.tree_incarnation = 2;
  img.side_file_image = "side-bytes";

  std::string buf = img.Serialize();
  CheckpointImage got;
  ASSERT_TRUE(CheckpointImage::Parse(Slice(buf), &got).ok());
  EXPECT_EQ(got.disk_meta, img.disk_meta);
  EXPECT_EQ(got.active_txns, img.active_txns);
  EXPECT_EQ(got.next_txn_id, img.next_txn_id);
  EXPECT_EQ(got.reorg.has_open_unit, true);
  EXPECT_EQ(got.reorg.unit, 3u);
  EXPECT_EQ(got.reorg.begin_lsn, 50u);
  EXPECT_EQ(got.reorg.recent_lsn, 80u);
  EXPECT_EQ(got.reorg.largest_finished_key, "LK");
  EXPECT_TRUE(got.reorg.leaf_pass_active);
  EXPECT_TRUE(got.reorg.reorg_bit);
  EXPECT_EQ(got.reorg.stable_key, "SK");
  EXPECT_EQ(got.reorg.new_tree_root, 77u);
  EXPECT_EQ(got.tree_root, 3u);
  EXPECT_EQ(got.tree_height, 4);
  EXPECT_EQ(got.tree_incarnation, 2u);
  EXPECT_EQ(got.side_file_image, "side-bytes");
}

TEST(CheckpointTest, MasterStoreLoad) {
  MemEnv env;
  CheckpointMaster master(&env, "ckpt");
  ASSERT_TRUE(master.Open().ok());
  Lsn lsn;
  EXPECT_TRUE(master.Load(&lsn).IsNotFound());
  ASSERT_TRUE(master.Store(4242).ok());
  ASSERT_TRUE(master.Load(&lsn).ok());
  EXPECT_EQ(lsn, 4242u);
  ASSERT_TRUE(master.Store(9999).ok());
  ASSERT_TRUE(master.Load(&lsn).ok());
  EXPECT_EQ(lsn, 9999u);
}

}  // namespace
}  // namespace soreorg
