// Segmented-WAL behavior (ISSUE 10): rotation keeps LSNs contiguous and
// every record readable; Open validates the seq/LSN chain and distinguishes
// a tail-segment torn tail (self-healed) from mid-log damage (Corruption);
// TruncateBelow removes exactly the wholly-dead sealed segments, parks them
// in the recycle pool, and rotation reuses them; and — the deterministic
// race test — a checkpoint-driven truncation fired from inside an active
// reorganization's step-aside window never removes a segment at or above
// the recovery floor.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/storage/env.h"
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

LogManagerOptions SmallSegments(uint64_t bytes = 512) {
  LogManagerOptions o;
  o.segment_bytes = bytes;
  o.recycle_max = 2;
  return o;
}

TEST(WalSegmentTest, RotationKeepsLsnsContiguousAndEveryRecordReadable) {
  MemEnv env;
  LogManager log(&env, "wal", SmallSegments());
  ASSERT_TRUE(log.Open().ok());
  EXPECT_EQ(log.segment_count(), 1u);
  EXPECT_EQ(log.tail_segment_name(), LogManager::SegmentFileName("wal", 1));

  std::vector<Lsn> lsns;
  for (int i = 0; i < 60; ++i) {
    LogRecord rec =
        MakeInsert(1, 1, "key" + std::to_string(i), std::string(40, 'v'));
    ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
    lsns.push_back(rec.lsn);
  }
  EXPECT_GT(log.segment_count(), 3u) << "512-byte segments must have rotated";
  EXPECT_GT(log.segments_created(), 3u);

  // The whole stream reads back in order with the append-time LSNs: segment
  // headers are invisible to the LSN space.
  std::vector<LogRecord> recs;
  LogReadStats stats;
  ASSERT_TRUE(log.ReadAll(&recs, 0, &stats).ok());
  ASSERT_EQ(recs.size(), lsns.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, lsns[i]);
    EXPECT_EQ(recs[i].key, "key" + std::to_string(i));
  }
  EXPECT_EQ(stats.segments_scanned, log.segment_count());
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_FALSE(stats.mid_log_corruption);

  // Point reads cross segment boundaries transparently.
  for (size_t i = 0; i < lsns.size(); i += 7) {
    LogRecord rec;
    ASSERT_TRUE(log.ReadAt(lsns[i], &rec).ok()) << "lsn " << lsns[i];
    EXPECT_EQ(rec.key, "key" + std::to_string(i));
  }
}

TEST(WalSegmentTest, ReopenRestoresChainAndKeepsAppending) {
  MemEnv env;
  std::vector<Lsn> lsns;
  size_t segs = 0;
  {
    LogManager log(&env, "wal", SmallSegments());
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 40; ++i) {
      LogRecord rec = MakeInsert(1, 1, KeyN(i), std::string(40, 'v'));
      ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
      lsns.push_back(rec.lsn);
    }
    segs = log.segment_count();
    ASSERT_GT(segs, 1u);
  }
  LogManager log(&env, "wal", SmallSegments());
  ASSERT_TRUE(log.Open().ok());
  EXPECT_EQ(log.segment_count(), segs);
  std::vector<LogRecord> recs;
  ASSERT_TRUE(log.ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), lsns.size());
  for (size_t i = 0; i < recs.size(); ++i) EXPECT_EQ(recs[i].lsn, lsns[i]);

  // Appends resume exactly where the old incarnation stopped.
  LogRecord more = MakeInsert(1, 1, "after-reopen", "v");
  ASSERT_TRUE(log.AppendAndFlush(&more).ok());
  EXPECT_GT(more.lsn, lsns.back());
  recs.clear();
  ASSERT_TRUE(log.ReadAll(&recs).ok());
  EXPECT_EQ(recs.size(), lsns.size() + 1);
}

TEST(WalSegmentTest, TornTailInTailSegmentHealsWithoutSuppressingPriorSegments) {
  // Satellite 1: the torn-tail probe is bounded by the segment, so a tear
  // at the very end of the chain self-heals while every sealed segment's
  // records — arbitrarily far below the 64 KiB window the flat log used to
  // probe — survive untouched.
  MemEnv env;
  std::vector<Lsn> lsns;
  std::string tail_name;
  {
    LogManager log(&env, "wal", SmallSegments());
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 40; ++i) {
      LogRecord rec = MakeInsert(1, 1, KeyN(i), std::string(40, 'v'));
      ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
      lsns.push_back(rec.lsn);
    }
    ASSERT_GT(log.segment_count(), 2u);
    tail_name = log.tail_segment_name();
  }
  // Tear: garbage appended to the tail segment behind the manager's back.
  {
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.NewFile(tail_name, &f).ok());
    ASSERT_TRUE(f->Append("partial-frame-garbage").ok());
  }
  LogManager log(&env, "wal", SmallSegments());
  ASSERT_TRUE(log.Open().ok()) << "a torn tail must self-heal";
  EXPECT_EQ(log.open_dropped_bytes(), sizeof("partial-frame-garbage") - 1);
  std::vector<LogRecord> recs;
  ASSERT_TRUE(log.ReadAll(&recs).ok());
  ASSERT_EQ(recs.size(), lsns.size()) << "no sealed-segment record may vanish";
}

TEST(WalSegmentTest, MidSegmentDamageBelowAValidFrameIsCorruption) {
  MemEnv env;
  std::string tail_name;
  {
    LogManager log(&env, "wal", SmallSegments());
    ASSERT_TRUE(log.Open().ok());
    // Two records in the tail segment so damage to the first leaves a valid
    // frame beyond it.
    LogRecord a = MakeInsert(1, 1, "aaaa", std::string(40, 'v'));
    LogRecord b = MakeInsert(1, 1, "bbbb", std::string(40, 'v'));
    ASSERT_TRUE(log.AppendAndFlush(&a).ok());
    ASSERT_TRUE(log.AppendAndFlush(&b).ok());
    ASSERT_EQ(log.segment_count(), 1u);
    tail_name = log.tail_segment_name();
  }
  {
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.NewFile(tail_name, &f).ok());
    ASSERT_TRUE(f->Write(LogManager::kSegmentHeaderSize +
                             LogManager::kFrameHeader + 2,
                         Slice("\xDE\xAD\xBE\xEF", 4))
                    .ok());
  }
  LogManager log(&env, "wal", SmallSegments());
  Status s = log.Open();
  EXPECT_TRUE(s.IsCorruption())
      << "valid frame beyond damage must refuse to heal: " << s.ToString();
}

TEST(WalSegmentTest, DamageInASealedSegmentIsCorruption) {
  MemEnv env;
  {
    LogManager log(&env, "wal", SmallSegments());
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 40; ++i) {
      LogRecord rec = MakeInsert(1, 1, KeyN(i), std::string(40, 'v'));
      ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
    }
    ASSERT_GT(log.segment_count(), 2u);
  }
  // Flip bytes inside sealed segment 1's first frame.
  {
    std::unique_ptr<File> f;
    ASSERT_TRUE(
        env.NewFile(LogManager::SegmentFileName("wal", 1), &f).ok());
    ASSERT_TRUE(f->Write(LogManager::kSegmentHeaderSize +
                             LogManager::kFrameHeader + 2,
                         Slice("\xDE\xAD\xBE\xEF", 4))
                    .ok());
  }
  LogManager log(&env, "wal", SmallSegments());
  ASSERT_TRUE(log.Open().ok()) << "Open validates headers, not every frame";
  std::vector<LogRecord> recs;
  LogReadStats stats;
  ASSERT_TRUE(log.ReadAll(&recs, 0, &stats).ok());
  EXPECT_TRUE(stats.mid_log_corruption)
      << "damage in a sealed segment is never a healable torn tail";
}

TEST(WalSegmentTest, MissingMiddleSegmentIsCorruption) {
  MemEnv env;
  {
    LogManager log(&env, "wal", SmallSegments());
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 40; ++i) {
      LogRecord rec = MakeInsert(1, 1, KeyN(i), std::string(40, 'v'));
      ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
    }
    ASSERT_GT(log.segment_count(), 2u);
  }
  ASSERT_TRUE(env.DeleteFile(LogManager::SegmentFileName("wal", 2)).ok());
  LogManager log(&env, "wal", SmallSegments());
  Status s = log.Open();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(WalSegmentTest, TruncateBelowRemovesOnlyWhollyDeadSegmentsAndRecycles) {
  MemEnv env;
  LogManager log(&env, "wal", SmallSegments());
  ASSERT_TRUE(log.Open().ok());
  std::vector<Lsn> lsns;
  for (int i = 0; i < 60; ++i) {
    LogRecord rec = MakeInsert(1, 1, KeyN(i), std::string(40, 'v'));
    ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
    lsns.push_back(rec.lsn);
  }
  const size_t before = log.segment_count();
  ASSERT_GT(before, 4u);

  // Floor in the middle of the chain: only segments wholly below it go.
  const Lsn floor = lsns[lsns.size() / 2];
  ASSERT_TRUE(log.TruncateBelow(floor).ok());
  EXPECT_GT(log.segments_truncated(), 0u);
  EXPECT_LT(log.segment_count(), before);
  EXPECT_LE(log.LowestLsn(), floor)
      << "the segment holding the floor must survive";
  EXPECT_EQ(log.recycle_pool_size(), 2u) << "recycle_max parks two victims";

  // Everything at/above the floor still reads.
  std::vector<LogRecord> recs;
  ASSERT_TRUE(log.ReadAll(&recs, floor).ok());
  std::set<Lsn> seen;
  for (const auto& r : recs) seen.insert(r.lsn);
  for (Lsn l : lsns) {
    if (l >= floor) {
      EXPECT_TRUE(seen.count(l)) << "lsn " << l << " lost";
    }
  }
  // Reads below the front segment say NotFound, not garbage.
  LogRecord rec;
  EXPECT_TRUE(log.ReadAt(lsns[0], &rec).IsNotFound());

  // Rotation now reuses the parked files instead of creating fresh ones.
  const uint64_t created_before = log.segments_created();
  for (int i = 0; i < 30; ++i) {
    std::string key = std::string("m").append(std::to_string(i));
    LogRecord more = MakeInsert(1, 1, key, std::string(40, 'v'));
    ASSERT_TRUE(log.AppendAndFlush(&more).ok());
  }
  EXPECT_GT(log.segments_recycled(), 0u);
  EXPECT_EQ(log.recycle_pool_size(), 0u);
  // Fresh creations resume only after the pool drained.
  EXPECT_GE(log.segments_created(), created_before);

  // The truncated+recycled chain still reopens clean (seq gap at the front
  // is legal; a gap in the middle is not).
  std::vector<LogRecord> before_reopen;
  ASSERT_TRUE(log.ReadAll(&before_reopen).ok());
  LogManager reopened(&env, "wal", SmallSegments());
  ASSERT_TRUE(reopened.Open().ok());
  std::vector<LogRecord> after_reopen;
  ASSERT_TRUE(reopened.ReadAll(&after_reopen).ok());
  ASSERT_EQ(after_reopen.size(), before_reopen.size());
}

TEST(WalSegmentTest, TruncateNeverRemovesTheTailSegment) {
  MemEnv env;
  LogManager log(&env, "wal", SmallSegments());
  ASSERT_TRUE(log.Open().ok());
  LogRecord rec = MakeInsert(1, 1, "only", "v");
  ASSERT_TRUE(log.AppendAndFlush(&rec).ok());
  // A floor far past the end must still leave the (tail) segment in place.
  ASSERT_TRUE(log.TruncateBelow(rec.lsn + 1000000).ok());
  EXPECT_EQ(log.segment_count(), 1u);
  LogRecord got;
  ASSERT_TRUE(log.ReadAt(rec.lsn, &got).ok());
  EXPECT_EQ(got.key, "only");
}

// ---------------------------------------------------------------------------
// Satellite 3: deterministic truncation-vs-checkpoint race against an active
// reorganization's side-file drain. The switcher is forced through
// step-aside rounds; from inside each released-lock window a full
// Checkpoint() (which truncates the WAL) runs while the reorg unit is still
// open and its side file still holds undrained entries. The assertion: the
// segment holding the open unit's BEGIN record — the forward-recovery floor
// — is never removed, and a crash taken right after any such checkpoint
// still recovers to the correct tree.
// ---------------------------------------------------------------------------
TEST(WalSegmentTest, TruncationDuringSwitchDrainPreservesRecoveryFloor) {
  MemEnv env;
  DatabaseOptions opts;
  opts.buffer_pool_pages = 64;
  opts.wal_segment_bytes = 4096;
  opts.wal_recycle_segments = 2;
  opts.redo_threads = 4;
  opts.reorg.switcher.force_step_asides = 2;
  opts.reorg.switcher.step_aside_wait_ms = 10;

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  std::vector<std::pair<std::string, std::string>> model;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    std::string value(40, 'v');
    ASSERT_TRUE(db->Put(key, value).ok());
    if (i % 3 != 0) {
      ASSERT_TRUE(db->Delete(key).ok());
    } else {
      model.emplace_back(key, value);
    }
  }
  ASSERT_TRUE(db->Checkpoint().ok());

  Database* raw = db.get();
  int checkpoints_in_window = 0;
  bool floor_violated = false;
  db->reorganizer()->options()->switcher.on_step_aside = [&] {
    // The race, made deterministic: checkpoint + truncation while the
    // switch is parked mid-drain with an open reorg unit.
    Status s = raw->Checkpoint();
    if (!s.ok()) return;
    ++checkpoints_in_window;
    ReorgTableSnapshot snap = raw->reorg_table()->Snapshot();
    if (snap.has_open_unit && snap.begin_lsn != kInvalidLsn &&
        raw->log_manager()->LowestLsn() > snap.begin_lsn) {
      floor_violated = true;  // a needed segment was truncated away
    }
  };

  ASSERT_TRUE(db->Reorganize().ok());
  EXPECT_GT(checkpoints_in_window, 0)
      << "the race window never opened — the test lost its teeth";
  EXPECT_FALSE(floor_violated)
      << "truncation removed a segment at/above the forward-recovery floor";

  // The truncated log still carries everything recovery needs: crash now
  // and come back.
  db.reset();
  env.Crash();
  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(&env, opts, &recovered).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(recovered
                  ->Scan(Slice(), Slice(),
                         [&](const Slice& k, const Slice& v) {
                           got.emplace_back(k.ToString(), v.ToString());
                           return true;
                         })
                  .ok());
  EXPECT_EQ(got, model);
  ASSERT_TRUE(recovered->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
