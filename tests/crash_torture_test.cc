// Crash-torture sweeps (ISSUE 5 acceptance): crash at *every* WAL and page
// I/O point of a full insert -> delete -> reorganize cycle, recover, and
// verify the recovered tree equals the pre-reorg model and passes the
// invariant checker. Torn-page mode additionally requires every tear to be
// either invisible (superseded by redo) or *detected* via the page checksum
// — never silently accepted into a wrong tree.

#include "src/sim/torture.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace soreorg {
namespace {

TortureOptions SmallWorkload(TortureMode mode) {
  TortureOptions opt;
  opt.mode = mode;
  opt.records = 800;
  opt.value_size = 40;
  // A small pool forces evictions mid-reorganization, so the sweep also
  // crosses page writes issued by victim flushes, not just checkpoints.
  opt.db.buffer_pool_pages = 24;
  return opt;
}

void LogStats(const TortureStats& stats) {
  std::fprintf(stderr,
               "[torture] points_total=%d tested=%d fired=%d recoveries_ok=%d "
               "detected=%d failures=%d\n",
               stats.points_total, stats.points_tested, stats.faults_fired,
               stats.recoveries_ok, stats.detected_corruptions,
               stats.failures);
  for (const auto& d : stats.failure_details) {
    std::fprintf(stderr, "[torture]   %s\n", d.c_str());
  }
}

TEST(CrashTortureTest, CleanCrashAtEveryIoPoint) {
  TortureHarness harness(SmallWorkload(TortureMode::kCleanCrash));
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_GT(stats.points_total, 0);
  EXPECT_EQ(stats.points_tested, stats.points_total);
  EXPECT_EQ(stats.faults_fired, stats.points_tested);
  // A clean crash never tears anything, so nothing should read as corrupt.
  EXPECT_EQ(stats.detected_corruptions, 0);
  EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
}

TEST(CrashTortureTest, CleanCrashThenCompleteReorganization) {
  // Forward recovery (§5.1) promises more than a readable tree: the
  // reorganization must be *resumable*. Crash at every 3rd point, recover,
  // run Reorganize() to completion, verify again.
  TortureOptions opt = SmallWorkload(TortureMode::kCleanCrash);
  opt.stride = 3;
  opt.complete_after = true;
  TortureHarness harness(opt);
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
}

TEST(CrashTortureTest, CleanCrashAcrossStepAsideWindow) {
  // ISSUE 6: the step-aside protocol releases and re-acquires the side-file
  // X lock mid-switch, with a live updater transaction running inside the
  // window. Force two step-aside rounds on every Reorganize() so the sweep's
  // crash points land before, inside, and after the release-reacquire
  // window — including mid-transaction of the window updater — then recover
  // and complete. The model must hold at every point: the window updater
  // deletes and re-inserts one model key, so commit and rollback are both
  // model-equal.
  TortureOptions opt = SmallWorkload(TortureMode::kCleanCrash);
  opt.stride = 3;
  opt.complete_after = true;
  opt.force_step_asides = 2;
  TortureHarness harness(opt);
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
}

TEST(CrashTortureTest, TornWalWriteAcrossStepAsideWindow) {
  // Same window, torn-WAL flavor: the window updater's own log records are
  // the ones being cut short, and recovery must still converge on the model.
  TortureOptions opt = SmallWorkload(TortureMode::kTornWalWrite);
  opt.stride = 4;
  opt.force_step_asides = 2;
  TortureHarness harness(opt);
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.detected_corruptions, 0);
  EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
}

TEST(CrashTortureTest, TornPageWriteAtEveryPageIoPoint) {
  TortureHarness harness(SmallWorkload(TortureMode::kTornPageWrite));
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.points_tested, stats.points_total);
  // Every iteration either recovered model-equal or detected the tear.
  EXPECT_EQ(stats.recoveries_ok + stats.detected_corruptions,
            stats.points_tested);
}

TEST(CrashTortureTest, TornPageWriteTinyPrefix) {
  // A 100-byte prefix leaves even the page header torn — the checksum field
  // itself may be half old, half new.
  TortureOptions opt = SmallWorkload(TortureMode::kTornPageWrite);
  opt.tear_keep_bytes = 100;
  opt.stride = 2;
  TortureHarness harness(opt);
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
}

TEST(CrashTortureTest, CleanCrashAcrossSegmentRotationAndTruncation) {
  // ISSUE 10 acceptance: tiny WAL segments force rotation every few records,
  // and a checkpoint inside the swept window drives truncation — so the
  // sweep crashes at every I/O point of the seal / create-or-recycle /
  // dirsync / park-rename / delete protocol, not just at record writes.
  // Recovery (on 4 redo lanes) must produce the model at every point.
  TortureOptions opt = SmallWorkload(TortureMode::kCleanCrash);
  opt.stride = 3;
  opt.checkpoint_churn_txns = 24;
  opt.db.wal_segment_bytes = 4096;
  opt.db.wal_recycle_segments = 2;
  opt.db.redo_threads = 4;
  TortureHarness harness(opt);
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.detected_corruptions, 0);
  EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
}

TEST(CrashTortureTest, CleanCrashResumesNewPlaceUnitsAcrossSegmentShapes) {
  // Crash at every point with segment sizes and churn that put a new-place
  // unit's MOVE in the log but not its END. Redo rebuilds the destination;
  // the resumed unit must continue from that image, not from a fresh frame,
  // or the moved records vanish and the scan comes up short. Tier-1 runs
  // three shapes; SOREORG_TORTURE_SEGMENT_MATRIX=1 runs churn {8, 16, 24,
  // 40} x segment bytes {2048, ..., 8192}.
  std::vector<std::pair<int, size_t>> shapes = {
      {8, 2048}, {16, 4096}, {24, 3072}};
  const char* matrix = std::getenv("SOREORG_TORTURE_SEGMENT_MATRIX");
  if (matrix != nullptr && std::string(matrix) == "1") {
    shapes.clear();
    for (int churn : {8, 16, 24, 40}) {
      for (size_t bytes : {2048, 3072, 4096, 5120, 6144, 8192}) {
        shapes.emplace_back(churn, bytes);
      }
    }
  }
  for (const auto& [churn, segment_bytes] : shapes) {
    TortureOptions opt = SmallWorkload(TortureMode::kCleanCrash);
    opt.checkpoint_churn_txns = churn;
    opt.db.wal_segment_bytes = segment_bytes;
    opt.db.wal_recycle_segments = 2;
    TortureHarness harness(opt);
    TortureStats stats;
    Status s = harness.Run(&stats);
    std::fprintf(stderr, "[torture] churn=%d segment_bytes=%zu\n", churn,
                 segment_bytes);
    LogStats(stats);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(stats.failures, 0);
    EXPECT_EQ(stats.faults_fired, stats.points_tested);
    EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
  }
}

TEST(CrashTortureTest, TornWalWriteAcrossSegmentBoundaries) {
  // Torn WAL writes with segments so small that tears land on header
  // writes, seals, and final frames of a segment. A tear in segment N must
  // read as a torn tail (self-healing), never suppress valid frames in
  // segment N+1, and never read as silent corruption.
  TortureOptions opt = SmallWorkload(TortureMode::kTornWalWrite);
  opt.stride = 4;
  opt.checkpoint_churn_txns = 24;
  opt.db.wal_segment_bytes = 4096;
  opt.db.redo_threads = 4;
  TortureHarness harness(opt);
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.recoveries_ok + stats.detected_corruptions,
            stats.points_tested);
}

TEST(CrashTortureTest, TornWalWriteAtEveryWalIoPoint) {
  // A torn WAL frame is the normal post-crash state: recovery must treat it
  // as end-of-log and roll forward from what is durable — never error out,
  // never replay garbage.
  TortureHarness harness(SmallWorkload(TortureMode::kTornWalWrite));
  TortureStats stats;
  Status s = harness.Run(&stats);
  LogStats(stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.detected_corruptions, 0);  // torn tail is not corruption
  EXPECT_EQ(stats.recoveries_ok, stats.points_tested);
}

}  // namespace
}  // namespace soreorg
