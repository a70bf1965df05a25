// Deterministic schedules for the latch-free read path against the
// reorganizer. Two windows matter:
//
//   * pass 2 (RX held on a leaf being moved): the optimistic reader must see
//     the page mark, refuse the latch-free image, and fall into the Table-1
//     protocol — back off, wait out the RX with an instant RS on the base
//     page, and retry after the reorganizer releases;
//   * the pass-3 switch window (§7.4): reads issued while the switcher holds
//     the old tree's X lock must still answer correctly, whether they pass
//     optimistically (incarnation re-check) or drain behind the tree lock.
//
// Both are pinned by script / lock-point predicate, not by stress, and both
// run under the tsan preset.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/btree/iterator.h"
#include "src/db/database.h"
#include "src/sim/schedule.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace soreorg {
namespace {

// An optimistic reader that hits a leaf under RX: the page mark forces the
// fallback, and the fallback runs the paper's back-off/RS-wait dance.
TEST(ReadPathScheduleTest, ReaderFallsBackAndBacksOffUnderRx) {
  MemEnv env;
  DatabaseOptions options;  // optimistic_reads defaults to on
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, options, &db).ok());
  const std::string key = EncodeU64Key(100);
  ASSERT_TRUE(db->Put(key, "moving-value").ok());
  std::string warm;
  ASSERT_TRUE(db->Get(key, &warm).ok());  // resident: descent would succeed

  // The leaf the key lives on and its base page, via latch-free probes.
  OptimisticPageGuard images[2];
  BTree::Descent probe{.access = BTree::Access::kOptimistic, .images = images};
  ASSERT_TRUE(db->tree()->Descend(kInvalidTxnId, key, &probe).ok());
  PageId leaf = probe.pid;
  probe.stop_level = 1;
  ASSERT_TRUE(db->tree()->Descend(kInvalidTxnId, key, &probe).ok());
  PageId base = probe.pid;

  ReadPathStats before = db->tree()->read_path_stats();
  LockManager* lm = db->lock_manager();
  ScheduleController ctrl;
  ctrl.InstallLockHooks(lm);

  Status get_status;
  std::string value;
  ctrl.Spawn("reorg", [&] {
    ctrl.Point("begin");
    // Pass-2's per-leaf posture: R on the base page, RX on the leaf being
    // moved. The reader's instant RS on the base is what waits the R out.
    ASSERT_TRUE(lm->Lock(kReorgTxnId, PageLock(base), LockMode::kR).ok());
    ASSERT_TRUE(lm->Lock(kReorgTxnId, PageLock(leaf), LockMode::kRX).ok());
    ctrl.Point("rx-held");
    lm->ReleaseAll(kReorgTxnId);
  });
  ctrl.Spawn("reader", [&] {
    ctrl.Point("begin");
    // Optimistic descent sees the leaf's mark -> fallback -> locked path
    // backs off from the RX, waits via instant RS, retries after release.
    get_status = db->Get(key, &value);
  });
  // reorg takes RX; reader runs its Get until it parks in the RS wait;
  // reorg releases; the reader's retry completes in free-run.
  ctrl.SetScript({"reorg", "reader", "reorg"});
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  ASSERT_TRUE(get_status.ok()) << get_status.ToString();
  EXPECT_EQ(value, "moving-value");

  ReadPathStats after = db->tree()->read_path_stats();
  EXPECT_GE(after.fallbacks, before.fallbacks + 1)
      << "the reader should have abandoned the optimistic path";

  // The fallback really ran the paper's protocol, in order.
  std::string leaf_name = "page/" + std::to_string(leaf);
  int backoff = ctrl.TraceIndex("reader:backoff:" + leaf_name + ":S");
  int rs_done = ctrl.TraceIndex("reader:instant-granted");
  int retry = ctrl.TraceIndex("reader:granted:" + leaf_name + ":S");
  ASSERT_GE(backoff, 0) << ctrl.TraceString();
  ASSERT_GE(rs_done, 0) << ctrl.TraceString();
  ASSERT_GE(retry, 0) << ctrl.TraceString();
  EXPECT_LT(backoff, rs_done) << ctrl.TraceString();
  EXPECT_LT(rs_done, retry) << ctrl.TraceString();
}

// Reads racing the pass-3 switch itself: the switcher is parked at the
// moment it is granted X on a tree lock (the switch window), the reader
// issues Gets right inside that window, and again after the switch
// completes. Every answer must be correct and the incarnation must have
// moved.
TEST(ReadPathScheduleTest, GetsInsideSwitchWindowStayCorrect) {
  MemEnv env;
  DatabaseOptions options;
  options.buffer_pool_pages = 4096;  // resident: optimistic path engages
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, options, &db).ok());

  std::vector<uint64_t> survivors;
  ASSERT_TRUE(
      SparsifyByDeletion(db.get(), 2000, 64, 0.95, 0.7, 10, 5, &survivors)
          .ok());
  ASSERT_FALSE(survivors.empty());
  uint64_t probe_key = survivors[survivors.size() / 2];
  std::string warm;
  ASSERT_TRUE(db->Get(EncodeU64Key(probe_key), &warm).ok());

  uint64_t inc_before = db->tree()->incarnation();

  ScheduleController ctrl(
      ScheduleOptions{.seed = 1, .step_timeout_ms = 30000, .settle_us = 2000});
  ctrl.InstallLockHooks(db->lock_manager());
  // Park the switcher the moment any tree-lock X is granted: inside the
  // switch window, before the drain completes.
  ctrl.SetLockPointPredicate([](LockEvent e, const LockName& name, LockMode m) {
    return e == LockEvent::kGranted && name.space == LockSpace::kTree &&
           m == LockMode::kX;
  });

  Status reorg_status, get_in_window, get_after;
  std::string v_in_window, v_after;
  ctrl.Spawn("switcher", [&] {
    ctrl.Point("begin");
    reorg_status = db->Reorganize();
    ctrl.Note("reorg-done");
  });
  ctrl.Spawn("reader", [&] {
    ctrl.Point("begin");
    get_in_window = db->Get(EncodeU64Key(probe_key), &v_in_window);
    ctrl.Point("read-in-window");
    get_after = db->Get(EncodeU64Key(probe_key), &v_after);
  });
  // switcher runs the whole reorg until the predicate parks it at the
  // window; reader issues its in-window Get (parking behind the tree lock
  // if it falls back); the epilogue free-runs both to completion.
  ctrl.SetScript({"switcher", "reader", "switcher"});
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  ASSERT_TRUE(reorg_status.ok()) << reorg_status.ToString();
  ASSERT_TRUE(get_in_window.ok()) << get_in_window.ToString();
  ASSERT_TRUE(get_after.ok()) << get_after.ToString();
  EXPECT_EQ(v_in_window, warm);
  EXPECT_EQ(v_after, warm);
  EXPECT_GT(db->tree()->incarnation(), inc_before);
  ASSERT_TRUE(db->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
