// Deterministic schedules for the two ways a "next page" step can go wrong
// beside pass 3, pinned with the schedule harness's lock points:
//
//   * a scan hop reads the last leaf of an old-tree base page, the §7.4
//     switch flips the root, and only then does the scan take its step to
//     the next page. The step must continue from that leaf's own upper
//     bound; asking the (new) tree for "the next base page" from the old
//     page's last separator jumps over every leaf that now shares a base
//     page with it;
//   * the pass-3 builder has fed one old base page, whose entries span two
//     new base pages, to the bottom-up builder, and an updater's X-coupled
//     split races its Get_Next step. Get_Next must not need a lock while
//     the base page is still S-locked: a lost deadlock there used to force
//     a re-read that fed the closed new page's entries a second time.
//
// Both schedules run with optimistic reads on and off.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/sim/schedule.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace soreorg {
namespace {

class NextPageScheduleTest : public ::testing::TestWithParam<bool> {
 protected:
  void Open(size_t pool_pages = 4096) {
    DatabaseOptions options;
    options.tree.optimistic_reads = GetParam();
    options.buffer_pool_pages = pool_pages;
    ASSERT_TRUE(Database::Open(&env_, options, &db_).ok());
  }

  // The base pages of the live tree, left to right, with their children.
  std::vector<std::vector<PageId>> BaseChildren() {
    std::vector<PageId> bases;
    EXPECT_TRUE(db_->tree()->CollectBasePages(&bases).ok());
    std::vector<std::vector<PageId>> out;
    for (PageId b : bases) {
      Page* page;
      EXPECT_TRUE(db_->buffer_pool()->FetchPage(b, &page).ok());
      InternalNode node(page);
      std::vector<PageId> children;
      for (int i = 0; i < node.Count(); ++i) children.push_back(node.ChildAt(i));
      db_->buffer_pool()->UnpinPage(b, false);
      out.push_back(std::move(children));
    }
    return out;
  }

  std::string FirstKeyOf(PageId leaf) {
    Page* page;
    EXPECT_TRUE(db_->buffer_pool()->FetchPage(leaf, &page).ok());
    std::string key = LeafNode(page).KeyAt(0).ToString();
    db_->buffer_pool()->UnpinPage(leaf, false);
    return key;
  }

  // Every key is reachable by Get and by one full scan, exactly once and
  // in order, and the tree passes its invariant check.
  void ExpectAllKeys(const std::vector<std::string>& keys) {
    ASSERT_TRUE(db_->tree()->CheckConsistency().ok())
        << db_->tree()->CheckConsistency().ToString();
    for (const std::string& k : keys) {
      std::string v;
      ASSERT_TRUE(db_->Get(k, &v).ok()) << "Get lost key " << DecodeU64Key(k);
    }
    std::vector<std::string> scanned;
    ASSERT_TRUE(db_->Scan(Slice(), Slice(),
                          [&](const Slice& k, const Slice&) {
                            scanned.push_back(k.ToString());
                            return true;
                          })
                    .ok());
    EXPECT_EQ(Divergence(scanned, keys), "");
  }

  // Where a scan's output first departs from the expected keys ("" if not).
  static std::string Divergence(const std::vector<std::string>& got,
                                const std::vector<std::string>& want) {
    size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    if (i == got.size() && i == want.size()) return "";
    auto at = [](const std::vector<std::string>& v, size_t j) {
      return j < v.size() ? std::to_string(DecodeU64Key(v[j])) : "end";
    };
    return "position " + std::to_string(i) + ": got " + at(got, i) +
           ", want " + at(want, i) + " (" + std::to_string(got.size()) +
           " keys scanned, " + std::to_string(want.size()) + " expected)";
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

INSTANTIATE_TEST_SUITE_P(Reads, NextPageScheduleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "optimistic" : "locked";
                         });

// Scan hop across the root flip. The blocker's X lock on the leaf makes the
// optimistic attempt refuse the page and parks the hop's locked descent,
// so with reads either way the hop reads the leaf under its S lock; the
// hop is then held at that lock's release — after the leaf was copied and
// before the step to the next page — while pass 3 builds the new upper
// levels and flips the root.
TEST_P(NextPageScheduleTest, ScanHopAcrossRootFlipReturnsEveryKeyOnce) {
  Open();
  // Half-full old base pages; the rebuild packs them to 0.9, so the last
  // leaf of the first old base page sits mid-page in the new tree.
  auto records = MakeRecords(20000, 64);
  ASSERT_TRUE(db_->BulkLoad(records, 0.9, 0.5).ok());
  std::vector<std::vector<PageId>> bases = BaseChildren();
  ASSERT_GE(bases.size(), 3u);
  const PageId leaf = bases[0].back();
  const std::string start = FirstKeyOf(leaf);
  std::vector<std::string> expected;
  for (const auto& [k, v] : records) {
    if (k >= start) expected.push_back(k);
  }
  std::vector<std::string> all_keys;
  for (const auto& [k, v] : records) all_keys.push_back(k);
  const uint64_t inc_before = db_->tree()->incarnation();

  ScheduleController ctrl(
      ScheduleOptions{.seed = 1, .step_timeout_ms = 30000, .settle_us = 2000});
  ctrl.InstallLockHooks(db_->lock_manager());
  auto hop_released = std::make_shared<std::atomic<int>>(0);
  auto switch_drain = std::make_shared<std::atomic<int>>(0);
  ctrl.SetLockPointPredicate([=](LockEvent e, const LockName& name,
                                 LockMode mode) {
    // The scan hop gives up the leaf's S lock: the batch is copied, the
    // next-page step has not started.
    if (e == LockEvent::kUnlock && name == PageLock(leaf)) {
      return hop_released->fetch_add(1) == 0;
    }
    // The switcher asks for the old tree's X lock: the root has flipped.
    if (e == LockEvent::kRequest && name.space == LockSpace::kTree &&
        mode == LockMode::kX) {
      return switch_drain->fetch_add(1) == 0;
    }
    return false;
  });

  constexpr TxnId kBlocker = 4242;
  Status scan_status, reorg_status;
  std::vector<std::string> scanned;
  ctrl.Spawn("blocker", [&] {
    ctrl.Point("begin");
    ASSERT_TRUE(
        db_->lock_manager()->Lock(kBlocker, PageLock(leaf), LockMode::kX).ok());
    ctrl.Point("held");
    db_->lock_manager()->ReleaseAll(kBlocker);
  });
  ctrl.Spawn("scanner", [&] {
    ctrl.Point("begin");
    scan_status = db_->Scan(start, Slice(), [&](const Slice& k, const Slice&) {
      scanned.push_back(k.ToString());
      return true;
    });
  });
  ctrl.Spawn("switcher", [&] {
    ctrl.Point("begin");
    reorg_status = db_->reorganizer()->RunInternalPass();
  });
  ctrl.SetScript({
      "blocker",   // X on the leaf
      "scanner",   // first hop: parks for the leaf's S lock
      "blocker",   // release; the hop copies the leaf, stops at its unlock
      "switcher",  // pass 3 builds and flips, stops at the old-tree drain
      "scanner",   // the next-page step and the rest of the scan
  });
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  ASSERT_TRUE(hop_released->load() > 0 && switch_drain->load() > 0)
      << ctrl.TraceString();
  ASSERT_TRUE(scan_status.ok()) << scan_status.ToString();
  ASSERT_TRUE(reorg_status.ok()) << reorg_status.ToString();
  EXPECT_GT(db_->tree()->incarnation(), inc_before);
  EXPECT_EQ(Divergence(scanned, expected), "");
  ExpectAllKeys(all_keys);
}

// Builder Get_Next against an updater's split. The builder is held at its
// second root lock request — just past the first base page — while an
// updater splits a full leaf under that page; then both run free.
TEST_P(NextPageScheduleTest, BuilderGetNextRacingSplitKeepsTreeConsistent) {
  Open();
  // Full leaves (any insert splits) under 0.9-full base pages; the rebuild
  // packs new base pages to 0.3, so the first old base page's entries span
  // several new ones.
  auto records = MakeRecords(15000, 64);
  ASSERT_TRUE(db_->BulkLoad(records, 1.0, 0.9).ok());
  db_->reorganizer()->options()->builder.internal_fill = 0.3;
  ASSERT_GE(BaseChildren().size(), 2u);
  const PageId root = db_->tree()->root();
  const std::string new_key = EncodeU64Key(51);  // first leaf, first page

  ScheduleController ctrl(
      ScheduleOptions{.seed = 1, .step_timeout_ms = 30000, .settle_us = 2000});
  ctrl.InstallLockHooks(db_->lock_manager());
  auto root_requests = std::make_shared<std::atomic<int>>(0);
  ctrl.SetLockPointPredicate([=](LockEvent e, const LockName& name,
                                 LockMode mode) {
    return e == LockEvent::kRequest && name == PageLock(root) &&
           mode == LockMode::kS && root_requests->fetch_add(1) == 1;
  });

  Status reorg_status, put_status;
  ctrl.Spawn("builder", [&] {
    ctrl.Point("begin");
    reorg_status = db_->reorganizer()->RunInternalPass();
  });
  ctrl.Spawn("updater", [&] {
    ctrl.Point("begin");
    put_status = db_->Put(new_key, std::string(64, 'u'));
  });
  ctrl.SetScript({
      "builder",  // reads the first base page; stops at the next root request
      "updater",  // splits a leaf under that page
      "builder",  // Get_Next and the rest of pass 3
  });
  ASSERT_TRUE(ctrl.Run().ok()) << ctrl.TraceString();

  ASSERT_TRUE(put_status.ok()) << put_status.ToString();
  ASSERT_TRUE(reorg_status.ok()) << reorg_status.ToString();
  std::vector<std::string> all_keys;
  for (const auto& [k, v] : records) all_keys.push_back(k);
  all_keys.insert(all_keys.begin() + 6, new_key);  // 0, 10, .., 50, 51, 60
  ExpectAllKeys(all_keys);
}

}  // namespace
}  // namespace soreorg
