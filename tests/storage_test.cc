#include <gtest/gtest.h>

#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/env.h"
#include "src/storage/slotted_page.h"

namespace soreorg {
namespace {

TEST(MemEnvTest, WriteReadSyncCrash) {
  MemEnv env;
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.NewFile("t", &f).ok());
  ASSERT_TRUE(f->Append("hello").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append(" world").ok());

  char buf[32];
  size_t n;
  ASSERT_TRUE(f->Read(0, sizeof(buf), buf, &n).ok());
  EXPECT_EQ(std::string(buf, n), "hello world");

  // Crash discards everything after the last sync.
  env.Crash();
  ASSERT_TRUE(f->Read(0, sizeof(buf), buf, &n).ok());
  EXPECT_EQ(std::string(buf, n), "hello");
}

TEST(SlottedPageTest, InsertGetRemove) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  EXPECT_EQ(sp.slot_count(), 0);

  ASSERT_TRUE(sp.InsertCell(0, "bbb").ok());
  ASSERT_TRUE(sp.InsertCell(0, "aaa").ok());
  ASSERT_TRUE(sp.InsertCell(2, "ccc").ok());
  ASSERT_EQ(sp.slot_count(), 3);
  EXPECT_EQ(sp.GetCell(0), Slice("aaa"));
  EXPECT_EQ(sp.GetCell(1), Slice("bbb"));
  EXPECT_EQ(sp.GetCell(2), Slice("ccc"));

  sp.RemoveCell(1);
  ASSERT_EQ(sp.slot_count(), 2);
  EXPECT_EQ(sp.GetCell(0), Slice("aaa"));
  EXPECT_EQ(sp.GetCell(1), Slice("ccc"));
}

TEST(SlottedPageTest, AuxBlobSurvivesChurn) {
  Page page;
  SlottedPage sp(&page);
  sp.Init(Slice("low-mark-key"));
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(sp.InsertCell(i, std::string(20, 'a' + i % 26)).ok());
    }
    for (int i = 49; i >= 0; --i) sp.RemoveCell(i);
  }
  EXPECT_EQ(sp.GetAux(), Slice("low-mark-key"));
  EXPECT_EQ(sp.slot_count(), 0);
}

TEST(SlottedPageTest, FillsToCapacityAndReportsFull) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  int inserted = 0;
  std::string cell(100, 'x');
  while (sp.InsertCell(inserted, cell).ok()) ++inserted;
  // ~4KB page / ~104 bytes per cell.
  EXPECT_GT(inserted, 30);
  EXPECT_LT(inserted, 45);
  EXPECT_TRUE(sp.InsertCell(0, cell).IsBusy());
  // Removing one makes room again (after compaction).
  sp.RemoveCell(5);
  EXPECT_TRUE(sp.InsertCell(0, cell).ok());
}

TEST(SlottedPageTest, CompactionReclaimsFragmentation) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string small(40, 's');
  int n = 0;
  while (sp.InsertCell(n, small).ok()) ++n;
  // Free every other cell -> fragmented space.
  for (int i = n - 1; i >= 0; i -= 2) sp.RemoveCell(i);
  // A large cell should fit once the page compacts internally.
  std::string large(600, 'L');
  EXPECT_TRUE(sp.InsertCell(0, large).ok());
}

TEST(SlottedPageTest, FillFactorMath) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  EXPECT_DOUBLE_EQ(sp.FillFactor(), 0.0);
  ASSERT_TRUE(sp.InsertCell(0, std::string(1000, 'x')).ok());
  double f = sp.FillFactor();
  EXPECT_GT(f, 0.2);
  EXPECT_LT(f, 0.3);
  EXPECT_EQ(sp.UsedSpace(), 1000u + 2 /*len*/ + 2 /*slot*/);
}

TEST(DiskManagerTest, AllocateWriteReadDeallocate) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());

  PageId a, b;
  ASSERT_TRUE(dm.AllocatePage(&a).ok());
  ASSERT_TRUE(dm.AllocatePage(&b).ok());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  Page page;
  page.set_page_lsn(77);
  page.SetHeaderPageId(a);
  ASSERT_TRUE(dm.WritePage(a, page).ok());

  Page read_back;
  ASSERT_TRUE(dm.ReadPage(a, &read_back).ok());
  EXPECT_EQ(read_back.page_lsn(), 77u);
  EXPECT_EQ(read_back.header_page_id(), a);

  ASSERT_TRUE(dm.DeallocatePage(a).ok());
  EXPECT_TRUE(dm.IsFree(a));
  EXPECT_TRUE(dm.DeallocatePage(a).IsInvalidArgument());  // double free
  PageId c;
  ASSERT_TRUE(dm.AllocatePage(&c).ok());
  EXPECT_EQ(c, a);  // lowest free id reused
}

TEST(DiskManagerTest, FirstFreeInRangeDrivesHeuristic) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  for (int i = 0; i < 10; ++i) {
    PageId p;
    dm.AllocatePage(&p);
  }
  dm.DeallocatePage(3);
  dm.DeallocatePage(7);
  EXPECT_EQ(dm.FirstFreeInRange(0, 10), 3u);
  EXPECT_EQ(dm.FirstFreeInRange(4, 10), 7u);
  EXPECT_EQ(dm.FirstFreeInRange(8, 10), kInvalidPageId);
  EXPECT_EQ(dm.FirstFreeInRange(4, 7), kInvalidPageId);
}

TEST(DiskManagerTest, MetaRoundTrip) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  for (int i = 0; i < 6; ++i) {
    PageId p;
    dm.AllocatePage(&p);
  }
  dm.DeallocatePage(2);
  dm.DeallocatePage(4);
  std::string meta = dm.SerializeMeta();

  DiskManager dm2(&env, "pages2");
  ASSERT_TRUE(dm2.Open().ok());
  ASSERT_TRUE(dm2.RestoreMeta(meta).ok());
  EXPECT_EQ(dm2.page_count(), 6u);
  EXPECT_TRUE(dm2.IsFree(2));
  EXPECT_TRUE(dm2.IsFree(4));
  EXPECT_FALSE(dm2.IsFree(3));
}

TEST(BufferPoolTest, FetchPinUnpinEvict) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  BufferPool bp(&dm, 4);

  std::vector<PageId> pids;
  for (int i = 0; i < 8; ++i) {
    PageId pid;
    Page* page;
    ASSERT_TRUE(bp.NewPage(&pid, &page).ok());
    page->data()[100] = static_cast<char>(i);
    ASSERT_TRUE(bp.UnpinPage(pid, true).ok());
    pids.push_back(pid);
  }
  // Pool only holds 4 frames: early pages were evicted (flushed) and must
  // read back correctly.
  for (int i = 0; i < 8; ++i) {
    Page* page;
    ASSERT_TRUE(bp.FetchPage(pids[i], &page).ok());
    EXPECT_EQ(page->data()[100], static_cast<char>(i));
    bp.UnpinPage(pids[i], false);
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  BufferPool bp(&dm, 2);

  PageId a;
  Page* pa;
  ASSERT_TRUE(bp.NewPage(&a, &pa).ok());
  PageId b;
  Page* pb;
  ASSERT_TRUE(bp.NewPage(&b, &pb).ok());
  // Both pinned; a third page cannot get a frame.
  PageId c;
  Page* pc;
  EXPECT_TRUE(bp.NewPage(&c, &pc).IsBusy());
  bp.UnpinPage(a, false);
  ASSERT_TRUE(bp.NewPage(&c, &pc).ok());
  bp.UnpinPage(b, false);
  bp.UnpinPage(c, false);
}

TEST(BufferPoolTest, WalInterlockFlushesLogFirst) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  Lsn flushed_to = 0;
  BufferPool bp(&dm, 4, [&](Lsn lsn) {
    flushed_to = lsn;
    return Status::OK();
  });
  PageId pid;
  Page* page;
  ASSERT_TRUE(bp.NewPage(&pid, &page).ok());
  page->set_page_lsn(12345);
  bp.UnpinPage(pid, true);
  ASSERT_TRUE(bp.FlushPage(pid).ok());
  EXPECT_EQ(flushed_to, 12345u);
}

TEST(BufferPoolTest, CarefulWritingOrdersFlushes) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  BufferPool bp(&dm, 8);

  PageId dest, src;
  Page* p;
  ASSERT_TRUE(bp.NewPage(&dest, &p).ok());
  p->data()[0] = 'D';
  bp.UnpinPage(dest, true);
  ASSERT_TRUE(bp.NewPage(&src, &p).ok());
  p->data()[0] = 'S';
  bp.UnpinPage(src, true);

  bp.AddWriteOrder(dest, src);
  // Flushing src must first write+sync dest.
  ASSERT_TRUE(bp.FlushPage(src).ok());
  EXPECT_TRUE(bp.IsDurable(dest));

  // And the durable image is correct even after a crash.
  env.Crash();
  Page back;
  ASSERT_TRUE(dm.ReadPage(dest, &back).ok());
  EXPECT_EQ(back.data()[0], 'D');
}

TEST(BufferPoolTest, DeferredDeallocGatesOnDurability) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  BufferPool bp(&dm, 8);

  PageId dest, victim;
  Page* p;
  ASSERT_TRUE(bp.NewPage(&dest, &p).ok());
  bp.UnpinPage(dest, true);
  ASSERT_TRUE(bp.NewPage(&victim, &p).ok());
  bp.UnpinPage(victim, true);
  bp.FlushPage(victim);

  ASSERT_TRUE(bp.DeletePageDeferred(victim, dest).ok());
  // dest not durable yet: victim must not be reusable.
  EXPECT_FALSE(dm.IsFree(victim));
  ASSERT_TRUE(bp.FlushAndSync().ok());
  EXPECT_TRUE(dm.IsFree(victim));
}

TEST(BufferPoolTest, ForcePagesSyncsSubset) {
  MemEnv env;
  DiskManager dm(&env, "pages");
  ASSERT_TRUE(dm.Open().ok());
  BufferPool bp(&dm, 8);
  PageId a, b;
  Page* p;
  ASSERT_TRUE(bp.NewPage(&a, &p).ok());
  bp.UnpinPage(a, true);
  ASSERT_TRUE(bp.NewPage(&b, &p).ok());
  bp.UnpinPage(b, true);
  ASSERT_TRUE(bp.ForcePages({a}).ok());
  EXPECT_TRUE(bp.IsDurable(a));
  EXPECT_FALSE(bp.IsDurable(b));
}

}  // namespace
}  // namespace soreorg
