// Direct tests of the node layouts (LeafNode / InternalNode) and the
// bottom-up InternalBuilder, including its crash-restart spine restore.

#include <gtest/gtest.h>

#include "src/btree/bulk_builder.h"
#include "src/btree/node.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/env.h"
#include "src/util/coding.h"

namespace soreorg {
namespace {

TEST(LeafNodeTest, InsertKeepsSortedOrderRegardlessOfArrival) {
  Page page;
  LeafNode::Format(&page, 7);
  LeafNode ln(&page);
  for (uint64_t k : {50ull, 10ull, 30ull, 20ull, 40ull}) {
    ASSERT_TRUE(ln.Insert(EncodeU64Key(k), "v").ok());
  }
  ASSERT_EQ(ln.Count(), 5);
  for (int i = 1; i < ln.Count(); ++i) {
    EXPECT_LT(ln.KeyAt(i - 1).compare(ln.KeyAt(i)), 0);
  }
  EXPECT_EQ(page.type(), PageType::kLeaf);
  EXPECT_EQ(page.level(), 0);
  EXPECT_EQ(page.header_page_id(), 7u);
}

TEST(LeafNodeTest, LowerBoundSemantics) {
  Page page;
  LeafNode::Format(&page, 1);
  LeafNode ln(&page);
  for (uint64_t k : {10ull, 20ull, 30ull}) {
    ASSERT_TRUE(ln.Insert(EncodeU64Key(k), "v").ok());
  }
  bool exact;
  EXPECT_EQ(ln.LowerBound(EncodeU64Key(5), &exact), 0);
  EXPECT_FALSE(exact);
  EXPECT_EQ(ln.LowerBound(EncodeU64Key(20), &exact), 1);
  EXPECT_TRUE(exact);
  EXPECT_EQ(ln.LowerBound(EncodeU64Key(25), &exact), 2);
  EXPECT_FALSE(exact);
  EXPECT_EQ(ln.LowerBound(EncodeU64Key(99), &exact), 3);
  EXPECT_FALSE(exact);
}

TEST(LeafNodeTest, DuplicateInsertRejected) {
  Page page;
  LeafNode::Format(&page, 1);
  LeafNode ln(&page);
  ASSERT_TRUE(ln.Insert("k", "1").ok());
  EXPECT_TRUE(ln.Insert("k", "2").IsInvalidArgument());
  EXPECT_EQ(ln.ValueAt(0), Slice("1"));
}

TEST(LeafNodeTest, SetValueAtHandlesSizeChanges) {
  Page page;
  LeafNode::Format(&page, 1);
  LeafNode ln(&page);
  ASSERT_TRUE(ln.Insert("a", "short").ok());
  ASSERT_TRUE(ln.Insert("b", "other").ok());
  ASSERT_TRUE(ln.SetValueAt(0, std::string(200, 'L')).ok());
  EXPECT_EQ(ln.ValueAt(0).size(), 200u);
  EXPECT_EQ(ln.KeyAt(0), Slice("a"));
  EXPECT_EQ(ln.ValueAt(1), Slice("other"));
  ASSERT_TRUE(ln.SetValueAt(0, "tiny").ok());
  EXPECT_EQ(ln.ValueAt(0), Slice("tiny"));
}

TEST(InternalNodeTest, FindChildClampsAndRoutes) {
  Page page;
  InternalNode::Format(&page, 9, /*level=*/1, Slice("low"));
  InternalNode node(&page);
  ASSERT_TRUE(node.Insert(EncodeU64Key(10), 100).ok());
  ASSERT_TRUE(node.Insert(EncodeU64Key(20), 200).ok());
  ASSERT_TRUE(node.Insert(EncodeU64Key(30), 300).ok());
  EXPECT_EQ(node.ChildAt(node.FindChild(EncodeU64Key(5))), 100u);  // clamp
  EXPECT_EQ(node.ChildAt(node.FindChild(EncodeU64Key(10))), 100u);
  EXPECT_EQ(node.ChildAt(node.FindChild(EncodeU64Key(19))), 100u);
  EXPECT_EQ(node.ChildAt(node.FindChild(EncodeU64Key(20))), 200u);
  EXPECT_EQ(node.ChildAt(node.FindChild(EncodeU64Key(999))), 300u);
  EXPECT_EQ(node.LowMark(), Slice("low"));
  EXPECT_EQ(page.level(), 1);
}

TEST(InternalNodeTest, SetKeyAtRepositionsEntry) {
  Page page;
  InternalNode::Format(&page, 9, 1, Slice());
  InternalNode node(&page);
  ASSERT_TRUE(node.Insert(EncodeU64Key(10), 100).ok());
  ASSERT_TRUE(node.Insert(EncodeU64Key(20), 200).ok());
  // Raise 10 -> 15 (stays slot 0), then raise to 25 (moves past 20).
  ASSERT_TRUE(node.SetKeyAt(0, EncodeU64Key(15)).ok());
  EXPECT_EQ(node.ChildAt(0), 100u);
  ASSERT_TRUE(node.SetKeyAt(0, EncodeU64Key(25)).ok());
  EXPECT_EQ(node.ChildAt(0), 200u);
  EXPECT_EQ(node.ChildAt(1), 100u);
  EXPECT_EQ(DecodeU64Key(node.KeyAt(1)), 25u);
}

TEST(InternalNodeTest, FindChildSlotAndSetChild) {
  Page page;
  InternalNode::Format(&page, 9, 1, Slice());
  InternalNode node(&page);
  ASSERT_TRUE(node.Insert(EncodeU64Key(10), 100).ok());
  ASSERT_TRUE(node.Insert(EncodeU64Key(20), 200).ok());
  EXPECT_EQ(node.FindChildSlot(200), 1);
  EXPECT_EQ(node.FindChildSlot(999), -1);
  node.SetChildAt(1, 222);
  EXPECT_EQ(node.ChildAt(1), 222u);
  EXPECT_EQ(DecodeU64Key(node.KeyAt(1)), 20u);  // key unchanged
}

TEST(PackCellsTest, RoundTrip) {
  Page page;
  LeafNode::Format(&page, 1);
  LeafNode ln(&page);
  for (uint64_t k : {1ull, 2ull, 3ull, 4ull}) {
    std::string v = std::string("v").append(std::to_string(k));
    ASSERT_TRUE(ln.Insert(EncodeU64Key(k), v).ok());
  }
  SlottedPage sp(&page);
  std::string bundle = PackCellRange(sp, 1, 3);
  std::vector<std::string> cells;
  ASSERT_TRUE(UnpackCells(Slice(bundle), &cells).ok());
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], sp.GetCell(1).ToString());
  EXPECT_EQ(cells[1], sp.GetCell(2).ToString());
  EXPECT_TRUE(UnpackCells(Slice(bundle.data(), bundle.size() - 1), &cells)
                  .IsCorruption());
}

class InternalBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    disk_ = std::make_unique<DiskManager>(env_.get(), "pages");
    ASSERT_TRUE(disk_->Open().ok());
    bp_ = std::make_unique<BufferPool>(disk_.get(), 256);
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> bp_;
};

TEST_F(InternalBuilderTest, SingleBasePageTree) {
  InternalBuilder b(bp_.get(), 0.9);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        b.Add(i == 0 ? Slice() : Slice(EncodeU64Key(i * 100)), 500 + i).ok());
  }
  PageId root;
  uint8_t height;
  ASSERT_TRUE(b.Finish(&root, &height).ok());
  EXPECT_EQ(height, 2);  // one base page IS the root
  Page* page;
  ASSERT_TRUE(bp_->FetchPage(root, &page).ok());
  InternalNode node(page);
  EXPECT_EQ(node.Count(), 10);
  EXPECT_EQ(node.ChildAt(node.FindChild(EncodeU64Key(550))), 505u);
  bp_->UnpinPage(root, false);
}

TEST_F(InternalBuilderTest, SpillsIntoMultipleLevels) {
  InternalBuilder b(bp_.get(), 0.9);
  const int kChildren = 2000;  // forces >1 base page and a parent level
  for (int i = 0; i < kChildren; ++i) {
    ASSERT_TRUE(b.Add(i == 0 ? Slice()
                             : Slice(EncodeU64Key(
                                   static_cast<uint64_t>(i) * 10)),
                      10000 + i)
                    .ok());
  }
  PageId root;
  uint8_t height;
  ASSERT_TRUE(b.Finish(&root, &height).ok());
  EXPECT_GE(height, 3);
  EXPECT_GT(b.created_pages().size(), 5u);
  // Route a few probes through the built levels.
  for (uint64_t probe : {0ull, 5000ull, 19990ull}) {
    PageId cur = root;
    while (true) {
      Page* page;
      ASSERT_TRUE(bp_->FetchPage(cur, &page).ok());
      InternalNode node(page);
      PageId child = node.ChildAt(node.FindChild(EncodeU64Key(probe)));
      uint8_t level = page->level();
      bp_->UnpinPage(cur, false);
      if (level == 1) {
        EXPECT_EQ(child, 10000 + probe / 10);
        break;
      }
      cur = child;
    }
  }
}

TEST_F(InternalBuilderTest, RestoreSpineResumesMidBuild) {
  // Build half the entries, snapshot the top page, then restore a fresh
  // builder from the spine and finish with the remaining entries.
  InternalBuilder b1(bp_.get(), 0.9);
  const int kHalf = 600;
  for (int i = 0; i < kHalf; ++i) {
    ASSERT_TRUE(b1.Add(i == 0 ? Slice()
                              : Slice(EncodeU64Key(
                                    static_cast<uint64_t>(i) * 10)),
                       20000 + i)
                    .ok());
  }
  PageId top = b1.TopPage();
  std::string stable_key = EncodeU64Key((kHalf - 1) * 10);

  InternalBuilder b2(bp_.get(), 0.9);
  ASSERT_TRUE(b2.RestoreSpine(top, stable_key).ok());
  for (int i = kHalf; i < 2 * kHalf; ++i) {
    ASSERT_TRUE(
        b2.Add(EncodeU64Key(static_cast<uint64_t>(i) * 10), 20000 + i).ok());
  }
  PageId root;
  uint8_t height;
  ASSERT_TRUE(b2.Finish(&root, &height).ok());

  // Every child must be reachable at the right position.
  for (int i : {0, kHalf - 1, kHalf, 2 * kHalf - 1, 137, 911}) {
    PageId cur = root;
    uint64_t probe = static_cast<uint64_t>(i) * 10 + 5;
    while (true) {
      Page* page;
      ASSERT_TRUE(bp_->FetchPage(cur, &page).ok());
      InternalNode node(page);
      PageId child = node.ChildAt(node.FindChild(EncodeU64Key(probe)));
      uint8_t level = page->level();
      bp_->UnpinPage(cur, false);
      if (level == 1) {
        EXPECT_EQ(child, 20000u + i) << "probe " << probe;
        break;
      }
      cur = child;
    }
  }
}

}  // namespace
}  // namespace soreorg
