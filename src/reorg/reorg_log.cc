#include "src/reorg/reorg_log.h"

#include <shared_mutex>

#include "src/btree/node.h"
#include "src/util/coding.h"

namespace soreorg {

std::string EncodeBeginPages(const std::vector<PageId>& base_pages,
                             const std::vector<PageId>& leaf_pages) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(base_pages.size()));
  for (PageId p : base_pages) PutFixed32(&out, p);
  PutVarint32(&out, static_cast<uint32_t>(leaf_pages.size()));
  for (PageId p : leaf_pages) PutFixed32(&out, p);
  return out;
}

Status DecodeBeginPages(const Slice& payload, std::vector<PageId>* base_pages,
                        std::vector<PageId>* leaf_pages) {
  Slice in = payload;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("begin payload");
  base_pages->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t p;
    if (!GetFixed32(&in, &p)) return Status::Corruption("begin payload");
    base_pages->push_back(p);
  }
  if (!GetVarint32(&in, &n)) return Status::Corruption("begin payload");
  leaf_pages->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t p;
    if (!GetFixed32(&in, &p)) return Status::Corruption("begin payload");
    leaf_pages->push_back(p);
  }
  return Status::OK();
}

std::string EncodeMovedRecords(
    const std::vector<std::pair<std::string, std::string>>& records) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(records.size()));
  for (const auto& [k, v] : records) {
    PutLengthPrefixedSlice(&out, k);
    PutLengthPrefixedSlice(&out, v);
  }
  return out;
}

Status DecodeMovedRecords(
    const Slice& payload,
    std::vector<std::pair<std::string, std::string>>* records) {
  Slice in = payload;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("move payload");
  records->clear();
  for (uint32_t i = 0; i < n; ++i) {
    Slice k, v;
    if (!GetLengthPrefixedSlice(&in, &k) || !GetLengthPrefixedSlice(&in, &v)) {
      return Status::Corruption("move payload");
    }
    records->emplace_back(k.ToString(), v.ToString());
  }
  return Status::OK();
}

std::string EncodeMovedKeys(const std::vector<std::string>& keys) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(keys.size()));
  for (const std::string& k : keys) PutLengthPrefixedSlice(&out, k);
  return out;
}

Status DecodeMovedKeys(const Slice& payload, std::vector<std::string>* keys) {
  Slice in = payload;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("move keys payload");
  keys->clear();
  for (uint32_t i = 0; i < n; ++i) {
    Slice k;
    if (!GetLengthPrefixedSlice(&in, &k)) {
      return Status::Corruption("move keys payload");
    }
    keys->push_back(k.ToString());
  }
  return Status::OK();
}

LogRecord ModifyRecord(PageId base, const Slice& org_key, PageId org_pid,
                       const Slice& new_key, PageId new_pid) {
  LogRecord mod;
  mod.type = LogType::kReorgModify;
  mod.page_id = base;
  mod.key = org_key.ToString();
  mod.value = EncodePid(org_pid);
  mod.key2 = new_key.ToString();
  mod.value2 = EncodePid(new_pid);
  return mod;
}

namespace {

// The page effect of a MOVE of `records`, in key order. A value may point
// into org: nothing else writes org while the record is applied (redo owns
// the page, a pass holds its RX lock), and org changes only after dest has
// taken the values.
void MoveRecords(BufferPool* bp, const LogRecord& rec,
                 const std::vector<std::pair<Slice, Slice>>& records,
                 Page* org, bool org_stale, Page* dest, bool dest_stale) {
  if (rec.flags & kMoveKeysOnly) {
    // org's old disk image must survive until dest is durable: that is what
    // lets the record carry only keys.
    bp->AddWriteOrder(rec.page_id2, rec.page_id);
  }
  if (dest_stale) {
    std::unique_lock<PageLatch> latch(dest->latch());
    LeafNode dl(dest);
    for (const auto& [k, v] : records) {
      bool exact;
      dl.LowerBound(k, &exact);
      if (!exact) dl.Insert(k, v);
    }
    dest->set_page_lsn(rec.lsn);
  }
  if (org_stale) {
    std::unique_lock<PageLatch> latch(org->latch());
    LeafNode ol(org);
    for (const auto& [k, v] : records) {
      bool exact;
      int pos = ol.LowerBound(k, &exact);
      if (exact) ol.RemoveAt(pos);
    }
    org->set_page_lsn(rec.lsn);
  }
}

}  // namespace

Status ApplyReorgMove(BufferPool* bp, const LogRecord& rec, Page* org,
                      bool org_stale, Page* dest, bool dest_stale) {
  std::vector<std::pair<Slice, Slice>> records;
  if (rec.flags & kMoveKeysOnly) {
    std::vector<std::string> keys;
    Status s = DecodeMovedKeys(rec.payload, &keys);
    if (!s.ok()) return s;
    if (dest_stale) {
      std::shared_lock<PageLatch> latch(org->latch());
      LeafNode ol(org);
      for (const std::string& k : keys) {
        bool exact;
        int pos = ol.LowerBound(k, &exact);
        if (!exact && org_stale) {
          return Status::Corruption(
              "keys-only move redo: a stale source lacks a moved key");
        }
        if (exact) records.emplace_back(k, ol.ValueAt(pos));
      }
    } else {
      for (const std::string& k : keys) records.emplace_back(k, Slice());
    }
    MoveRecords(bp, rec, records, org, org_stale, dest, dest_stale);
    return Status::OK();
  }
  std::vector<std::pair<std::string, std::string>> full;
  Status s = DecodeMovedRecords(rec.payload, &full);
  if (!s.ok()) return s;
  ApplyReorgMove(bp, rec, full, org, org_stale, dest, dest_stale);
  return Status::OK();
}

void ApplyReorgMove(
    BufferPool* bp, const LogRecord& rec,
    const std::vector<std::pair<std::string, std::string>>& records,
    Page* org, bool org_stale, Page* dest, bool dest_stale) {
  MoveRecords(bp, rec, {records.begin(), records.end()}, org, org_stale, dest,
              dest_stale);
}

namespace {

void WriteCells(Page* page, const std::vector<std::string>& cells, Lsn lsn) {
  std::unique_lock<PageLatch> latch(page->latch());
  SlottedPage sp(page);
  sp.Clear();
  for (size_t i = 0; i < cells.size(); ++i) {
    sp.InsertCell(static_cast<int>(i), cells[i]);
  }
  page->set_page_lsn(lsn);
}

}  // namespace

Status ApplyReorgSwap(BufferPool* bp, const LogRecord& rec, Page* a,
                      bool a_stale, Page* b, bool b_stale) {
  std::vector<std::string> image;
  Status s = UnpackCells(rec.payload, &image);
  if (!s.ok()) return s;
  // b, which takes a's old image, must not reach disk before a does.
  bp->AddWriteOrder(rec.page_id, rec.page_id2);
  if (!b_stale) return Status::OK();
  if (a_stale) {
    std::vector<std::string> cells_b;
    {
      std::shared_lock<PageLatch> latch(b->latch());
      SlottedPage spb(b);
      UnpackCells(PackCellRange(spb, 0, spb.slot_count()), &cells_b);
    }
    WriteCells(a, cells_b, rec.lsn);
  }
  WriteCells(b, image, rec.lsn);
  return Status::OK();
}

void ApplyReorgModify(const LogRecord& rec, Page* base) {
  InternalNode node(base);
  PageId org_pid = DecodePid(rec.value);
  PageId new_pid = DecodePid(rec.value2);
  bool exact;
  if (new_pid == kInvalidPageId) {
    // Removal of (org key -> org pid).
    int pos = node.LowerBound(rec.key, &exact);
    if (exact && node.ChildAt(pos) == org_pid) node.RemoveAt(pos);
  } else if (org_pid == kInvalidPageId) {
    // Insertion of (new key -> new pid). The key may be empty: undoing the
    // removal of a base page's first entry re-inserts its empty separator.
    node.LowerBound(rec.key2, &exact);
    if (!exact) node.Insert(rec.key2, new_pid);
  } else {
    // Replacement.
    int pos = node.LowerBound(rec.key, &exact);
    if (exact) {
      if (rec.key == rec.key2) {
        node.SetChildAt(pos, new_pid);
      } else {
        node.RemoveAt(pos);
        node.LowerBound(rec.key2, &exact);
        if (!exact) node.Insert(rec.key2, new_pid);
      }
    }
  }
  base->set_page_lsn(rec.lsn);
}

Status ApplyLoggedMove(BufferPool* bp, const LogRecord& rec) {
  Page* org;
  Status s = bp->FetchPage(rec.page_id, &org);
  if (!s.ok()) return s;
  Page* dest;
  s = bp->FetchPage(rec.page_id2, &dest);
  if (!s.ok()) {
    bp->UnpinPage(rec.page_id, false);
    return s;
  }
  s = (rec.flags & kSwapImages)
          ? ApplyReorgSwap(bp, rec, org, true, dest, true)
          : ApplyReorgMove(bp, rec, org, true, dest, true);
  bp->UnpinPage(rec.page_id, true);
  bp->UnpinPage(rec.page_id2, true);
  return s;
}

Status ReorgCompensation(BufferPool* bp, const LogRecord& rec,
                         LogRecord* comp) {
  *comp = LogRecord();
  switch (rec.type) {
    case LogType::kAllocPage:
    case LogType::kDeallocPage:
      comp->type = rec.type == LogType::kAllocPage ? LogType::kDeallocPage
                                                   : LogType::kAllocPage;
      comp->page_id = rec.page_id;
      return Status::OK();
    case LogType::kReorgModify:
      *comp = ModifyRecord(rec.page_id, rec.key2, DecodePid(rec.value2),
                           rec.key, DecodePid(rec.value));
      return Status::OK();
    case LogType::kReorgMove:
      break;
    default:
      return Status::NotSupported("record needs no compensation");
  }
  comp->type = LogType::kReorgMove;
  const bool swap = (rec.flags & kSwapImages) != 0;
  // A swap reads page a; a MOVE's records now live in its dest.
  const PageId read = swap ? rec.page_id : rec.page_id2;
  Page* page;
  Status s = bp->FetchPage(read, &page);
  if (!s.ok()) return s;
  std::shared_lock<PageLatch> latch(page->latch());
  if (swap) {
    comp->flags = kSwapImages;
    comp->page_id = rec.page_id;
    comp->page_id2 = rec.page_id2;
    SlottedPage sp(page);
    comp->payload = PackCellRange(sp, 0, sp.slot_count());
  } else {
    // The reverse MOVE carries full records, so its redo needs no page to
    // keep an old image: the page it refills may since have been freed.
    std::vector<std::string> keys;
    if (rec.flags & kMoveKeysOnly) {
      s = DecodeMovedKeys(rec.payload, &keys);
    } else {
      std::vector<std::pair<std::string, std::string>> records;
      s = DecodeMovedRecords(rec.payload, &records);
      for (auto& [k, v] : records) keys.push_back(std::move(k));
    }
    LeafNode dl(page);
    std::vector<std::pair<std::string, std::string>> back;
    for (const std::string& k : keys) {
      bool exact;
      int pos = dl.LowerBound(k, &exact);
      if (exact) back.emplace_back(k, dl.ValueAt(pos).ToString());
    }
    comp->page_id = rec.page_id2;
    comp->page_id2 = rec.page_id;
    comp->payload = EncodeMovedRecords(back);
  }
  latch.unlock();
  bp->UnpinPage(read, false);
  return s;
}

void ReorgTable::BeginUnit(uint32_t unit, Lsn begin_lsn) {
  std::lock_guard<std::mutex> g(mu_);
  state_.has_open_unit = true;
  state_.unit = unit;
  state_.begin_lsn = begin_lsn;
  state_.recent_lsn = begin_lsn;
}

void ReorgTable::RecordLsn(Lsn lsn) {
  std::lock_guard<std::mutex> g(mu_);
  state_.recent_lsn = lsn;
}

Lsn ReorgTable::recent_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return state_.recent_lsn;
}

void ReorgTable::EndUnit(const Slice& largest_key) {
  std::lock_guard<std::mutex> g(mu_);
  state_.has_open_unit = false;
  state_.begin_lsn = kInvalidLsn;
  state_.recent_lsn = kInvalidLsn;
  if (largest_key.compare(state_.largest_finished_key) > 0) {
    state_.largest_finished_key = largest_key.ToString();
  }
}

void ReorgTable::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  state_ = ReorgTableSnapshot{};
}

void ReorgTable::set_leaf_pass_active(bool b) {
  std::lock_guard<std::mutex> g(mu_);
  state_.leaf_pass_active = b;
}

void ReorgTable::set_pass3(bool reorg_bit, const Slice& stable_key,
                           PageId new_root) {
  std::lock_guard<std::mutex> g(mu_);
  state_.reorg_bit = reorg_bit;
  state_.stable_key = stable_key.ToString();
  state_.new_tree_root = new_root;
}

std::string ReorgTable::largest_finished_key() const {
  std::lock_guard<std::mutex> g(mu_);
  return state_.largest_finished_key;
}

bool ReorgTable::has_open_unit() const {
  std::lock_guard<std::mutex> g(mu_);
  return state_.has_open_unit;
}

uint32_t ReorgTable::open_unit() const {
  std::lock_guard<std::mutex> g(mu_);
  return state_.unit;
}

ReorgTableSnapshot ReorgTable::Snapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  return state_;
}

void ReorgTable::Restore(const ReorgTableSnapshot& snap) {
  std::lock_guard<std::mutex> g(mu_);
  state_ = snap;
}

}  // namespace soreorg
