// Reorganization records: their payload codecs, their page effects, their
// compensations, and the in-memory reorganization table.
//
// A unit is a run of BEGIN / MOVE / MODIFY / END records (§5). The same
// records drive the unit itself, its undo-at-deadlock (§5.2), redo, and the
// rollback policy, so each record's page effect is written once, here, and
// every one of those paths calls it. A record then does the same thing to a
// page wherever it runs.
//
// The table is the paper's §5 structure: it holds LK (the largest key of the
// last finished reorganization unit), and — while a unit is open — the
// unit's id, its BEGIN record LSN and its most recent LSN. It is copied into
// every checkpoint record so recovery can find the one possibly-incomplete
// unit and the restart position.

#ifndef SOREORG_REORG_REORG_LOG_H_
#define SOREORG_REORG_REORG_LOG_H_

#include <mutex>
#include <string>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/storage/page.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/checkpoint.h"
#include "src/wal/log_record.h"

namespace soreorg {

/// Encode/decode the BEGIN record's page lists into its payload.
std::string EncodeBeginPages(const std::vector<PageId>& base_pages,
                             const std::vector<PageId>& leaf_pages);
Status DecodeBeginPages(const Slice& payload, std::vector<PageId>* base_pages,
                        std::vector<PageId>* leaf_pages);

/// MOVE record payloads. Full mode packs whole (key, value) records;
/// keys-only mode (careful writing, §5) packs just the keys.
std::string EncodeMovedRecords(
    const std::vector<std::pair<std::string, std::string>>& records);
Status DecodeMovedRecords(
    const Slice& payload,
    std::vector<std::pair<std::string, std::string>>* records);
std::string EncodeMovedKeys(const std::vector<std::string>& keys);
Status DecodeMovedKeys(const Slice& payload, std::vector<std::string>* keys);

/// A MODIFY of base page `base`: (org_key -> org_pid) becomes
/// (new_key -> new_pid). An empty org key with no org pid inserts the new
/// entry; no new pid removes the org entry.
LogRecord ModifyRecord(PageId base, const Slice& org_key, PageId org_pid,
                       const Slice& new_key, PageId new_pid);

// --- Page effects ------------------------------------------------------------
// Each function applies one record to its pinned pages. The `*_stale` flags
// say which pages still lack the record: a pass and a rollback apply a record
// they just logged, so every page lacks it; redo passes whether each page's
// LSN is older than the record's. A page that takes the record is stamped
// with its LSN. MOVE and swap write each page under its exclusive latch, one
// page at a time, and register their careful-writing edge before either page
// changes: a flusher may pick a page up as soon as its new bytes exist.

/// MOVE from org (rec.page_id) to dest (rec.page_id2). A keys-only MOVE takes
/// the values from org and first orders dest's write before org's; a stale
/// org that lacks a moved key is Corruption, since org then still predates
/// the move.
Status ApplyReorgMove(BufferPool* bp, const LogRecord& rec, Page* org,
                      bool org_stale, Page* dest, bool dest_stale);

/// The same page effect, for a caller that already holds the moved records
/// in key order, values included: a pass that has just read them from org.
void ApplyReorgMove(
    BufferPool* bp, const LogRecord& rec,
    const std::vector<std::pair<std::string, std::string>>& records,
    Page* org, bool org_stale, Page* dest, bool dest_stale);

/// Swap of a (rec.page_id) and b (rec.page_id2); the payload is a's image
/// before the swap. b takes the image; a takes b's cells, but only while b
/// also lacks the record (careful writing never lets b reach disk first).
/// Orders a's write before b's.
Status ApplyReorgSwap(BufferPool* bp, const LogRecord& rec, Page* a,
                      bool a_stale, Page* b, bool b_stale);

/// MODIFY of the base page: removes, inserts or replaces one entry, matched
/// by key. A caller whose page other threads can see holds its exclusive
/// latch, so a unit's MODIFYs can be applied under one latch.
void ApplyReorgModify(const LogRecord& rec, Page* base);

/// Fetches a MOVE's or swap's two pages, applies the record to both, and
/// unpins them: what a pass does with a record it has just logged.
Status ApplyLoggedMove(BufferPool* bp, const LogRecord& rec);

/// The record that undoes `rec`, built from the pages as they are now
/// (txn, unit and prev_lsn are left to the caller):
///   * a MOVE becomes the reverse MOVE with full records, read from dest;
///   * a swap becomes a swap whose image is page a's current cells;
///   * a MODIFY gets its two (key, child) pairs swapped;
///   * an ALLOC becomes a DEALLOC, and a DEALLOC an ALLOC.
/// NotSupported for the records that need none (BEGIN, FORMAT, LINK, END).
Status ReorgCompensation(BufferPool* bp, const LogRecord& rec,
                         LogRecord* comp);

class ReorgTable {
 public:
  void BeginUnit(uint32_t unit, Lsn begin_lsn);
  void RecordLsn(Lsn lsn);
  Lsn recent_lsn() const;
  /// Closes the open unit and advances LK.
  void EndUnit(const Slice& largest_key);
  void Clear();

  void set_leaf_pass_active(bool b);
  void set_pass3(bool reorg_bit, const Slice& stable_key, PageId new_root);

  std::string largest_finished_key() const;
  bool has_open_unit() const;
  uint32_t open_unit() const;

  ReorgTableSnapshot Snapshot() const;
  void Restore(const ReorgTableSnapshot& snap);

 private:
  mutable std::mutex mu_;
  ReorgTableSnapshot state_;
};

}  // namespace soreorg

#endif  // SOREORG_REORG_REORG_LOG_H_
