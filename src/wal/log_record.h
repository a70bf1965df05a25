// WAL record types.
//
// Three families:
//  * transaction records (insert/delete/update on leaf records, CLRs,
//    commit/abort) — ARIES-style physiological logging, undone via the
//    per-transaction prev_lsn chain;
//  * page lifecycle records (alloc/dealloc/format) so allocation state and
//    page images are reconstructible;
//  * reorganization records, exactly the paper's §5 set:
//      (BEGIN, unit, type, base pages..., leaf pages...)
//      (MOVE, record contents | keys-only, org page, dest page, prev_lsn)
//      (MODIFY, base page, org key, org ptr, new key, new ptr, prev_lsn)
//      (END, unit)
//    plus the pass-3 records (§7.3): STABLE_KEY, SIDE_APPLY, TREE_SWITCH.
//
// One struct covers all types; unused fields serialize to a byte or two, and
// the per-type byte accounting feeds the log-volume experiment (E3).

#ifndef SOREORG_WAL_LOG_RECORD_H_
#define SOREORG_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/page.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace soreorg {

using TxnId = uint64_t;
constexpr TxnId kInvalidTxnId = 0;
/// The reorganizer logs under this pseudo-transaction id.
constexpr TxnId kReorgTxnId = 1;
constexpr TxnId kFirstUserTxnId = 2;

enum class LogType : uint8_t {
  kInvalid = 0,
  // Transaction records.
  kInsert = 1,       // page_id, key, value
  kDelete = 2,       // page_id, key, old value (for undo)
  kUpdate = 3,       // page_id, key, old value, new value
  kClr = 4,          // compensation; undo_next_lsn in lsn2
  kCommit = 5,
  kAbort = 6,
  // Page lifecycle.
  kAllocPage = 7,    // page_id
  kDeallocPage = 8,  // page_id
  kFormatPage = 9,   // page_id, u8 page type in unit_type, level in flags, aux key
  kLinkPage = 10,    // page_id: set prev/next side pointers (page_id2=prev, page_id3=next)
  // Reorganization unit records (§5).
  kReorgBegin = 11,  // unit, unit_type, pages[] = base pages then leaf pages (split at n_base)
  kReorgMove = 12,   // org = page_id, dest = page_id2, payload = packed records or keys
  kReorgModify = 13, // base = page_id, key/value = org key+ptr, key2/value2 = new key+ptr
  kReorgEnd = 14,    // unit; key = largest key processed (LK update)
  // Internal-page (pass 3) records (§7.3).
  kStableKey = 15,   // key = most recent stable key; page_id = new-tree root so far
  kSideApply = 16,   // a side-file record applied to the new tree
  kTreeSwitch = 17,  // page_id = new root, page_id2 = old root
  // Checkpointing.
  kCheckpoint = 18,  // payload = CheckpointImage
  // Tree metadata.
  kRootChange = 19,  // page_id = new root, page_id2 = old root, flags = height
  // Structure modifications (single atomic records; never undone).
  kLeafSplit = 20,     // page_id = old leaf, page_id2 = new leaf,
                       // page_id3 = parent, key = separator,
                       // payload = moved cells, value = fixed32 old-next pid
  kInternalSplit = 21, // page_id = old, page_id2 = new, page_id3 = parent
                       // (kInvalidPageId => root split; value2 = fixed32 new
                       // root pid, flags = new height), key = separator,
                       // payload = moved cells
  kNodeFree = 22,      // page_id = freed node, page_id3 = parent,
                       // key = separator removed from parent,
                       // page_id2 = prev leaf, value = fixed32 next leaf pid
                       // (side-pointer unlink; leaves only)
  // Side file (pass 3, §7.2).
  kSideInsert = 23,    // unit_type = BaseUpdateOp, key, page_id = leaf,
                       // logged under the user transaction's chain
  kSideCancel = 24,    // compensation: the structure modification that
                       // recorded the matching kSideInsert failed and will
                       // be retried (or abandoned); drop the entry
};

/// Reorganization unit types (the BEGIN record's Type field).
enum class ReorgUnitType : uint8_t {
  kNone = 0,
  kCompact = 1,  // compact leaves under one base page, in place
  kSwap = 2,     // swap two leaf pages (one or two base pages)
  kMove = 3,     // move one leaf page to an empty page
};

struct LogRecord {
  LogType type = LogType::kInvalid;
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;   // per-txn / per-unit backward chain
  Lsn lsn2 = kInvalidLsn;       // CLR undo-next
  PageId page_id = kInvalidPageId;
  PageId page_id2 = kInvalidPageId;
  PageId page_id3 = kInvalidPageId;
  uint32_t unit = 0;            // reorganization unit number
  uint8_t unit_type = 0;        // ReorgUnitType / PageType for kFormatPage
  uint8_t flags = 0;            // level for kFormatPage; keys-only bit for kReorgMove
  std::string key;
  std::string key2;
  std::string value;
  std::string value2;
  std::string payload;          // bulk data (checkpoint image, move bundle)

  // Assigned by LogManager::Append; not serialized (the LSN is the record's
  // file offset).
  Lsn lsn = kInvalidLsn;

  void AppendTo(std::string* dst) const;
  static Status Parse(Slice input, LogRecord* rec);

  /// Serialized size in bytes (what Append will write, before framing).
  size_t EncodedSize() const;
};

/// kReorgMove flag bit: payload carries keys only (careful-writing mode),
/// not full record bodies.
constexpr uint8_t kMoveKeysOnly = 0x1;
/// kInsert/kDelete/kUpdate flag bit: the target page is an internal (base)
/// page and `value` is a fixed32 child page id, not a record payload.
constexpr uint8_t kInternalCell = 0x2;
/// kClr flag bit: the compensating action is an insert (undo of a delete);
/// otherwise it is a delete (undo of an insert).
constexpr uint8_t kClrInsert = 0x4;
/// kReorgMove flag bit: this MOVE is a page-content *swap*; the payload is
/// the full cell image of the org page (the paper: "there is no way to avoid
/// logging at least one of the full page contents" when swapping).
constexpr uint8_t kSwapImages = 0x8;

const char* LogTypeName(LogType t);

/// A page id carried in a record's value fields (MODIFY, split and free
/// records) as fixed32. DecodePid reads any other length as kInvalidPageId.
std::string EncodePid(PageId pid);
PageId DecodePid(const Slice& s);

}  // namespace soreorg

#endif  // SOREORG_WAL_LOG_RECORD_H_
