#include "src/recovery/recovery_manager.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "src/reorg/reorg_log.h"
#include "src/util/coding.h"

namespace soreorg {

namespace {

/// True for record types whose replay mutates page images (everything the
/// page-redo dispatch in ApplyPageRedo handles).
bool IsPageRedoType(LogType t) {
  switch (t) {
    case LogType::kInsert:
    case LogType::kDelete:
    case LogType::kUpdate:
    case LogType::kClr:
    case LogType::kFormatPage:
    case LogType::kLinkPage:
    case LogType::kLeafSplit:
    case LogType::kInternalSplit:
    case LogType::kNodeFree:
    case LogType::kReorgMove:
    case LogType::kReorgModify:
      return true;
    default:
      return false;
  }
}

/// Every page a record's redo can read or write. This must stay in lockstep
/// with BTree::RedoApply / RedoReorgMove / RedoReorgModify: replaying
/// components one after another, or on separate lanes, is only sound if no
/// two components share a page, and that guarantee is exactly "components
/// are closed under these sets".
void TouchPages(const LogRecord& rec, std::vector<PageId>* out) {
  out->clear();
  auto add = [out](PageId p) {
    if (p != kInvalidPageId) out->push_back(p);
  };
  switch (rec.type) {
    case LogType::kInsert:
    case LogType::kDelete:
    case LogType::kUpdate:
    case LogType::kClr:
    case LogType::kFormatPage:
    case LogType::kLinkPage:
    case LogType::kReorgModify:
      add(rec.page_id);
      break;
    case LogType::kLeafSplit:
      add(rec.page_id);
      add(rec.page_id2);
      // Two-way side pointers re-point the old next leaf's prev.
      if (static_cast<SidePointerMode>(rec.flags) == SidePointerMode::kTwoWay) {
        add(DecodePid(rec.value));
      }
      break;
    case LogType::kInternalSplit:
      add(rec.page_id);
      add(rec.page_id2);
      // A root split formats the new root named in value2.
      if (rec.page_id3 == kInvalidPageId) add(DecodePid(rec.value2));
      break;
    case LogType::kNodeFree:
      add(rec.page_id);   // the freed leaf (deallocated, but keep it closed)
      add(rec.page_id2);  // prev leaf re-linked
      add(rec.page_id3);  // parent loses the child entry
      add(DecodePid(rec.value));  // next leaf re-linked
      break;
    case LogType::kReorgMove:
      add(rec.page_id);
      add(rec.page_id2);
      break;
    default:
      break;
  }
}

}  // namespace

RecoveryManager::RecoveryManager(DiskManager* disk, BufferPool* bp,
                                 LogManager* log, CheckpointMaster* master,
                                 SideFile* side_file)
    : disk_(disk), bp_(bp), log_(log), master_(master), side_file_(side_file) {}

Status RecoveryManager::RedoReorgMove(const LogRecord& rec) {
  const bool swap = (rec.flags & kSwapImages) != 0;
  Page* org;
  Status s = bp_->FetchPage(rec.page_id, &org);
  if (!s.ok()) return s;
  Page* dest;
  s = bp_->FetchPage(rec.page_id2, &dest);
  if (!s.ok()) {
    bp_->UnpinPage(rec.page_id, false);
    return s;
  }
  const bool org_stale = org->page_lsn() < rec.lsn;
  const bool dest_stale = dest->page_lsn() < rec.lsn;
  // A stale image must still be the leaf this record was logged against:
  // checkpoints are sharp, formats precede moves in the log, and recycled
  // page ids carry an LSN stamp newer than any old-tree record. Anything
  // else is a careful-writing violation — refuse rather than reinterpret
  // another page type as leaf cells.
  if ((org_stale && org->type() != PageType::kLeaf) ||
      (dest_stale && dest->type() != PageType::kLeaf)) {
    bp_->UnpinPage(rec.page_id, false);
    bp_->UnpinPage(rec.page_id2, false);
    return Status::Corruption(swap ? "swap redo found a non-leaf image at a "
                                     "stale org/dest page"
                                   : "reorg move redo found a non-leaf image "
                                     "at a stale org/dest page");
  }
  // A swap rewrites org only while dest is stale too.
  const bool org_touched = org_stale && (!swap || dest_stale);
  s = swap ? ApplyReorgSwap(bp_, rec, org, org_stale, dest, dest_stale)
           : ApplyReorgMove(bp_, rec, org, org_stale, dest, dest_stale);
  bp_->UnpinPage(rec.page_id, s.ok() && org_touched);
  bp_->UnpinPage(rec.page_id2, s.ok() && dest_stale);
  return s;
}

Status RecoveryManager::RedoReorgModify(const LogRecord& rec) {
  Page* page;
  Status s = bp_->FetchPage(rec.page_id, &page);
  if (!s.ok()) return s;
  if (page->page_lsn() >= rec.lsn) {
    bp_->UnpinPage(rec.page_id, false);
    return Status::OK();
  }
  if (page->type() != PageType::kInternal) {
    bp_->UnpinPage(rec.page_id, false);
    return Status::Corruption("reorg modify redo found a non-internal image "
                              "at a stale base page");
  }
  ApplyReorgModify(rec, page);
  bp_->UnpinPage(rec.page_id, true);
  return Status::OK();
}

Status RecoveryManager::Recover(RecoveryResult* result) {
  // --- analysis: checkpoint ---------------------------------------------------
  Lsn start_lsn = 0;
  CheckpointImage image;
  bool have_ckpt = false;
  Lsn ckpt_lsn;
  Status s = master_->Load(&ckpt_lsn);
  if (s.ok()) {
    LogRecord ck;
    s = log_->ReadAt(ckpt_lsn, &ck);
    if (!s.ok()) return s;
    if (ck.type != LogType::kCheckpoint) {
      return Status::Corruption("master points at non-checkpoint record");
    }
    s = CheckpointImage::Parse(ck.payload, &image);
    if (!s.ok()) return s;
    have_ckpt = true;
    // Redo starts at the image's redo floor, captured before the
    // checkpoint's fuzzy flush walk began — not at the checkpoint record
    // itself: records logged during the walk may be only partially
    // reflected in the flushed pages and must be replayed. Replay over the
    // [redo_lsn, ckpt_lsn) prefix is idempotent: page redo is
    // pageLSN-guarded, allocation redo is set-idempotent, metadata replay
    // re-derives what the image already holds, and side-file redo is
    // watermark-gated below.
    start_lsn = image.redo_lsn != kInvalidLsn
                    ? std::min(image.redo_lsn, ckpt_lsn)
                    : ckpt_lsn;
  } else if (!s.IsNotFound()) {
    return s;
  }

  std::map<TxnId, Lsn> txn_table;
  if (have_ckpt) {
    s = disk_->RestoreMeta(image.disk_meta);
    if (!s.ok()) return s;
    for (const auto& [txn, lsn] : image.active_txns) txn_table[txn] = lsn;
    result->tree_root = image.tree_root;
    result->tree_height = image.tree_height;
    result->tree_incarnation = image.tree_incarnation;
    result->next_txn_id = image.next_txn_id;
    result->reorg = image.reorg;
    if (side_file_ && !image.side_file_image.empty()) {
      s = side_file_->Restore(image.side_file_image);
      if (!s.ok()) return s;
    }
  }
  // Side records the restored image already reflects must not be replayed:
  // RedoInsert/RedoApply are positional (blind push/pop), not idempotent.
  const Lsn side_skip_lsn =
      (side_file_ != nullptr) ? side_file_->restored_lsn() : kInvalidLsn;

  // --- redo -------------------------------------------------------------------
  const uint64_t checksum_failures_before = disk_->checksum_failures();
  // The scan keeps the log bytes from the redo floor on plus one LSN per
  // frame; analysis parses each record once more as it walks, and page
  // redo parses the ones it replays when it needs them.
  LogFrames frames;
  LogReadStats log_stats;
  s = log_->Scan(start_lsn, &frames, &log_stats);
  if (!s.ok()) return s;
  // The usual torn tail was already truncated by LogManager::Open, so fold
  // its account in with whatever this scan still sees.
  result->wal_tail_torn = log_stats.torn_tail || log_->open_dropped_bytes() > 0;
  result->wal_bytes_dropped =
      log_stats.dropped_bytes + log_->open_dropped_bytes();
  if (log_stats.mid_log_corruption) {
    // Valid frames exist beyond a bad one: the damage is not the usual torn
    // tail but a hole in the middle of the log. Replaying the prefix and
    // silently dropping committed records would be wrong — refuse.
    return Status::Corruption(
        "WAL has valid records beyond a corrupt frame (mid-log damage, not "
        "a torn tail)");
  }

  std::vector<size_t> page_redo_indices;
  bool unit_open = result->reorg.has_open_unit;
  uint32_t open_unit = result->reorg.unit;
  std::vector<LogRecord>& unit_records = result->incomplete_unit_records;
  std::vector<PageId> pass3_allocs_since_stable;
  bool pass3_active = result->reorg.reorg_bit;
  std::string stable_key = result->reorg.stable_key;
  PageId partial_top = result->reorg.new_tree_root;

  // Replayed allocations may extend the page file, a few pages per record
  // at most: a page id further past the end than the scan has frames is
  // log garbage, and replaying it would free every id in between.
  auto replay_alloc = [&](PageId p) -> Status {
    const PageId end = disk_->page_count();
    if (p >= end && p - end >= frames.size()) {
      return Status::Corruption(
          "replayed allocation of page " + std::to_string(p) +
          " lies far past the end of the page file (" + std::to_string(end) +
          " pages)");
    }
    disk_->AllocatePageAt(p);
    return Status::OK();
  };

  LogRecord rec;
  for (size_t i = 0; i < frames.size(); ++i) {
    s = frames.Parse(i, &rec);
    if (!s.ok()) return s;
    ++result->records_scanned;
    if (have_ckpt && rec.lsn == ckpt_lsn) continue;  // the checkpoint itself

    // Transaction table maintenance.
    if (rec.txn_id >= kFirstUserTxnId) {
      if (rec.type == LogType::kCommit || rec.type == LogType::kAbort) {
        txn_table.erase(rec.txn_id);
      } else {
        txn_table[rec.txn_id] = rec.lsn;
      }
      if (rec.txn_id + 1 > result->next_txn_id) {
        result->next_txn_id = rec.txn_id + 1;
      }
    }

    // Allocation state.
    switch (rec.type) {
      case LogType::kAllocPage:
        s = replay_alloc(rec.page_id);
        if (rec.flags == 1) pass3_allocs_since_stable.push_back(rec.page_id);
        break;
      case LogType::kDeallocPage:
        disk_->DeallocatePage(rec.page_id);
        break;
      case LogType::kFormatPage:
        s = replay_alloc(rec.page_id);
        break;
      case LogType::kLeafSplit:
        s = replay_alloc(rec.page_id2);
        break;
      case LogType::kInternalSplit:
        s = replay_alloc(rec.page_id2);
        if (s.ok() && rec.page_id3 == kInvalidPageId) {
          s = replay_alloc(DecodePid(rec.value2));
        }
        break;
      case LogType::kNodeFree:
        disk_->DeallocatePage(rec.page_id);
        break;
      default:
        break;
    }
    if (!s.ok()) return s;

    // Page redo is deferred: the analysis pass completes all allocation
    // replay (above, in log order — the alloc-before-data interlock) and
    // metadata/side-file tracking first, then RunPageRedo below replays
    // these records, page by page or in log order.
    if (IsPageRedoType(rec.type)) page_redo_indices.push_back(i);

    // Metadata + reorganization-table tracking.
    switch (rec.type) {
      case LogType::kRootChange:
        result->tree_root = rec.page_id;
        result->tree_height = rec.flags;
        break;
      case LogType::kTreeSwitch:
        result->tree_root = rec.page_id;
        result->tree_height = rec.flags;
        result->tree_incarnation = DecodeFixed64(rec.value.data());
        pass3_active = false;
        stable_key.clear();
        partial_top = kInvalidPageId;
        break;
      case LogType::kReorgBegin:
        unit_open = true;
        open_unit = rec.unit;
        unit_records.clear();
        unit_records.push_back(rec);
        break;
      case LogType::kReorgEnd:
        if (unit_open && rec.unit == open_unit) {
          unit_open = false;
          unit_records.clear();
        }
        result->reorg.largest_finished_key =
            std::max(result->reorg.largest_finished_key, rec.key);
        break;
      case LogType::kReorgMove:
      case LogType::kReorgModify:
        if (unit_open && rec.unit == open_unit) unit_records.push_back(rec);
        break;
      case LogType::kLinkPage:
      case LogType::kAllocPage:
      case LogType::kDeallocPage:
        if (unit_open && rec.unit == open_unit && rec.unit != 0) {
          unit_records.push_back(rec);
        }
        break;
      case LogType::kStableKey:
        pass3_active = true;
        stable_key = rec.key;
        partial_top = rec.page_id;
        pass3_allocs_since_stable.clear();
        break;
      case LogType::kSideInsert:
        if (side_file_ && rec.lsn > side_skip_lsn) {
          side_file_->RedoInsert(static_cast<BaseUpdateOp>(rec.unit_type),
                                 rec.key, rec.page_id);
        }
        break;
      case LogType::kSideApply:
        if (side_file_ && rec.lsn > side_skip_lsn) side_file_->RedoApply();
        break;
      case LogType::kSideCancel:
        if (side_file_ && rec.lsn > side_skip_lsn) {
          side_file_->RedoCancel(static_cast<BaseUpdateOp>(rec.unit_type),
                                 rec.key, rec.page_id);
        }
        break;
      default:
        break;
    }
  }

  // --- page redo --------------------------------------------------------------
  s = RunPageRedo(frames, page_redo_indices, redo_threads_, result);
  if (!s.ok()) return s;

  // Segment-level forensics.
  result->segments_scanned = log_stats.segments_scanned;
  result->segments_recycled = log_->segments_recycled();
  result->tail_segment_torn = result->wal_tail_torn;
  uint64_t scan_base = start_lsn == 0 ? 0 : start_lsn - 1;
  result->wal_bytes_scanned =
      log_stats.valid_bytes > scan_base ? log_stats.valid_bytes - scan_base : 0;

  // --- analysis wrap-up ---------------------------------------------------------
  result->losers.assign(txn_table.begin(), txn_table.end());
  result->reorg.has_open_unit = unit_open;
  result->reorg.unit = open_unit;
  if (unit_open && !unit_records.empty()) {
    result->reorg.begin_lsn = unit_records.front().lsn;
    result->reorg.recent_lsn = unit_records.back().lsn;
  }
  result->reorg.reorg_bit = pass3_active;
  result->reorg.stable_key = stable_key;
  result->reorg.new_tree_root = partial_top;

  if (pass3_active) {
    // §7.3: reclaim pass-3 space allocated after the most recent force
    // write, and drop side-file entries the restarted builder will re-read.
    for (PageId p : pass3_allocs_since_stable) {
      disk_->DeallocatePage(p);
      ++result->pass3_pages_reclaimed;
    }
    if (side_file_) {
      if (stable_key.empty()) {
        side_file_->Clear();
      } else {
        side_file_->PruneBeyond(stable_key);
      }
    }
    result->pass3_stable_key = stable_key;
    result->pass3_partial_top = partial_top;
  }
  result->page_checksum_failures =
      disk_->checksum_failures() - checksum_failures_before;
  return Status::OK();
}

Status RecoveryManager::ApplyPageRedo(const LogRecord& rec) {
  switch (rec.type) {
    case LogType::kReorgMove:
      return RedoReorgMove(rec);
    case LogType::kReorgModify:
      return RedoReorgModify(rec);
    default:
      return BTree::RedoApply(bp_, rec);
  }
}

Status RecoveryManager::RunPageRedo(const LogFrames& frames,
                                    const std::vector<size_t>& indices,
                                    int threads, RecoveryResult* result) {
  LogRecord rec;
  if (threads == 1) {
    // Serial oracle: replay in log order, exactly the pre-partitioned path.
    result->redo_threads_used = 1;
    result->redo_pages_per_thread.assign(1, 0);
    result->redo_records_per_thread.assign(1, 0);
    std::unordered_set<PageId> pages;
    std::vector<PageId> touched;
    for (size_t idx : indices) {
      Status s = frames.Parse(idx, &rec);
      if (s.ok()) s = ApplyPageRedo(rec);
      if (!s.ok()) return s;
      ++result->records_redone;
      ++result->redo_records_per_thread[0];
      TouchPages(rec, &touched);
      for (PageId p : touched) pages.insert(p);
    }
    result->redo_pages_per_thread[0] = pages.size();
    return Status::OK();
  }

  // Page by page: union-find over page ids puts two records that share any
  // page into one component, and each component is replayed to its end, in
  // log order, before the next one starts. A page is then fetched about once
  // per recovery instead of once per pool miss. Per-page LSN gates, the
  // allocation replay finished above, and the disjointness of components
  // make the final images bit-identical to the serial oracle's (DESIGN §16).
  const PageId page_count = disk_->page_count();
  std::vector<PageId> parent(page_count, kInvalidPageId);  // untouched
  auto find = [&parent](PageId p) {
    while (parent[p] != p) {
      parent[p] = parent[parent[p]];  // path halving
      p = parent[p];
    }
    return p;
  };
  // first_page[i]: a page of the record indices[i]; its root names the
  // record's component once every union is done.
  std::vector<PageId> first_page(indices.size());
  std::vector<PageId> touched;
  for (size_t i = 0; i < indices.size(); ++i) {
    Status s = frames.Parse(indices[i], &rec);
    if (!s.ok()) return s;
    TouchPages(rec, &touched);
    if (touched.empty()) {
      return Status::Corruption("page redo record names no page");
    }
    PageId root = kInvalidPageId;
    for (PageId p : touched) {
      // Bytes from the log must not index past the page file.
      if (p >= page_count) {
        return Status::Corruption("page redo record names a page past the "
                                  "end of the page file");
      }
      if (parent[p] == kInvalidPageId) parent[p] = p;
      PageId r = find(p);
      if (root == kInvalidPageId) {
        root = r;
      } else if (r != root) {
        parent[r] = root;
      }
    }
    first_page[i] = touched[0];
  }

  // Dense component ids in order of each component's first record; then a
  // stable counting sort of the records by component keeps log order inside
  // each one: order[comp_start[c] .. comp_start[c + 1]) is component c.
  std::vector<uint32_t> comp_of(page_count, UINT32_MAX);  // by root page
  std::vector<uint32_t> rec_comp(indices.size());
  uint32_t components = 0;
  for (size_t i = 0; i < indices.size(); ++i) {
    uint32_t& c = comp_of[find(first_page[i])];
    if (c == UINT32_MAX) c = components++;
    rec_comp[i] = c;
  }
  std::vector<size_t> comp_start(components + 1, 0);
  for (uint32_t c : rec_comp) ++comp_start[c + 1];
  std::partial_sum(comp_start.begin(), comp_start.end(), comp_start.begin());
  std::vector<size_t> order(indices.size());
  std::vector<size_t> next(comp_start.begin(), comp_start.end() - 1);
  for (size_t i = 0; i < indices.size(); ++i) {
    order[next[rec_comp[i]]++] = indices[i];
  }
  std::vector<uint64_t> comp_pages(components, 0);
  for (PageId p = 0; p < page_count; ++p) {
    if (parent[p] != kInvalidPageId) ++comp_pages[comp_of[find(p)]];
  }

  // Lanes take whole components in that order. Lane 0 is the calling
  // thread, so the default single lane spawns no thread.
  const int lanes = static_cast<int>(
      std::clamp<uint32_t>(components, 1, std::max(threads, 1)));
  result->redo_threads_used = lanes;
  result->redo_pages_per_thread.assign(lanes, 0);
  result->redo_records_per_thread.assign(lanes, 0);
  std::vector<Status> lane_status(lanes);
  std::atomic<size_t> next_comp{0};
  auto run_lane = [&](int w) {
    LogRecord lane_rec;
    for (size_t c = next_comp.fetch_add(1); c < components;
         c = next_comp.fetch_add(1)) {
      for (size_t k = comp_start[c]; k < comp_start[c + 1]; ++k) {
        Status s = frames.Parse(order[k], &lane_rec);
        if (s.ok()) s = ApplyPageRedo(lane_rec);
        if (!s.ok()) {
          lane_status[w] = s;
          return;
        }
      }
      result->redo_records_per_thread[w] += comp_start[c + 1] - comp_start[c];
      result->redo_pages_per_thread[w] += comp_pages[c];
    }
  };
  std::vector<std::thread> workers;
  for (int w = 1; w < lanes; ++w) workers.emplace_back(run_lane, w);
  run_lane(0);
  for (std::thread& th : workers) th.join();
  for (const Status& s : lane_status) {
    if (!s.ok()) return s;
  }
  result->records_redone += indices.size();
  return Status::OK();
}

Status RecoveryManager::UndoLosers(BTree* tree, const RecoveryResult& result) {
  for (const auto& [txn_id, last_lsn] : result.losers) {
    Transaction txn(txn_id);
    txn.set_last_lsn(last_lsn);
    Lsn cur = last_lsn;
    while (cur != kInvalidLsn) {
      LogRecord rec;
      Status s = log_->ReadAt(cur, &rec);
      if (!s.ok()) return s;
      if (rec.type == LogType::kClr) {
        cur = rec.lsn2;
        continue;
      }
      if (rec.type == LogType::kInsert || rec.type == LogType::kDelete ||
          rec.type == LogType::kUpdate) {
        if ((rec.flags & kInternalCell) == 0) {
          s = tree->UndoRecordOp(&txn, rec);
          if (!s.ok()) return s;
        }
      } else if (rec.type == LogType::kSideInsert && side_file_ != nullptr) {
        side_file_->UndoInsert(static_cast<BaseUpdateOp>(rec.unit_type),
                               rec.key);
      } else if (rec.type == LogType::kSideCancel && side_file_ != nullptr) {
        side_file_->ReAdd(static_cast<BaseUpdateOp>(rec.unit_type), rec.key,
                          rec.page_id);
      }
      cur = rec.prev_lsn;
    }
    LogRecord abort;
    abort.type = LogType::kAbort;
    abort.txn_id = txn_id;
    abort.prev_lsn = txn.last_lsn();
    log_->Append(&abort);
    tree->lock_manager()->ReleaseAll(txn_id);
  }
  return log_->Flush();
}

Status RecoveryManager::UndoIncompleteUnit(BTree* tree,
                                           const RecoveryResult& result) {
  const auto& records = result.incomplete_unit_records;
  if (records.empty()) return Status::OK();

  // Walk the unit backwards. Each record's compensation is logged, then
  // applied the way redo applies it, so redo after the next crash rebuilds
  // what this rollback restores. FORMAT and LINK need none: the freed
  // destination's image no longer matters, and RepairSideChain below
  // rewrites the side pointers.
  Lsn prev = records.back().lsn;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    LogRecord comp;
    Status s = ReorgCompensation(bp_, *it, &comp);
    if (s.IsNotSupported()) continue;
    if (!s.ok()) return s;
    comp.txn_id = kReorgTxnId;
    comp.unit = it->unit;
    comp.prev_lsn = prev;
    log_->Append(&comp);
    prev = comp.lsn;
    switch (comp.type) {
      case LogType::kAllocPage:
        disk_->AllocatePageAt(comp.page_id);  // as redo replays an ALLOC
        break;
      case LogType::kDeallocPage:
        s = bp_->DeletePage(comp.page_id);
        break;
      default:
        s = ApplyPageRedo(comp);
        break;
    }
    if (!s.ok()) return s;
  }

  LogRecord end;
  end.type = LogType::kReorgEnd;
  end.txn_id = kReorgTxnId;
  end.unit = records.front().unit;
  end.prev_lsn = prev;
  end.key = result.reorg.largest_finished_key;
  Status s = log_->AppendAndFlush(&end);
  if (!s.ok()) return s;
  return RepairSideChain(tree);
}

Status RecoveryManager::RepairSideChain(BTree* tree) {
  if (tree->options().side_pointers == SidePointerMode::kNone) {
    return Status::OK();
  }
  std::vector<PageId> leaves;
  Status s = tree->CollectLeaves(&leaves);
  if (!s.ok()) return s;
  for (size_t i = 0; i < leaves.size(); ++i) {
    Page* page;
    s = bp_->FetchPage(leaves[i], &page);
    if (!s.ok()) return s;
    PageId want_prev = (i > 0) ? leaves[i - 1] : kInvalidPageId;
    PageId want_next = (i + 1 < leaves.size()) ? leaves[i + 1]
                                               : kInvalidPageId;
    if (tree->options().side_pointers == SidePointerMode::kOneWay) {
      want_prev = page->prev();
    }
    if (page->prev() != want_prev || page->next() != want_next) {
      LogRecord link;
      link.type = LogType::kLinkPage;
      link.txn_id = kReorgTxnId;
      link.page_id = leaves[i];
      link.page_id2 = want_prev;
      link.page_id3 = want_next;
      log_->Append(&link);
      page->SetPrev(want_prev);
      page->SetNext(want_next);
      page->set_page_lsn(link.lsn);
      bp_->UnpinPage(leaves[i], true);
    } else {
      bp_->UnpinPage(leaves[i], false);
    }
  }
  return log_->Flush();
}

}  // namespace soreorg
