#include "src/db/database.h"

#include "src/btree/bulk_builder.h"

namespace soreorg {

Status Database::Open(Env* env, DatabaseOptions options,
                      std::unique_ptr<Database>* out) {
  std::unique_ptr<Database> db(new Database(std::move(options)));
  db->env_ = env;
  const std::string& name = db->options_.name;

  db->disk_ = std::make_unique<DiskManager>(env, name + ".pages");
  Status s = db->disk_->Open();
  if (!s.ok()) return s;

  LogManagerOptions log_opts;
  log_opts.segment_bytes = db->options_.wal_segment_bytes;
  log_opts.recycle_max = db->options_.wal_recycle_segments;
  db->log_ = std::make_unique<LogManager>(env, name + ".wal", log_opts);
  s = db->log_->Open();
  if (!s.ok()) return s;
  db->log_->set_buffer_limit(db->options_.log_buffer_bytes);

  db->master_ = std::make_unique<CheckpointMaster>(env, name + ".ckpt");
  s = db->master_->Open();
  if (!s.ok()) return s;

  LogManager* log = db->log_.get();
  db->bp_ = std::make_unique<BufferPool>(
      db->disk_.get(), db->options_.buffer_pool_pages,
      [log](Lsn lsn) { return log->FlushTo(lsn); });

  db->txn_mgr_ = std::make_unique<TransactionManager>(
      db->log_.get(), &db->locks_, db->bp_.get());
  db->side_file_ = std::make_unique<SideFile>(&db->locks_, db->log_.get());

  // --- restart recovery: analysis + redo ------------------------------------
  db->recovery_ = std::make_unique<RecoveryManager>(
      db->disk_.get(), db->bp_.get(), db->log_.get(), db->master_.get(),
      db->side_file_.get());
  db->recovery_->set_redo_threads(db->options_.redo_threads);
  s = db->recovery_->Recover(&db->recovery_result_);
  if (!s.ok()) return s;
  const RecoveryResult& rr = db->recovery_result_;

  db->tree_ = std::make_unique<BTree>(db->bp_.get(), db->log_.get(),
                                      &db->locks_, db->options_.tree);
  if (rr.tree_root == kInvalidPageId) {
    s = db->tree_->Create();
    if (!s.ok()) return s;
  } else {
    db->tree_->Attach(rr.tree_root, rr.tree_height, rr.tree_incarnation);
  }
  db->txn_mgr_->RestoreNextTxnId(rr.next_txn_id);
  db->reorg_table_.Restore(rr.reorg);

  // Logical undo hooks for runtime aborts.
  BTree* tree = db->tree_.get();
  SideFile* side = db->side_file_.get();
  db->txn_mgr_->set_undo_applier(
      [tree, side](const LogRecord& rec, Transaction* txn) -> Status {
        if (rec.type == LogType::kSideInsert) {
          side->UndoInsert(static_cast<BaseUpdateOp>(rec.unit_type), rec.key);
          return Status::OK();
        }
        if (rec.type == LogType::kSideCancel) {
          side->ReAdd(static_cast<BaseUpdateOp>(rec.unit_type), rec.key,
                      rec.page_id);
          return Status::OK();
        }
        if (rec.flags & kInternalCell) return Status::OK();
        return tree->UndoRecordOp(txn, rec);
      });

  // Loser transactions.
  s = db->recovery_->UndoLosers(tree, rr);
  if (!s.ok()) return s;

  db->reorganizer_ = std::make_unique<Reorganizer>(
      tree, db->bp_.get(), db->log_.get(), &db->locks_, db->disk_.get(),
      side, &db->reorg_table_, db->options_.reorg);
  if (rr.reorg.has_open_unit && !rr.incomplete_unit_records.empty()) {
    if (db->options_.recovery_policy == RecoveryPolicy::kForward) {
      // §5.1 Forward Recovery: finish the unit instead of rolling it back.
      s = db->reorganizer_->FinishIncompleteUnit(rr.incomplete_unit_records);
      if (!s.ok() && !s.IsBusy()) return s;
    } else {
      s = db->recovery_->UndoIncompleteUnit(tree, rr);
      if (!s.ok()) return s;
      db->reorg_table_.EndUnit(rr.reorg.largest_finished_key);  // LK kept
    }
  }
  db->pass3_pending_ = rr.reorg.reorg_bit;

  *out = std::move(db);
  return Status::OK();
}

Database::~Database() {
  if (bp_) bp_->FlushAll();
  if (log_) log_->Flush();
}

Transaction* Database::Begin() { return txn_mgr_->Begin(); }

Status Database::Commit(Transaction* txn) { return txn_mgr_->Commit(txn); }

Status Database::Abort(Transaction* txn) { return txn_mgr_->Abort(txn); }

Status Database::Put(const Slice& key, const Slice& value) {
  Transaction* txn = Begin();
  Status s = tree_->Insert(txn, key, value);
  if (!s.ok()) {
    txn_mgr_->Abort(txn);
    return s;
  }
  return Commit(txn);
}

Status Database::Update(const Slice& key, const Slice& value) {
  Transaction* txn = Begin();
  Status s = tree_->Update(txn, key, value);
  if (!s.ok()) {
    txn_mgr_->Abort(txn);
    return s;
  }
  return Commit(txn);
}

Status Database::Delete(const Slice& key) {
  Transaction* txn = Begin();
  Status s = tree_->Delete(txn, key);
  if (!s.ok()) {
    txn_mgr_->Abort(txn);
    return s;
  }
  return Commit(txn);
}

Status Database::Get(const Slice& key, std::string* value) {
  return tree_->Get(nullptr, key, value);
}

Status Database::Scan(const Slice& lo, const Slice& hi,
                      const std::function<bool(const Slice&, const Slice&)>&
                          cb) {
  return tree_->Scan(nullptr, lo, hi, cb);
}

Status Database::BulkLoad(
    const std::vector<std::pair<std::string, std::string>>& sorted_records,
    double leaf_fill, double internal_fill) {
  BulkBuilder builder(bp_.get(), options_.tree, leaf_fill, internal_fill);
  for (const auto& [k, v] : sorted_records) {
    Status s = builder.Add(k, v);
    if (!s.ok()) return s;
  }
  PageId root;
  uint8_t height;
  Status s = builder.Finish(&root, &height);
  if (!s.ok()) return s;

  // Retire the previous (empty) tree's pages.
  std::vector<PageId> old_internals;
  PageId old_root = tree_->root();
  std::vector<PageId> old_leaves;
  tree_->CollectLeaves(&old_leaves);
  tree_->CollectInternalPages(old_root, &old_internals);
  tree_->Attach(root, height, tree_->incarnation());
  for (PageId p : old_internals) bp_->DeletePage(p);
  for (PageId p : old_leaves) bp_->DeletePage(p);

  LogRecord rc;
  rc.type = LogType::kRootChange;
  rc.page_id = root;
  rc.flags = height;
  s = log_->AppendAndFlush(&rc);
  if (!s.ok()) return s;
  // The builder does not WAL-log page contents: a checkpoint makes the
  // loaded tree the recovery baseline.
  return Checkpoint();
}

Status Database::Reorganize() { return reorganizer_->Run(); }

Status Database::ResumeInternalPass() {
  if (!pass3_pending_) return Status::OK();
  Status s;
  if (!recovery_result_.pass3_stable_key.empty() &&
      recovery_result_.pass3_partial_top != kInvalidPageId) {
    s = reorganizer_->RunInternalPass(recovery_result_.pass3_stable_key,
                                      recovery_result_.pass3_partial_top);
  } else {
    s = reorganizer_->RunInternalPass();
  }
  if (s.ok()) pass3_pending_ = false;
  return s;
}

Status Database::Checkpoint() {
  // Capture the redo floor BEFORE the flush walk: the walk is fuzzy — it
  // runs in several flush-lock holds while updaters and the reorganizer
  // keep logging — so a record appended during it may be applied to pages
  // the walk already wrote. Every such record's LSN is >= this floor, and
  // recovery replays from here instead of from the checkpoint record.
  //
  // The capture waits for apply quiescence: a record appended just below
  // the floor whose page bytes were not yet applied (and whose page was
  // therefore not yet dirty) would be both skipped by redo and missed by
  // the walk. ApplyScope brackets in the mutators make append→apply→
  // dirty-unpin atomic with respect to this capture.
  const Lsn redo_lsn =
      bp_->CaptureAtQuiescence([this] { return log_->NextLsn(); });
  Status s = bp_->FlushAndSync();
  if (!s.ok()) return s;

  CheckpointImage image;
  image.redo_lsn = redo_lsn;
  image.disk_meta = disk_->SerializeMeta();
  image.active_txns = txn_mgr_->ActiveSnapshot();
  image.next_txn_id = txn_mgr_->next_txn_id();
  image.reorg = reorg_table_.Snapshot();
  image.tree_root = tree_->root();
  image.tree_height = tree_->height();
  image.tree_incarnation = tree_->incarnation();
  image.side_file_image = side_file_->Serialize();

  LogRecord rec;
  rec.type = LogType::kCheckpoint;
  rec.payload = image.Serialize();
  s = log_->AppendAndFlush(&rec);
  if (!s.ok()) return s;
  s = master_->Store(rec.lsn);
  if (!s.ok()) return s;

  if (options_.wal_truncate_on_checkpoint) {
    // Safe truncation floor. Recovery starts at min(redo_lsn, checkpoint
    // record), but two consumers reach further back:
    //   * UndoLosers / runtime Abort walk prev_lsn chains down to each
    //     active transaction's first record;
    //   * forward recovery of an open reorganization unit replays the unit
    //     from its BEGIN record.
    // Any segment wholly below the min of all four is dead.
    Lsn floor = image.redo_lsn < rec.lsn ? image.redo_lsn : rec.lsn;
    const Lsn oldest_txn = txn_mgr_->OldestActiveFirstLsn();
    if (oldest_txn != kInvalidLsn && oldest_txn < floor) floor = oldest_txn;
    if (image.reorg.has_open_unit && image.reorg.begin_lsn != kInvalidLsn &&
        image.reorg.begin_lsn < floor) {
      floor = image.reorg.begin_lsn;
    }
    s = log_->TruncateBelow(floor);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace soreorg
