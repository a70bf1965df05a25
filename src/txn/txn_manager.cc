#include "src/txn/txn_manager.h"

#include <optional>

#include "src/storage/buffer_pool.h"

namespace soreorg {

TransactionManager::TransactionManager(LogManager* log, LockManager* locks,
                                       BufferPool* bp)
    : log_(log), locks_(locks), bp_(bp) {}

void TransactionManager::set_undo_applier(UndoApplier applier) {
  undo_applier_ = std::move(applier);
}

Transaction* TransactionManager::Begin() {
  std::lock_guard<std::mutex> g(mu_);
  TxnId id = next_txn_id_++;
  auto txn = std::make_unique<Transaction>(id);
  Transaction* raw = txn.get();
  active_[id] = std::move(txn);
  return raw;
}

Status TransactionManager::Commit(Transaction* txn) {
  // Apply scope (when wired): outcome record and active-table removal on
  // the same side of a concurrent checkpoint's redo floor.
  std::optional<BufferPool::ApplyScope> apply_scope;
  if (bp_ != nullptr) apply_scope.emplace(bp_);
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn_id = txn->id();
  rec.prev_lsn = txn->last_lsn();
  Status s = log_->AppendAndFlush(&rec);
  if (!s.ok()) {
    // The commit record never reached the log, so recovery will roll this
    // transaction back — but the lock table is process-local state and must
    // not keep the dead transaction's locks alive, or every later request
    // for them waits on a holder that will never release (no cycle, so the
    // deadlock detector never intervenes).
    Discard(txn, TxnState::kAborted);
    return s;
  }
  txn->set_state(TxnState::kCommitted);
  locks_->ReleaseAll(txn->id());
  ++commits_;
  Forget(txn);
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  // Walk the prev_lsn chain backwards, applying inverses.
  Lsn cur = txn->last_lsn();
  while (cur != kInvalidLsn) {
    LogRecord rec;
    Status s = log_->ReadAt(cur, &rec);
    if (!s.ok()) {
      // The record may still be in the WAL buffer: flush and retry once.
      s = log_->Flush();
      if (s.ok()) s = log_->ReadAt(cur, &rec);
      if (!s.ok()) {
        Discard(txn, TxnState::kAborted);
        return s;
      }
    }
    if (rec.type == LogType::kClr) {
      cur = rec.lsn2;  // undo-next pointer skips already-undone work
      continue;
    }
    if (undo_applier_ &&
        (rec.type == LogType::kInsert || rec.type == LogType::kDelete ||
         rec.type == LogType::kUpdate || rec.type == LogType::kSideInsert ||
         rec.type == LogType::kSideCancel)) {
      s = undo_applier_(rec, txn);
      if (!s.ok()) {
        Discard(txn, TxnState::kAborted);
        return s;
      }
    }
    cur = rec.prev_lsn;
  }
  std::optional<BufferPool::ApplyScope> apply_scope;
  if (bp_ != nullptr) apply_scope.emplace(bp_);
  LogRecord rec;
  rec.type = LogType::kAbort;
  rec.txn_id = txn->id();
  rec.prev_lsn = txn->last_lsn();
  Status s = log_->AppendAndFlush(&rec);
  if (!s.ok()) {
    Discard(txn, TxnState::kAborted);
    return s;
  }
  txn->set_state(TxnState::kAborted);
  locks_->ReleaseAll(txn->id());
  ++aborts_;
  Forget(txn);
  return Status::OK();
}

void TransactionManager::Discard(Transaction* txn, TxnState state) {
  // Failure cleanup: the WAL could not record the outcome (or undo could not
  // run), so recovery owns the durable state — but the in-memory lock table
  // and active set must still drop the transaction, or its locks outlive it
  // for the rest of the process with no waiter ever able to acquire them.
  txn->set_state(state);
  locks_->ReleaseAll(txn->id());
  Forget(txn);
}

void TransactionManager::Forget(Transaction* txn) {
  std::lock_guard<std::mutex> g(mu_);
  active_.erase(txn->id());
}

std::vector<std::pair<TxnId, Lsn>> TransactionManager::ActiveSnapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::pair<TxnId, Lsn>> out;
  out.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    out.emplace_back(id, txn->last_lsn());
  }
  return out;
}

Lsn TransactionManager::OldestActiveFirstLsn() const {
  std::lock_guard<std::mutex> g(mu_);
  Lsn oldest = kInvalidLsn;
  for (const auto& [id, txn] : active_) {
    Lsn first = txn->first_lsn();
    if (first == kInvalidLsn) continue;
    if (oldest == kInvalidLsn || first < oldest) oldest = first;
  }
  return oldest;
}

TxnId TransactionManager::next_txn_id() const {
  std::lock_guard<std::mutex> g(mu_);
  return next_txn_id_;
}

void TransactionManager::RestoreNextTxnId(TxnId next) {
  std::lock_guard<std::mutex> g(mu_);
  if (next > next_txn_id_) next_txn_id_ = next;
}

}  // namespace soreorg
