#include "src/reorg/side_file.h"

#include "src/util/coding.h"

namespace soreorg {

SideFile::SideFile(LockManager* locks, LogManager* log)
    : locks_(locks), log_(log) {}

Status SideFile::Record(Transaction* txn, BaseUpdateOp op, const Slice& key,
                        PageId leaf) {
  // IX on the table; held to end of transaction (the lock manager releases
  // it at commit/abort via ReleaseAll).
  Status s = locks_->TryLock(txn->id(), SideFileLock(), LockMode::kIX);
  if (!s.ok()) {
    // The switcher holds (or is converting to) X: wait it out with an
    // instant-duration IX, then tell the caller to retry on the new tree.
    s = locks_->LockInstant(txn->id(), SideFileLock(), LockMode::kIX);
    if (!s.ok()) return s;
    return Status::Busy("switch completed; retry on new tree");
  }
  {
    // closed_ flips only under the side-file X lock, which excludes our IX,
    // so this check cannot race with a concurrent Close(). It catches the
    // updater that captured the base-update hook just before the switch
    // dismantled it: recording now would leave a phantom entry with no
    // drain left to apply it.
    std::lock_guard<std::mutex> g(mu_);
    if (closed_) return Status::Busy("switch completed; retry on new tree");
  }
  s = locks_->Lock(txn->id(), SideKeyLock(key.ToString()), LockMode::kX);
  if (!s.ok()) return s;

  LogRecord rec;
  rec.type = LogType::kSideInsert;
  rec.txn_id = txn->id();
  rec.prev_lsn = txn->last_lsn();
  rec.unit_type = static_cast<uint8_t>(op);
  rec.key = key.ToString();
  rec.page_id = leaf;

  // Append and insert under one mutex hold: the checkpoint watermark
  // (last_lsn_) promises that entries_ reflects exactly the side records
  // up to it, which a gap between the append and the insert would break.
  std::lock_guard<std::mutex> g(mu_);
  log_->Append(&rec);
  txn->set_last_lsn(rec.lsn);
  entries_.push_back(SideEntry{op, key.ToString(), leaf, ++next_seq_});
  last_lsn_ = rec.lsn;
  ++total_recorded_;
  return Status::OK();
}

Status SideFile::PopFront(SideEntry* entry, bool* empty) {
  SideEntry e;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 64) {
      // Retryable: the front kept being cancelled/re-recorded under us.
      // Somebody else made progress each time, so the caller just retries.
      return Status::Busy("side-file front contended; retry");
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      if (entries_.empty()) {
        *empty = true;
        return Status::OK();
      }
      e = entries_.front();
    }
    // Wait out the recording transaction: it holds an X record lock on the
    // entry's key until commit/abort, and may still cancel the entry.
    Status ls = locks_->Lock(kReorgTxnId, SideKeyLock(e.key), LockMode::kX);
    if (!ls.ok()) return ls;  // deadlock victim: caller retries
    locks_->Unlock(kReorgTxnId, SideKeyLock(e.key));
    std::lock_guard<std::mutex> g(mu_);
    if (entries_.empty()) {
      *empty = true;
      return Status::OK();
    }
    // The front may have been cancelled while we waited; re-verify by seq.
    // Field equality is not enough: a cancel + fresh insert of the same
    // (op, key, leaf) would pass while the new entry's transaction is still
    // in flight and could still cancel it (classic ABA).
    if (entries_.front().seq != e.seq) {
      continue;
    }
    // Log the application and pop under the same mutex hold so the
    // checkpoint watermark stays exact.
    LogRecord rec;
    rec.type = LogType::kSideApply;
    rec.txn_id = kReorgTxnId;
    rec.unit_type = static_cast<uint8_t>(e.op);
    rec.key = e.key;
    rec.page_id = e.leaf;
    log_->Append(&rec);
    last_lsn_ = rec.lsn;
    entries_.pop_front();
    break;
  }
  *empty = false;
  *entry = e;
  return Status::OK();
}

void SideFile::Cancel(Transaction* txn, BaseUpdateOp op, const Slice& key,
                      PageId leaf) {
  std::lock_guard<std::mutex> g(mu_);
  auto found = entries_.rend();
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->op == op && it->key == key.view() && it->leaf == leaf) {
      found = it;
      break;
    }
  }
  if (found == entries_.rend()) return;
  // Log first, erase second, all under the mutex: the erase must never be
  // visible (to a checkpoint's Serialize) without its record accounted in
  // the watermark, and an unlogged erase would resurrect as a phantom when
  // recovery replays the original kSideInsert.
  LogRecord rec;
  rec.type = LogType::kSideCancel;
  rec.txn_id = txn->id();
  rec.prev_lsn = txn->last_lsn();
  rec.unit_type = static_cast<uint8_t>(op);
  rec.key = key.ToString();
  rec.page_id = leaf;
  log_->Append(&rec);
  txn->set_last_lsn(rec.lsn);
  last_lsn_ = rec.lsn;
  entries_.erase(std::next(found).base());
}

void SideFile::RedoCancel(BaseUpdateOp op, const Slice& key, PageId leaf) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->op == op && it->key == key.view() && it->leaf == leaf) {
      entries_.erase(std::next(it).base());
      return;
    }
  }
}

void SideFile::ReAdd(BaseUpdateOp op, const Slice& key, PageId leaf) {
  std::lock_guard<std::mutex> g(mu_);
  entries_.push_back(SideEntry{op, key.ToString(), leaf, ++next_seq_});
}

void SideFile::UndoInsert(BaseUpdateOp op, const Slice& key) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->op == op && it->key == key.view()) {
      entries_.erase(std::next(it).base());
      return;
    }
  }
}

void SideFile::Open() {
  std::lock_guard<std::mutex> g(mu_);
  closed_ = false;
}

void SideFile::Close() {
  std::lock_guard<std::mutex> g(mu_);
  closed_ = true;
}

bool SideFile::closed() const {
  std::lock_guard<std::mutex> g(mu_);
  return closed_;
}

size_t SideFile::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_.size();
}

uint64_t SideFile::total_recorded() const {
  std::lock_guard<std::mutex> g(mu_);
  return total_recorded_;
}

void SideFile::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  entries_.clear();
}

std::string SideFile::Serialize() const {
  std::lock_guard<std::mutex> g(mu_);
  std::string out;
  PutVarint64(&out, last_lsn_);
  PutVarint32(&out, static_cast<uint32_t>(entries_.size()));
  for (const SideEntry& e : entries_) {
    out.push_back(static_cast<char>(e.op));
    PutLengthPrefixedSlice(&out, e.key);
    PutFixed32(&out, e.leaf);
  }
  return out;
}

Status SideFile::Restore(const Slice& image) {
  Slice in = image;
  uint64_t watermark;
  if (!GetVarint64(&in, &watermark)) {
    return Status::Corruption("side file image");
  }
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("side file image");
  std::deque<SideEntry> entries;
  for (uint32_t i = 0; i < n; ++i) {
    if (in.empty()) return Status::Corruption("side file image");
    SideEntry e;
    e.op = static_cast<BaseUpdateOp>(in[0]);
    in.remove_prefix(1);
    Slice k;
    if (!GetLengthPrefixedSlice(&in, &k)) {
      return Status::Corruption("side file image");
    }
    e.key = k.ToString();
    uint32_t pid;
    if (!GetFixed32(&in, &pid)) return Status::Corruption("side file image");
    e.leaf = pid;
    entries.push_back(std::move(e));
  }
  std::lock_guard<std::mutex> g(mu_);
  // The checkpoint image carries no seqs (they are process-local); re-tag.
  for (SideEntry& e : entries) e.seq = ++next_seq_;
  entries_ = std::move(entries);
  restored_lsn_ = watermark;
  last_lsn_ = watermark;
  return Status::OK();
}

Lsn SideFile::restored_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return restored_lsn_;
}

void SideFile::RedoInsert(BaseUpdateOp op, const Slice& key, PageId leaf) {
  std::lock_guard<std::mutex> g(mu_);
  entries_.push_back(SideEntry{op, key.ToString(), leaf, ++next_seq_});
}

void SideFile::RedoApply() {
  std::lock_guard<std::mutex> g(mu_);
  if (!entries_.empty()) entries_.pop_front();
}

void SideFile::PruneBeyond(const Slice& stable_key) {
  std::lock_guard<std::mutex> g(mu_);
  std::deque<SideEntry> kept;
  for (const SideEntry& e : entries_) {
    if (Slice(e.key).compare(stable_key) <= 0) kept.push_back(e);
  }
  entries_ = std::move(kept);
}

}  // namespace soreorg
