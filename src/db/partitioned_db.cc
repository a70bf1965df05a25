#include "src/db/partitioned_db.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace soreorg {

namespace {

inline uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// FNV-1a over the key bytes with an fmix64 finalizer: cheap, and the
/// finalizer decorrelates the low bits the modulo consumes from the
/// sequential key patterns the workloads generate.
uint64_t HashKey(const Slice& key) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < key.size(); ++i) {
    h ^= static_cast<unsigned char>(key.data()[i]);
    h *= 1099511628211ULL;
  }
  return Fmix64(h);
}

}  // namespace

Status PartitionedDatabase::Open(Env* env, PartitionedDBOptions options,
                                 std::unique_ptr<PartitionedDatabase>* out) {
  if (options.partitions == 0) {
    return Status::InvalidArgument("partitions must be >= 1");
  }
  if (options.scheme == PartitioningScheme::kRange) {
    if (options.range_boundaries.size() != options.partitions - 1) {
      return Status::InvalidArgument(
          "range partitioning needs partitions-1 boundaries");
    }
    for (size_t i = 1; i < options.range_boundaries.size(); ++i) {
      if (options.range_boundaries[i - 1] >= options.range_boundaries[i]) {
        return Status::InvalidArgument(
            "range boundaries must be strictly ascending");
      }
    }
  }
  if (options.max_concurrent_reorgs == 0) options.max_concurrent_reorgs = 1;
  if (options.scan_batch == 0) options.scan_batch = 1;

  std::unique_ptr<PartitionedDatabase> pdb(
      new PartitionedDatabase(std::move(options)));
  const std::string prefix = pdb->options_.base.name;
  pdb->dbs_.resize(pdb->options_.partitions);
  for (size_t i = 0; i < pdb->options_.partitions; ++i) {
    DatabaseOptions per = pdb->options_.base;
    per.name = prefix + ".p" + std::to_string(i);
    Status s = Database::Open(env, std::move(per), &pdb->dbs_[i]);
    if (!s.ok()) return s;
  }
  pdb->executor_ = std::make_unique<Executor>(pdb->options_.executor);
  *out = std::move(pdb);
  return Status::OK();
}

PartitionedDatabase::~PartitionedDatabase() {
  // Executor first: in-flight ops finish, queued-but-unstarted ops fail
  // Aborted — only then do the partitions they reference go away.
  if (executor_) executor_->Shutdown();
  dbs_.clear();
}

size_t PartitionedDatabase::PartitionOf(const Slice& key) const {
  if (dbs_.size() == 1) return 0;
  if (options_.scheme == PartitioningScheme::kHash) {
    return static_cast<size_t>(HashKey(key) % dbs_.size());
  }
  size_t p = 0;
  while (p < options_.range_boundaries.size() &&
         key.compare(Slice(options_.range_boundaries[p])) >= 0) {
    ++p;
  }
  return p;
}

int PartitionedDatabase::WorkerOf(size_t partition) const {
  return static_cast<int>(partition %
                          static_cast<size_t>(executor_->workers()));
}

// --- point operations -------------------------------------------------------

// Synchronous ops capture their arguments by reference: Execute() does not
// return until the task has run (inline or on the worker), so the caller's
// Slices outlive the task and no copies are needed.

Status PartitionedDatabase::Put(const Slice& key, const Slice& value,
                                int64_t deadline_ms) {
  size_t p = PartitionOf(key);
  Database* db = dbs_[p].get();
  return executor_->Execute(
      WorkerOf(p), [db, &key, &value]() { return db->Put(key, value); },
      deadline_ms);
}

Status PartitionedDatabase::Update(const Slice& key, const Slice& value,
                                   int64_t deadline_ms) {
  size_t p = PartitionOf(key);
  Database* db = dbs_[p].get();
  return executor_->Execute(
      WorkerOf(p), [db, &key, &value]() { return db->Update(key, value); },
      deadline_ms);
}

Status PartitionedDatabase::Delete(const Slice& key, int64_t deadline_ms) {
  size_t p = PartitionOf(key);
  Database* db = dbs_[p].get();
  return executor_->Execute(
      WorkerOf(p), [db, &key]() { return db->Delete(key); }, deadline_ms);
}

Status PartitionedDatabase::Get(const Slice& key, std::string* value,
                                int64_t deadline_ms) {
  size_t p = PartitionOf(key);
  Database* db = dbs_[p].get();
  return executor_->Execute(
      WorkerOf(p), [db, &key, value]() { return db->Get(key, value); },
      deadline_ms);
}

Status PartitionedDatabase::ReadModifyWrite(
    const Slice& key,
    const std::function<std::string(const std::string&)>& modify,
    int64_t deadline_ms) {
  size_t p = PartitionOf(key);
  Database* db = dbs_[p].get();
  return executor_->Execute(
      WorkerOf(p),
      [db, &key, &modify]() {
        std::string cur;
        Status s = db->Get(key, &cur);
        if (!s.ok()) return s;
        return db->Update(key, modify(cur));
      },
      deadline_ms);
}

// --- merged scan ------------------------------------------------------------

namespace {

struct ScanCursor {
  size_t part = 0;
  std::vector<std::pair<std::string, std::string>> batch;
  size_t pos = 0;
  bool exhausted = false;
  bool first_fetch = true;
  std::string next_lo;  // last emitted key; refetch resumes just after it
};

}  // namespace

Status PartitionedDatabase::Scan(
    const Slice& lo, const Slice& hi,
    const std::function<bool(const Slice&, const Slice&)>& cb,
    int64_t deadline_ms) {
  const size_t n = dbs_.size();
  const size_t want = options_.scan_batch;

  auto fetch = [&](ScanCursor* c) -> Status {
    c->batch.clear();
    c->pos = 0;
    if (c->exhausted) return Status::OK();
    Database* db = dbs_[c->part].get();
    // Resume from the last emitted key: Scan's lo is inclusive, so the
    // resume key itself is skipped iff it still exists.
    std::string from = c->first_fetch ? lo.ToString() : c->next_lo;
    bool skip_resume_key = !c->first_fetch;
    Status s = executor_->Execute(
        WorkerOf(c->part),
        [&]() {
          return db->Scan(
              Slice(from), hi, [&](const Slice& k, const Slice& v) {
                if (skip_resume_key) {
                  skip_resume_key = false;
                  if (k.compare(Slice(from)) == 0) return true;
                }
                c->batch.emplace_back(k.ToString(), v.ToString());
                return c->batch.size() < want;
              });
        },
        deadline_ms);
    if (!s.ok()) return s;
    if (c->batch.size() < want) c->exhausted = true;
    if (!c->batch.empty()) c->next_lo = c->batch.back().first;
    c->first_fetch = false;
    return Status::OK();
  };

  // Which partitions can hold keys in [lo, hi]? Hash: all of them. Range:
  // only those whose interval intersects.
  std::vector<ScanCursor> cursors;
  for (size_t p = 0; p < n; ++p) {
    if (options_.scheme == PartitioningScheme::kRange && n > 1) {
      // Partition p serves [B[p-1], B[p]).
      if (p > 0 && !hi.empty() &&
          hi.compare(Slice(options_.range_boundaries[p - 1])) < 0) {
        continue;  // whole partition above the scan range
      }
      if (p + 1 < n && !lo.empty() &&
          lo.compare(Slice(options_.range_boundaries[p])) >= 0) {
        continue;  // whole partition below the scan range
      }
    }
    ScanCursor c;
    c.part = p;
    cursors.push_back(std::move(c));
  }
  // One live cursor (single partition, or range pruning left one): stream
  // straight through without batching — no per-record copies, and with an
  // idle lane the executor runs the whole scan inline.
  if (cursors.empty()) return Status::OK();
  if (cursors.size() == 1) {
    Database* db = dbs_[cursors[0].part].get();
    return executor_->Execute(
        WorkerOf(cursors[0].part),
        [db, &lo, &hi, &cb]() { return db->Scan(lo, hi, cb); }, deadline_ms);
  }

  for (ScanCursor& c : cursors) {
    Status s = fetch(&c);
    if (!s.ok()) return s;
  }

  // K-way merge by smallest head key. Partition count is small (the linear
  // min costs less than a heap's bookkeeping) and the router makes keys
  // unique across partitions, so ties cannot occur.
  for (;;) {
    ScanCursor* best = nullptr;
    for (ScanCursor& c : cursors) {
      if (c.pos >= c.batch.size()) continue;
      if (best == nullptr ||
          c.batch[c.pos].first < best->batch[best->pos].first) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    const auto& kv = best->batch[best->pos];
    ++best->pos;
    if (!cb(Slice(kv.first), Slice(kv.second))) return Status::OK();
    if (best->pos >= best->batch.size() && !best->exhausted) {
      Status s = fetch(best);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

// --- bulk load --------------------------------------------------------------

Status PartitionedDatabase::BulkLoad(
    const std::vector<std::pair<std::string, std::string>>& sorted_records,
    double leaf_fill, double internal_fill) {
  std::vector<std::vector<std::pair<std::string, std::string>>> routed(
      dbs_.size());
  for (const auto& kv : sorted_records) {
    routed[PartitionOf(kv.first)].push_back(kv);
  }
  // The input is sorted, so each routed stream is too.
  for (size_t i = 0; i < dbs_.size(); ++i) {
    Status s = dbs_[i]->BulkLoad(routed[i], leaf_fill, internal_fill);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// --- reorganization ---------------------------------------------------------

Status PartitionedDatabase::ReorganizePartition(size_t i) {
  if (i >= dbs_.size()) {
    return Status::InvalidArgument("no such partition");
  }
  {
    std::unique_lock<std::mutex> lk(reorg_mu_);
    reorg_slot_free_.wait(lk, [this]() {
      return active_reorgs_ < options_.max_concurrent_reorgs;
    });
    ++active_reorgs_;
    max_concurrent_seen_ = std::max(max_concurrent_seen_,
                                    static_cast<uint64_t>(active_reorgs_));
  }
  Status s = dbs_[i]->Reorganize();
  {
    std::lock_guard<std::mutex> lk(reorg_mu_);
    --active_reorgs_;
    ++reorgs_completed_;
  }
  reorg_slot_free_.notify_one();
  return s;
}

Status PartitionedDatabase::ReorganizeAll() {
  const size_t n = dbs_.size();
  size_t start;
  {
    std::lock_guard<std::mutex> lk(reorg_mu_);
    start = next_reorg_partition_ % n;
    next_reorg_partition_ = (start + 1) % n;
  }
  size_t runners = std::min(options_.max_concurrent_reorgs, n);
  std::atomic<size_t> cursor{0};
  std::mutex err_mu;
  Status first_err;
  auto work = [&]() {
    for (;;) {
      size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= n) return;
      Status s = ReorganizePartition((start + k) % n);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (first_err.ok()) first_err = s;
      }
    }
  };
  if (runners <= 1) {
    work();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(runners);
    for (size_t t = 0; t < runners; ++t) threads.emplace_back(work);
    for (auto& t : threads) t.join();
  }
  return first_err;
}

Status PartitionedDatabase::Checkpoint() {
  for (auto& db : dbs_) {
    Status s = db->Checkpoint();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

PartitionedDBStats PartitionedDatabase::stats() const {
  PartitionedDBStats s;
  s.executor = executor_->stats();
  std::lock_guard<std::mutex> lk(reorg_mu_);
  s.reorgs_completed = reorgs_completed_;
  s.max_concurrent_reorgs_seen = max_concurrent_seen_;
  return s;
}

}  // namespace soreorg
