#include "perfbench/src/workloads.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/src/envs.h"
#include "perfbench/src/gen.h"
#include "perfbench/src/histogram.h"
#include "perfbench/src/trace.h"
#include "src/db/partitioned_db.h"

namespace perfbench {

namespace {

using soreorg::Database;
using soreorg::LockMode;
using soreorg::LogType;
using soreorg::PartitionedDatabase;
using soreorg::Slice;
using soreorg::Status;

// ---------------------------------------------------------------------------
// Workload shapes

struct Mix {
  double get, update, insert, del, scan;
};

struct Shape {
  int min_rounds = 0;  // untraced rounds per run, at least
  size_t partitions = 1;
  size_t pool_pages = 1024;  // per partition, in the measured phases
  uint64_t slots = 0;        // key space
  uint64_t load_stride = 1;  // every load_stride-th slot is loaded
  double load_fill = 0.9;
  Mix mix{};
  uint64_t warmup_ops = 0;
  // reorg_online aging: loaded dense with a pool that holds the whole tree,
  // then clustered deletes, scattered deletes and insert churn.
  size_t aging_pool_pages = 0;
  double cluster_delete_frac = 0;
  // reorg_online: closed-loop client service before the reorganizer starts,
  // and the paced client's period during the passes (see Round::Window).
  double pre_reorg_s = 0;
  std::chrono::nanoseconds reorg_client_period{0};
  double scatter_delete_frac = 0;
  uint64_t churn_inserts = 0;
  // restart: committed update transactions before the crash.
  uint64_t burst_updates = 0;
  size_t burst_txn_ops = 0;
  // restart: the serving window after recovery.
  double post_window_s = 0;
};

constexpr Mix kHotMix{0.90, 0.05, 0.0, 0.0, 0.05};
constexpr Mix kChurnMix{0.70, 0.10, 0.05, 0.05, 0.10};
constexpr uint64_t kMaxScan = 50;
// Records fetched per partition per batch of a merged scan: a 50-key scan
// over 4 hash partitions takes about 13 from each. With the default of 64
// every scan copies 256 records and takes ~110 us, long enough that this
// VM's scheduling noise sets its p99 (spread 18-24% over ten seeds, against
// 3% at 16). Scans are still about half of serve_hot's time.
constexpr size_t kScanBatch = 16;
constexpr size_t kAgingTxnOps = 100;
constexpr uint64_t kClusterRun = 150;
constexpr double kZipfTheta = 0.99;
// Rounds per run: the untraced run takes at least the shape's min_rounds,
// the traced run alternates untraced and traced rounds, kMinTracedRounds of
// each; either goes on while --seconds has not elapsed, up to kMaxRounds.
// serve_hot's client window is --seconds divided by the minimum round count.
// reorg_online takes more rounds because its passes are short (~0.45 s):
// their time varies 10-20% from one round to the next on a shared host.
constexpr int kMinRounds = 7;
constexpr int kMinReorgRounds = 15;
constexpr int kMinTracedRounds = 3;
constexpr int kMaxRounds = 16;

Shape ShapeOf(const std::string& w) {
  Shape s;
  s.min_rounds = kMinRounds;
  if (w == "serve_hot") {
    s.partitions = 4;
    s.pool_pages = 2048;
    s.slots = 100000;
    s.load_fill = 0.9;
    s.mix = kHotMix;
    s.warmup_ops = 20000;
  } else if (w == "reorg_online") {
    s.partitions = 1;
    s.pool_pages = 1024;
    s.slots = 300000;
    s.load_fill = 0.9;
    s.mix = kChurnMix;
    s.warmup_ops = 5000;
    s.aging_pool_pages = 16384;
    s.cluster_delete_frac = 0.35;
    s.scatter_delete_frac = 0.62;
    s.churn_inserts = 20000;
    s.min_rounds = kMinReorgRounds;
    s.pre_reorg_s = 1.5;
    s.reorg_client_period = std::chrono::microseconds(500);  // 2000 ops/s
  } else {  // restart
    s.partitions = 1;
    s.pool_pages = 1024;
    s.slots = 200000;
    s.load_stride = 2;  // the unloaded slots take the client's inserts
    s.load_fill = 0.3;
    s.mix = kChurnMix;
    s.burst_updates = 30000;
    s.burst_txn_ops = 50;
    s.post_window_s = 0.5;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Shadow of every acknowledged write

class Shadow {
 public:
  Shadow(uint64_t slots, uint64_t seed)
      : seed_(seed), version_(slots, 0), live_(slots, 0) {}

  uint64_t slots() const { return version_.size(); }
  uint64_t live_count() const { return live_count_; }
  bool live(uint64_t s) const { return live_[s] != 0; }
  uint32_t version(uint64_t s) const { return version_[s]; }
  std::string Value(uint64_t s) const { return ValueOf(seed_, s, version_[s]); }
  uint64_t seed() const { return seed_; }

  void Put(uint64_t s) {
    ++version_[s];
    if (!live_[s]) {
      live_[s] = 1;
      ++live_count_;
    }
  }
  void Erase(uint64_t s) {
    if (live_[s]) {
      live_[s] = 0;
      --live_count_;
    }
  }
  /// First slot at or after s (wrapping) that is live / dead.
  uint64_t NextLive(uint64_t s) const { return Next(s, 1); }
  uint64_t NextDead(uint64_t s) const { return Next(s, 0); }

 private:
  uint64_t Next(uint64_t s, uint8_t want) const {
    const uint64_t n = live_.size();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t c = (s + i) % n;
      if (live_[c] == want) return c;
    }
    return s;
  }

  uint64_t seed_;
  std::vector<uint32_t> version_;
  std::vector<uint8_t> live_;
  uint64_t live_count_ = 0;
};

// ---------------------------------------------------------------------------
// Per-round trace aggregation (traced rounds only)

enum OpClass { kReadClass = 0, kWriteClass = 1, kScanClass = 2 };
constexpr int kOpClasses = 3;

struct TraceAgg {
  explicit TraceAgg(SpanLog* log) : log(log) {}

  void AddUnit(const OpTrace& t) {
    const auto self = t.SelfTimes();
    std::lock_guard<std::mutex> g(mu);
    for (int l = 0; l < kLayers; ++l) self_ns[l] += self[l];
    log->Add(t);
  }

  SpanLog* log;
  std::mutex mu;
  std::array<uint64_t, kLayers> self_ns{};
  // Client-thread only:
  Histogram db_self, queue_wait;
  Histogram btree_self[kOpClasses];
  uint64_t executes = 0;
  uint64_t inlined = 0;
};

std::atomic<uint64_t> g_next_op_id{1};

// ---------------------------------------------------------------------------
// One round's database: PosixEnv under DataDirEnv (and TimingEnv if traced)

class Instance {
 public:
  Instance(std::string dir, const Shape& shape, bool traced)
      : dir_(std::move(dir)), shape_(shape), traced_(traced) {}
  ~Instance() { pdb_.reset(); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  soreorg::Env* env() {
    return traced_ ? static_cast<soreorg::Env*>(&timing_) : &data_;
  }
  PartitionedDatabase* db() { return pdb_.get(); }
  std::string name() const { return dir_ + "/db"; }

  soreorg::PartitionedDBOptions Options(size_t pool_pages) const {
    soreorg::PartitionedDBOptions o;
    o.partitions = shape_.partitions;
    o.executor.workers = static_cast<int>(shape_.partitions);
    o.base.buffer_pool_pages = pool_pages;
    o.base.name = name();
    o.scan_batch = kScanBatch;
    return o;
  }

  /// Open (running restart recovery on existing files). The lock-wait
  /// tracer goes on every partition before any traffic.
  Status Open(size_t pool_pages) {
    Status s = PartitionedDatabase::Open(env(), Options(pool_pages), &pdb_);
    if (s.ok() && traced_) {
      for (size_t i = 0; i < pdb_->partitions(); ++i) {
        locks.Install(pdb_->partition(i)->lock_manager());
      }
    }
    return s;
  }
  /// Clean close: the destructor's flush reaches the files.
  void Close() { pdb_.reset(); }
  /// Process-kill: the closing flush is dropped.
  void Crash() {
    data_.Crash();
    pdb_.reset();
    data_.Revive();
  }

  IoStats io;
  LockWaitTracer locks;

 private:
  std::string dir_;
  Shape shape_;
  bool traced_;
  soreorg::PosixEnv posix_;
  DataDirEnv data_{&posix_};
  TimingEnv timing_{&data_, &io};
  std::unique_ptr<PartitionedDatabase> pdb_;
};

// ---------------------------------------------------------------------------
// The closed-loop client

constexpr uint64_t kMissNs = UINT64_C(1) << 45;  // a failed op misses any limit

class Client {
 public:
  Client(PartitionedDatabase* db, Shadow* shadow, const Mix& mix,
         uint64_t seed, TraceAgg* trace)
      : db_(db),
        shadow_(shadow),
        mix_(mix),
        rng_(seed),
        zipf_(shadow->slots(), kZipfTheta, Mix64(seed)),
        trace_(trace),
        scan_buf_(kMaxScan),
        hist_(kOpClasses),
        during_(kOpClasses) {}

  /// One op; `measured` ops are timed, counted and checked.
  void RunOne(bool measured);
  void RunFor(double seconds) {
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) RunOne(true);
  }
  /// One measured op per `period`, sleeping in between, until `stop` is
  /// set. These ops are also recorded in during().
  void RunPaced(std::chrono::nanoseconds period,
                const std::atomic<bool>& stop) {
    paced_ = true;
    auto next = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_acquire)) {
      RunOne(true);
      // A late op delays the schedule rather than starting a burst.
      next = std::max(next + period, std::chrono::steady_clock::now());
      std::this_thread::sleep_until(next);
    }
    paced_ = false;
  }
  const std::vector<Histogram>& during() const { return during_; }

  const std::vector<Histogram>& hist() const { return hist_; }
  uint64_t ops() const { return ops_; }
  uint64_t failed() const { return failed_; }
  uint64_t wrong() const { return wrong_; }
  uint64_t writes() const { return writes_; }
  uint64_t window_ns() const { return window_ns_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  enum class Kind { kGet, kUpdate, kInsert, kDelete, kScan };

  Status Call(Kind k, size_t len);
  Status CallTraced(Kind k, size_t len);
  template <typename F>
  Status ExecuteTraced(size_t part, const char* name, F&& f);
  Status MergedScanTraced(size_t len);
  bool ScanMatches(uint64_t first, size_t len) const;
  void Collect(const Slice& k, const Slice& v) {
    scan_buf_[scan_n_].first.assign(k.data(), k.size());
    scan_buf_[scan_n_].second.assign(v.data(), v.size());
    ++scan_n_;
  }

  PartitionedDatabase* db_;
  Shadow* shadow_;
  Mix mix_;
  Rng rng_;
  Zipfian zipf_;
  TraceAgg* trace_;
  OpTrace op_trace_;

  std::string key_, value_, got_;
  std::vector<std::pair<std::string, std::string>> scan_buf_;
  size_t scan_n_ = 0;

  std::vector<Histogram> hist_;
  bool paced_ = false;
  std::vector<Histogram> during_;
  uint64_t ops_ = 0, failed_ = 0, wrong_ = 0, writes_ = 0, window_ns_ = 0;
  std::string first_failure_;
};

void Client::RunOne(bool measured) {
  const double u = rng_.Unit();
  Kind k;
  if (u < mix_.get) {
    k = Kind::kGet;
  } else if (u < mix_.get + mix_.update) {
    k = Kind::kUpdate;
  } else if (u < mix_.get + mix_.update + mix_.insert) {
    k = Kind::kInsert;
  } else if (u < mix_.get + mix_.update + mix_.insert + mix_.del) {
    k = Kind::kDelete;
  } else {
    k = Kind::kScan;
  }
  uint64_t slot = 0;
  size_t len = 0;
  switch (k) {
    case Kind::kGet:
    case Kind::kUpdate:
      slot = shadow_->NextLive(zipf_.NextScrambled());
      break;
    case Kind::kInsert:
      slot = shadow_->NextDead(rng_.Uniform(shadow_->slots()));
      break;
    case Kind::kDelete:
      slot = shadow_->NextLive(rng_.Uniform(shadow_->slots()));
      break;
    case Kind::kScan:
      slot = shadow_->NextLive(zipf_.NextScrambled());
      len = 1 + rng_.Uniform(kMaxScan);
      break;
  }
  key_ = KeyOf(slot);
  if (k == Kind::kUpdate || k == Kind::kInsert) {
    ValueOf(shadow_->seed(), slot, shadow_->version(slot) + 1, &value_);
  }

  const uint64_t t0 = NowNs();
  const Status s =
      trace_ != nullptr && measured ? CallTraced(k, len) : Call(k, len);
  const uint64_t t1 = NowNs();

  bool right = true;
  if (s.ok()) {
    switch (k) {
      case Kind::kGet:
        right = got_ == shadow_->Value(slot);
        break;
      case Kind::kUpdate:
      case Kind::kInsert:
        shadow_->Put(slot);
        ++writes_;
        break;
      case Kind::kDelete:
        shadow_->Erase(slot);
        ++writes_;
        break;
      case Kind::kScan:
        right = ScanMatches(slot, len);
        break;
    }
  }
  if (!measured) return;
  const int cls = k == Kind::kGet    ? kReadClass
                  : k == Kind::kScan ? kScanClass
                                     : kWriteClass;
  ++ops_;
  window_ns_ += t1 - t0;
  hist_[cls].Record(s.ok() ? t1 - t0 : kMissNs);
  if (paced_) during_[cls].Record(s.ok() ? t1 - t0 : kMissNs);
  if (!s.ok() && failed_++ == 0) {
    static const char* const kKinds[] = {"Get", "Update", "Insert", "Delete",
                                         "Scan"};
    first_failure_ =
        std::string(kKinds[static_cast<int>(k)]) + ": " + s.ToString();
  }
  if (!right) ++wrong_;
  if (trace_ != nullptr) {
    const auto self = op_trace_.SelfTimes();
    trace_->db_self.Record(self[static_cast<int>(Layer::kDb)]);
    trace_->btree_self[cls].Record(self[static_cast<int>(Layer::kBtree)]);
    trace_->AddUnit(op_trace_);
  }
}

Status Client::Call(Kind k, size_t len) {
  switch (k) {
    case Kind::kGet:
      return db_->Get(key_, &got_);
    case Kind::kUpdate:
      return db_->Update(key_, value_);
    case Kind::kInsert:
      return db_->Put(key_, value_);
    case Kind::kDelete:
      return db_->Delete(key_);
    case Kind::kScan:
      break;
  }
  scan_n_ = 0;
  return db_->Scan(key_, Slice(), [&](const Slice& k, const Slice& v) {
    Collect(k, v);
    return scan_n_ < len;
  });
}

// Run `f` (one Database call) as Executor::Execute on the partition's
// lane, so queue wait and routing separate from service time.
template <typename F>
Status Client::ExecuteTraced(size_t part, const char* name, F&& f) {
  const int32_t ex = op_trace_.Open("Executor::Execute");
  const std::thread::id caller = std::this_thread::get_id();
  bool ran_inline = false;
  uint64_t started = 0;
  Status s = db_->executor()->Execute(db_->WorkerOf(part), [&]() {
    ScopedTrace adopt(&op_trace_);
    ran_inline = std::this_thread::get_id() == caller;
    const int32_t call = op_trace_.Open(name);
    started = op_trace_.spans()[static_cast<size_t>(call)].start_ns;
    Status r = f();
    op_trace_.Close(call);
    return r;
  });
  op_trace_.Close(ex);
  ++trace_->executes;
  if (ran_inline) ++trace_->inlined;
  if (started != 0) {
    trace_->queue_wait.Record(
        started - op_trace_.spans()[static_cast<size_t>(ex)].start_ns);
  }
  return s;
}

Status Client::CallTraced(Kind k, size_t len) {
  static const char* const kOpNames[] = {"op.get", "op.update", "op.insert",
                                         "op.delete", "op.scan"};
  op_trace_.Begin(g_next_op_id.fetch_add(1), kOpNames[static_cast<int>(k)]);
  ScopedTrace scope(&op_trace_);
  Status s;
  if (k == Kind::kScan && db_->partitions() > 1) {
    s = MergedScanTraced(len);
  } else {
    const size_t p = db_->PartitionOf(key_);
    Database* d = db_->partition(p);
    switch (k) {
      case Kind::kGet:
        s = ExecuteTraced(p, "Database::Get",
                          [&]() { return d->Get(key_, &got_); });
        break;
      case Kind::kUpdate:
        s = ExecuteTraced(p, "Database::Update",
                          [&]() { return d->Update(key_, value_); });
        break;
      case Kind::kInsert:
        s = ExecuteTraced(p, "Database::Put",
                          [&]() { return d->Put(key_, value_); });
        break;
      case Kind::kDelete:
        s = ExecuteTraced(p, "Database::Delete",
                          [&]() { return d->Delete(key_); });
        break;
      case Kind::kScan:
        scan_n_ = 0;
        s = ExecuteTraced(p, "Database::Scan", [&]() {
          return d->Scan(key_, Slice(), [&](const Slice& k2, const Slice& v) {
            Collect(k2, v);
            return scan_n_ < len;
          });
        });
        break;
    }
  }
  op_trace_.End();
  return s;
}

// The merged scan of PartitionedDatabase::Scan, driven from here so each
// per-partition batch fetch is one traced Executor::Execute(Database::Scan):
// batches of options().scan_batch records, resumed just after the last key
// fetched, merged by smallest head key.
Status Client::MergedScanTraced(size_t len) {
  struct Cursor {
    size_t part = 0;
    std::vector<std::pair<std::string, std::string>> batch;
    size_t pos = 0;
    bool exhausted = false;
    bool first = true;
    std::string next_lo;
  };
  const size_t want = db_->options().scan_batch;
  auto fetch = [&](Cursor* c) -> Status {
    c->batch.clear();
    c->pos = 0;
    if (c->exhausted) return Status::OK();
    Database* d = db_->partition(c->part);
    const std::string from = c->first ? key_ : c->next_lo;
    bool skip_resume_key = !c->first;
    Status s = ExecuteTraced(c->part, "Database::Scan", [&]() {
      return d->Scan(from, Slice(), [&](const Slice& k, const Slice& v) {
        if (skip_resume_key) {
          skip_resume_key = false;
          if (k.compare(Slice(from)) == 0) return true;
        }
        c->batch.emplace_back(k.ToString(), v.ToString());
        return c->batch.size() < want;
      });
    });
    if (!s.ok()) return s;
    if (c->batch.size() < want) c->exhausted = true;
    if (!c->batch.empty()) c->next_lo = c->batch.back().first;
    c->first = false;
    return Status::OK();
  };
  std::vector<Cursor> cursors(db_->partitions());
  for (size_t p = 0; p < cursors.size(); ++p) {
    cursors[p].part = p;
    Status s = fetch(&cursors[p]);
    if (!s.ok()) return s;
  }
  scan_n_ = 0;
  while (scan_n_ < len) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.pos < c.batch.size() &&
          (best == nullptr ||
           c.batch[c.pos].first < best->batch[best->pos].first)) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    const auto& kv = best->batch[best->pos++];
    Collect(kv.first, kv.second);
    if (best->pos >= best->batch.size() && !best->exhausted) {
      Status s = fetch(best);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

bool Client::ScanMatches(uint64_t first, size_t len) const {
  size_t i = 0;
  for (uint64_t s = first; s < shadow_->slots() && i < len; ++s) {
    if (!shadow_->live(s)) continue;
    if (i >= scan_n_ || scan_buf_[i].first != KeyOf(s) ||
        scan_buf_[i].second != shadow_->Value(s)) {
      return false;
    }
    ++i;
  }
  return i == scan_n_;
}

// ---------------------------------------------------------------------------
// Phases

/// Bulk-load every stride-th slot at version 1.
Status Load(PartitionedDatabase* db, Shadow* shadow, uint64_t stride,
            double fill) {
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(shadow->slots() / stride);
  for (uint64_t s = 0; s < shadow->slots(); s += stride) {
    shadow->Put(s);
    records.emplace_back(KeyOf(s), shadow->Value(s));
  }
  return db->BulkLoad(records, fill);
}

/// Multi-op transactions for single-threaded setup work. The shadow follows
/// each op as it succeeds: setup never crashes mid-transaction, and any
/// failure fails the round.
class TxnBatch {
 public:
  TxnBatch(Database* db, Shadow* shadow, size_t ops)
      : db_(db), shadow_(shadow), ops_(ops) {}

  Status Update(uint64_t slot) {
    return Add([&]() {
      return db_->tree()->Update(txn_, KeyOf(slot), NextValue(slot));
    }, [&]() { shadow_->Put(slot); });
  }
  Status Insert(uint64_t slot) {
    return Add([&]() {
      return db_->tree()->Insert(txn_, KeyOf(slot), NextValue(slot));
    }, [&]() { shadow_->Put(slot); });
  }
  Status Delete(uint64_t slot) {
    return Add([&]() { return db_->tree()->Delete(txn_, KeyOf(slot)); },
               [&]() { shadow_->Erase(slot); });
  }
  Status Commit() {
    if (txn_ == nullptr) return Status::OK();
    soreorg::Transaction* t = txn_;
    txn_ = nullptr;
    n_ = 0;
    return db_->Commit(t);
  }

 private:
  std::string NextValue(uint64_t slot) const {
    return ValueOf(shadow_->seed(), slot, shadow_->version(slot) + 1);
  }
  template <typename Op, typename Apply>
  Status Add(Op&& op, Apply&& apply) {
    if (txn_ == nullptr) txn_ = db_->Begin();
    Status s = op();
    if (!s.ok()) {
      db_->Abort(txn_);
      txn_ = nullptr;
      return s;
    }
    apply();
    return ++n_ >= ops_ ? Commit() : Status::OK();
  }

  Database* db_;
  Shadow* shadow_;
  size_t ops_;
  size_t n_ = 0;
  soreorg::Transaction* txn_ = nullptr;
};

/// The paper's degradation (§2): clustered deletes empty whole leaves
/// (free-at-empty returns their pages), scattered deletes leave the
/// survivors sparse, and insert churn splits leaves into the freed holes.
Status Age(Database* db, Shadow* shadow, const Shape& sh, uint64_t seed) {
  Rng r(Mix64(seed ^ 0xa6e));
  TxnBatch batch(db, shadow, kAgingTxnOps);
  const uint64_t n = shadow->slots();
  const auto cluster_target =
      static_cast<uint64_t>(double(n) * (1.0 - sh.cluster_delete_frac));
  while (shadow->live_count() > cluster_target) {
    const uint64_t start = r.Uniform(n);
    for (uint64_t s = start; s < std::min(start + kClusterRun, n); ++s) {
      if (!shadow->live(s)) continue;
      Status st = batch.Delete(s);
      if (!st.ok()) return st;
    }
  }
  const auto scatter_target = static_cast<uint64_t>(
      double(cluster_target) * (1.0 - sh.scatter_delete_frac));
  while (shadow->live_count() > scatter_target) {
    const uint64_t s = r.Uniform(n);
    if (!shadow->live(s)) continue;
    Status st = batch.Delete(s);
    if (!st.ok()) return st;
  }
  Status st = batch.Commit();
  if (!st.ok()) return st;
  // Settle: emptied pages become genuinely free before the churn reuses them.
  st = db->Checkpoint();
  if (!st.ok()) return st;
  for (uint64_t c = 0; c < sh.churn_inserts; ++c) {
    st = batch.Insert(shadow->NextDead(r.Uniform(n)));
    if (!st.ok()) return st;
  }
  st = batch.Commit();
  if (!st.ok()) return st;
  return db->Checkpoint();
}

/// Committed multi-op update transactions on uniformly chosen live slots.
Status Burst(Database* db, Shadow* shadow, const Shape& sh, uint64_t seed) {
  Rng r(Mix64(seed ^ 0xb0257));
  TxnBatch batch(db, shadow, sh.burst_txn_ops);
  for (uint64_t i = 0; i < sh.burst_updates; ++i) {
    Status s = batch.Update(shadow->NextLive(r.Uniform(shadow->slots())));
    if (!s.ok()) return s;
  }
  return batch.Commit();
}

struct TreeShape {
  double space_amp = 0;
  uint64_t leaf_pages = 0, height = 0, records = 0, in_order = 0;
  double leaf_fill = 0;
};

Status MeasureTree(PartitionedDatabase* db, const Shadow& shadow,
                   TreeShape* out) {
  uint64_t pages = 0;
  double fill_sum = 0;
  *out = TreeShape();
  for (size_t i = 0; i < db->partitions(); ++i) {
    soreorg::BTreeStats st;
    Status s = db->partition(i)->tree()->ComputeStats(&st);
    if (!s.ok()) return s;
    pages += st.leaf_pages + st.internal_pages;
    out->leaf_pages += st.leaf_pages;
    out->height = std::max<uint64_t>(out->height, st.height);
    out->records += st.records;
    out->in_order += st.leaves_in_disk_order;
    fill_sum += st.avg_leaf_fill * double(st.leaf_pages);
  }
  const double live_bytes =
      double(shadow.live_count()) * double(kKeyBytes + kValueBytes);
  out->space_amp = double(pages) * double(soreorg::kPageSize) / live_bytes;
  out->leaf_fill = out->leaf_pages ? fill_sum / double(out->leaf_pages) : 0;
  return Status::OK();
}

/// The recovered (or current) contents equal the shadow, in key order, and
/// every partition passes CheckConsistency.
bool Verify(PartitionedDatabase* db, const Shadow& shadow, std::string* why) {
  for (size_t i = 0; i < db->partitions(); ++i) {
    Status s = db->partition(i)->tree()->CheckConsistency();
    if (!s.ok()) {
      *why = "CheckConsistency: " + s.ToString();
      return false;
    }
  }
  uint64_t next = 0, seen = 0;
  bool ok = true;
  Status s = db->Scan(Slice(), Slice(), [&](const Slice& k, const Slice& v) {
    while (next < shadow.slots() && !shadow.live(next)) ++next;
    if (next >= shadow.slots() || k.ToString() != KeyOf(next) ||
        v.ToString() != shadow.Value(next)) {
      ok = false;
      return false;
    }
    ++next;
    ++seen;
    return true;
  });
  if (!s.ok()) {
    *why = "full scan: " + s.ToString();
    return false;
  }
  if (!ok || seen != shadow.live_count()) {
    *why = "full scan differs from the acknowledged writes";
    return false;
  }
  return true;
}

struct PassTimes {
  double s[3] = {0, 0, 0};
  double total() const { return s[0] + s[1] + s[2]; }
};

/// Reorganizer::Run's three passes on one partition, each timed (and a
/// traced span when `agg` is set).
Status RunPasses(Database* d, PassTimes* times, TraceAgg* agg) {
  static const char* const kPassNames[3] = {"reorg.pass1", "reorg.pass2",
                                            "reorg.pass3"};
  soreorg::Reorganizer* r = d->reorganizer();
  for (int p = 0; p < 3; ++p) {
    OpTrace t;
    if (agg != nullptr) t.Begin(g_next_op_id.fetch_add(1), kPassNames[p]);
    Status s;
    const uint64_t t0 = NowNs();
    {
      ScopedTrace scope(agg != nullptr ? &t : nullptr);
      s = p == 0 ? r->RunLeafPass()
                 : p == 1 ? r->RunSwapPass() : r->RunInternalPass();
    }
    times->s[p] += double(NowNs() - t0) / 1e9;
    if (agg != nullptr) {
      t.End();
      agg->AddUnit(t);
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// Summed-over-partitions engine counters, read before and after a phase.
struct Counters {
  uint64_t hits = 0, misses = 0, page_reads = 0, page_writes = 0;
  uint64_t locks = 0, waits = 0, backoffs = 0, deadlocks = 0, timeouts = 0;
  uint64_t optimistic = 0, fallbacks = 0;
  uint64_t wal_bytes = 0, wal_syncs = 0, reorg_log_bytes = 0;

  static Counters Read(PartitionedDatabase* db) {
    Counters c;
    for (size_t i = 0; i < db->partitions(); ++i) {
      Database* d = db->partition(i);
      c.hits += d->buffer_pool()->hit_count();
      c.misses += d->buffer_pool()->miss_count();
      c.page_reads += d->disk_manager()->pages_read();
      c.page_writes += d->disk_manager()->pages_written();
      const soreorg::LockStats ls = d->lock_manager()->stats();
      c.locks += ls.acquisitions;
      c.waits += ls.waits;
      c.backoffs += ls.backoffs;
      c.deadlocks += ls.deadlocks;
      c.timeouts += ls.timeouts;
      const soreorg::ReadPathStats rp = d->tree()->read_path_stats();
      c.optimistic += rp.optimistic_gets + rp.optimistic_batches;
      c.fallbacks += rp.fallbacks;
      soreorg::LogManager* log = d->log_manager();
      c.wal_bytes += log->bytes_appended();
      c.wal_syncs += log->sync_batches();
      for (LogType t : {LogType::kReorgBegin, LogType::kReorgMove,
                        LogType::kReorgModify, LogType::kReorgEnd}) {
        c.reorg_log_bytes += log->bytes_for_type(t);
      }
    }
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.page_reads = page_reads - o.page_reads;
    d.page_writes = page_writes - o.page_writes;
    d.locks = locks - o.locks;
    d.waits = waits - o.waits;
    d.backoffs = backoffs - o.backoffs;
    d.deadlocks = deadlocks - o.deadlocks;
    d.timeouts = timeouts - o.timeouts;
    d.optimistic = optimistic - o.optimistic;
    d.fallbacks = fallbacks - o.fallbacks;
    d.wal_bytes = wal_bytes - o.wal_bytes;
    d.wal_syncs = wal_syncs - o.wal_syncs;
    d.reorg_log_bytes = reorg_log_bytes - o.reorg_log_bytes;
    return d;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
double Ms(uint64_t ns) { return double(ns) / 1e6; }
double Us(double ns) { return ns / 1e3; }

// ---------------------------------------------------------------------------
// Rounds

struct RoundOut {
  bool traced = false;
  double setup_s = 0, reorg_s = 0, space_amp = 0, recovery_s = 0;
  uint64_t ops = 0, window_ns = 0;
  double ops_per_s = 0;         // over the closed-loop part of the window
  std::vector<Histogram> hist;  // per op class
  // Traced rounds: per-layer values, and the histograms behind the
  // per-layer percentiles (kDbSelf, kQueueWait, then btree self per class).
  std::map<std::string, double> layer;
  std::vector<Histogram> trace_hist;
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string error;  // the round could not run to the end
  std::vector<std::string> notes;
};

/// reorg_online's aged tree, built once per run (aging is most of a
/// round's cost) and copied into each round's directory.
struct AgedTree {
  std::string dir;
  Shadow shadow;
  double aging_s = 0;
};

/// Load dense with a pool that holds the whole tree, age, checkpoint and
/// close cleanly.
Status BuildAgedTree(const RunConfig& cfg, const Shape& shape, AgedTree* out) {
  std::error_code ec;
  std::filesystem::remove_all(out->dir, ec);
  std::filesystem::create_directories(out->dir, ec);
  if (ec) return Status::IOError(out->dir + ": " + ec.message());
  const uint64_t t0 = NowNs();
  Instance inst(out->dir, shape, false);
  Status s = inst.Open(shape.aging_pool_pages);
  if (!s.ok()) return s;
  s = Load(inst.db(), &out->shadow, shape.load_stride, shape.load_fill);
  if (!s.ok()) return s;
  s = Age(inst.db()->partition(0), &out->shadow, shape, cfg.seed);
  if (!s.ok()) return s;
  inst.Close();
  out->aging_s = double(NowNs() - t0) / 1e9;
  return Status::OK();
}

class Round {
 public:
  Round(const RunConfig& cfg, const Shape& shape, int index, bool traced,
        SpanLog* log, const AgedTree* aged)
      : cfg_(cfg),
        shape_(shape),
        dir_(cfg.data_dir + "/round-" + std::to_string(index)),
        traced_(traced),
        aged_(aged),
        shadow_(aged != nullptr ? aged->shadow : Shadow(shape.slots, cfg.seed)),
        agg_(log) {}

  RoundOut Run();

 private:
  Status Setup();
  Status Window();
  Status CrashAndRecover();
  Status Reorganize();
  Status Measure();
  void Check(const char* when);
  void Fail(const Status& s) {
    ++out_.failed;
    if (out_.error.empty()) out_.error = s.ToString();
  }
  TraceAgg* agg() { return traced_ ? &agg_ : nullptr; }
  void NewClient() {
    client_ = std::make_unique<Client>(inst_->db(), &shadow_, shape_.mix,
                                       Mix64(cfg_.seed ^ 0xc11e47), agg());
  }
  void LayerMetrics();

  const RunConfig& cfg_;
  Shape shape_;
  std::string dir_;
  bool traced_;
  const AgedTree* aged_;
  Shadow shadow_;
  TraceAgg agg_;
  std::unique_ptr<Instance> inst_;
  std::unique_ptr<Client> client_;
  RoundOut out_;
  double window_s_ = 0;  // serve_hot's client window

  // Per-layer inputs gathered by the phases.
  Counters window_delta_, focus_delta_, reorg_delta_;
  IoStats::Snapshot window_io_, focus_io_, open_io_;
  LockWaitTracer::Totals window_waits_;
  PassTimes passes_;
  soreorg::ReorgStats reorg_stats_{};
  soreorg::SwitchStats switch_stats_{};
  TreeShape tree_;
  soreorg::RecoveryResult recovered_{};
  double scan_s_ = 0;
};

Status Round::Setup() {
  if (aged_ != nullptr) {
    std::error_code ec;
    std::filesystem::copy(aged_->dir, dir_,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) return Status::IOError("copy aged tree: " + ec.message());
  }
  Status s = inst_->Open(shape_.pool_pages);
  if (!s.ok()) return s;
  PartitionedDatabase* db = inst_->db();
  if (aged_ == nullptr) {
    s = Load(db, &shadow_, shape_.load_stride, shape_.load_fill);
    if (!s.ok()) return s;
  }
  if (shape_.burst_updates != 0) {
    s = db->Checkpoint();
    if (!s.ok()) return s;
    s = Burst(db->partition(0), &shadow_, shape_, cfg_.seed);
    if (!s.ok()) return s;
    s = db->partition(0)->reorganizer()->RunLeafPass();
    if (!s.ok()) return s;
  }
  if (cfg_.workload != "restart") {
    NewClient();
    for (uint64_t i = 0; i < shape_.warmup_ops; ++i) client_->RunOne(false);
  }
  return Status::OK();
}

/// serve_hot and restart: the closed-loop client alone for a fixed time.
/// reorg_online: the closed-loop client serves the aged tree for
/// pre_reorg_s; then another thread runs the three passes while the client,
/// paced at one op per reorg_client_period, keeps going; the window ends
/// with the last pass. ops_per_s covers the closed-loop part, the latency
/// histograms the whole window.
///
/// Why the pacing: a closed-loop client beside the passes doubles reorg_s
/// (0.45 s alone, 0.75-0.9 s beside it) by competing for the reorganizer's
/// CPU and buffer-pool mutexes, and how much it does depends on where the
/// OS places the two threads, so reorg_s spread 20-35% over ten seeds.
/// Closed-loop ops beside the passes also put the client's p99s on a knee:
/// about 1% of writes waited 0.3-8 ms on the reorganizer's locks or
/// flushes. The reorganization-only tails are the per-layer
/// reorg.client_*_p99_us.
Status Round::Window() {
  PartitionedDatabase* db = inst_->db();
  inst_->io.Take();
  const Counters before = Counters::Read(db);
  const LockWaitTracer::Totals waits_before = inst_->locks.totals();
  const uint64_t ops0 = client_->ops();
  const uint64_t t0 = NowNs();
  double service_s = shape_.pre_reorg_s;
  if (cfg_.workload == "serve_hot") service_s = window_s_;
  if (cfg_.workload == "restart") service_s = shape_.post_window_s;
  client_->RunFor(service_s);
  out_.ops_per_s = Ratio(double(client_->ops() - ops0),
                         double(NowNs() - t0) / 1e9);
  Status reorg_status;
  if (cfg_.workload == "reorg_online") {
    std::atomic<bool> done{false};
    std::thread reorganizer([&]() {
      LockWaitTracer::MarkReorgThread(true);
      reorg_status = RunPasses(db->partition(0), &passes_, agg());
      done.store(true, std::memory_order_release);
    });
    client_->RunPaced(shape_.reorg_client_period, done);
    reorganizer.join();
    out_.attempted += 3;
    if (!reorg_status.ok()) Fail(reorg_status);
    out_.reorg_s = passes_.total();
  }
  window_delta_ = Counters::Read(db) - before;
  window_io_ = inst_->io.Take();
  window_waits_ = inst_->locks.totals() - waits_before;
  if (cfg_.workload == "reorg_online") {
    const soreorg::Reorganizer* r = db->partition(0)->reorganizer();
    reorg_stats_ = r->stats();
    switch_stats_ = r->switch_stats();
    reorg_delta_ = window_delta_;
  }
  return reorg_status;
}

/// Reorganize every partition (all three passes), timed.
Status Round::Reorganize() {
  PartitionedDatabase* db = inst_->db();
  const Counters before = Counters::Read(db);
  for (size_t i = 0; i < db->partitions(); ++i) {
    out_.attempted += 3;
    Status s = RunPasses(db->partition(i), &passes_, agg());
    if (!s.ok()) return s;
    const soreorg::ReorgStats& rs = db->partition(i)->reorganizer()->stats();
    const soreorg::SwitchStats& ss =
        db->partition(i)->reorganizer()->switch_stats();
    reorg_stats_.units += rs.units;
    reorg_stats_.records_moved += rs.records_moved;
    reorg_stats_.pages_freed += rs.pages_freed;
    reorg_stats_.swap_units += rs.swap_units;
    reorg_stats_.unit_retries += rs.unit_retries;
    reorg_stats_.side_entries_applied += rs.side_entries_applied;
    switch_stats_.switch_window_ns += ss.switch_window_ns;
    switch_stats_.step_asides += ss.step_asides;
  }
  reorg_delta_ = Counters::Read(db) - before;
  out_.reorg_s = passes_.total();
  return Status::OK();
}

/// Drop the closing flush, then time the reopen: restart recovery.
Status Round::CrashAndRecover() {
  inst_->Crash();
  if (traced_) {
    // P6's yardstick: a bare scan of the same log, before Open touches it.
    OpTrace t;
    for (size_t i = 0; i < shape_.partitions; ++i) {
      t.Begin(g_next_op_id.fetch_add(1), "LogManager::ReadAll");
      soreorg::LogManagerOptions lo;
      soreorg::LogManager log(inst_->env(),
                              inst_->name() + ".p" + std::to_string(i) +
                                  ".wal",
                              lo);
      Status s = log.Open();
      if (!s.ok()) return s;
      std::vector<soreorg::LogRecord> records;
      const uint64_t t0 = NowNs();
      {
        ScopedTrace scope(&t);
        s = log.ReadAll(&records);
      }
      scan_s_ += double(NowNs() - t0) / 1e9;
      t.End();
      agg_.AddUnit(t);
      if (!s.ok()) return s;
    }
  }
  inst_->io.Take();
  OpTrace t;
  if (traced_) t.Begin(g_next_op_id.fetch_add(1), "Database::Open");
  const uint64_t t0 = NowNs();
  Status s;
  {
    ScopedTrace scope(traced_ ? &t : nullptr);
    s = inst_->Open(shape_.pool_pages);
  }
  out_.recovery_s = double(NowNs() - t0) / 1e9;
  open_io_ = inst_->io.Take();
  ++out_.attempted;
  if (traced_) {
    t.End();
    agg_.AddUnit(t);
  }
  if (!s.ok()) return s;
  PartitionedDatabase* db = inst_->db();
  recovered_ = soreorg::RecoveryResult();
  for (size_t i = 0; i < db->partitions(); ++i) {
    const soreorg::RecoveryResult& rr = db->partition(i)->recovery_result();
    recovered_.records_redone += rr.records_redone;
    recovered_.wal_bytes_scanned += rr.wal_bytes_scanned;
    recovered_.segments_scanned += rr.segments_scanned;
  }
  if (cfg_.workload == "restart") {
    focus_delta_ = Counters::Read(db);  // the pool and disk are fresh
    focus_io_ = open_io_;
  }
  if (client_ == nullptr) NewClient();
  return Status::OK();
}

Status Round::Measure() {
  Status s = MeasureTree(inst_->db(), shadow_, &tree_);
  if (!s.ok()) return s;
  out_.space_amp = tree_.space_amp;
  if (tree_.records != shadow_.live_count()) {
    out_.correct = false;
    if (out_.error.empty()) out_.error = "record count differs from shadow";
  }
  return Status::OK();
}

void Round::Check(const char* when) {
  std::string why;
  if (!Verify(inst_->db(), shadow_, &why)) {
    out_.correct = false;
    if (out_.error.empty()) out_.error = std::string(when) + ": " + why;
  }
}

RoundOut Round::Run() {
  out_.traced = traced_;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    out_.error = "cannot create " + dir_ + ": " + ec.message();
    return out_;
  }
  inst_ = std::make_unique<Instance>(dir_, shape_, traced_);
  window_s_ =
      cfg_.seconds /
      double(cfg_.trace ? 2 * kMinTracedRounds : shape_.min_rounds);

  auto phase = [&](Status s) {
    if (!s.ok()) Fail(s);
    return s.ok();
  };
  const uint64_t t0 = NowNs();
  bool ok = phase(Setup());
  out_.setup_s = double(NowNs() - t0) / 1e9;
  if (ok && cfg_.workload == "restart") {
    ok = phase(CrashAndRecover());
    if (ok) Check("after recovery");
    if (ok) ok = phase(Window());
    if (ok) ok = phase(Reorganize());
    if (ok) ok = phase(Measure());
  } else if (ok) {
    ok = phase(Window());
    if (ok && cfg_.workload == "serve_hot") ok = phase(Reorganize());
    if (ok) ok = phase(Measure());
    if (ok) {
      focus_delta_ = window_delta_;
      focus_io_ = window_io_;
      ok = phase(CrashAndRecover());
    }
  }
  if (ok) Check("final");
  if (client_ != nullptr) {
    out_.ops = client_->ops();
    out_.window_ns = client_->window_ns();
    out_.hist = client_->hist();
    out_.attempted += client_->ops();
    out_.failed += client_->failed();
    if (client_->failed() != 0) {
      out_.notes.push_back(std::to_string(client_->failed()) +
                           " client ops failed, first " +
                           client_->first_failure());
    }
    if (client_->wrong() != 0) {
      out_.correct = false;
      if (out_.error.empty()) out_.error = "a read returned a wrong value";
    }
    if (ok && traced_) {
      LayerMetrics();
      out_.trace_hist = {agg_.db_self, agg_.queue_wait, agg_.btree_self[0],
                         agg_.btree_self[1], agg_.btree_self[2]};
    }
  }
  if (!ok) out_.correct = false;
  client_.reset();
  inst_.reset();
  std::filesystem::remove_all(dir_, ec);
  return out_;
}

void Round::LayerMetrics() {
  std::map<std::string, double>& m = out_.layer;
  const Counters& w = window_delta_;
  const double ops = double(client_->ops());
  const double writes = double(client_->writes());

  m["db.inline_frac"] = Ratio(double(agg_.inlined), double(agg_.executes));
  m["btree.optimistic_frac"] =
      Ratio(double(w.optimistic), double(w.optimistic + w.fallbacks));
  m["btree.fallbacks"] = double(w.fallbacks);
  m["btree.leaf_pages"] = double(tree_.leaf_pages);
  m["btree.height"] = double(tree_.height);
  m["btree.leaf_fill"] = tree_.leaf_fill;
  m["btree.disk_order_frac"] =
      Ratio(double(tree_.in_order), double(tree_.leaf_pages));

  m["txn.locks_per_op"] = Ratio(double(w.locks), ops);
  m["txn.waits"] = double(w.waits);
  m["txn.backoffs"] = double(w.backoffs);
  m["txn.instant_waits"] = double(window_waits_.instant);
  m["txn.deadlocks"] = double(w.deadlocks);
  m["txn.timeouts"] = double(w.timeouts);
  const std::pair<const char*, LockMode> kModes[] = {
      {"IS", LockMode::kIS}, {"IX", LockMode::kIX}, {"S", LockMode::kS},
      {"X", LockMode::kX},   {"RS", LockMode::kRS}};
  for (const auto& [name, mode] : kModes) {
    m[std::string("txn.client_wait_ms.") + name] =
        Ms(window_waits_.client_ns[static_cast<int>(mode)]);
  }
  m["txn.reorg_wait_ms"] = Ms(window_waits_.reorg_ns);

  const Counters& f = focus_delta_;
  m["storage.hit_rate"] = Ratio(double(f.hits), double(f.hits + f.misses));
  m["storage.page_reads"] = double(f.page_reads);
  m["storage.page_writes"] = double(f.page_writes);
  m["storage.read_ms"] = Ms(focus_io_.at(FileClass::kPages, IoOp::kRead).ns);
  m["storage.write_ms"] =
      Ms(focus_io_.at(FileClass::kPages, IoOp::kWrite).ns);
  const Histogram& reads = focus_io_.lat(FileClass::kPages, IoOp::kRead);
  m["storage.read_p99_us"] = Us(reads.Percentile(0.99));

  m["wal.bytes_per_write"] = Ratio(double(w.wal_bytes), writes);
  m["wal.syncs_per_write"] = Ratio(double(w.wal_syncs), writes);
  const Histogram& syncs = window_io_.lat(FileClass::kWal, IoOp::kSync);
  m["wal.sync_p50_us"] = Us(syncs.Percentile(0.5));
  m["wal.sync_p99_us"] = Us(syncs.Percentile(0.99));
  m["wal.write_ms"] = Ms(window_io_.at(FileClass::kWal, IoOp::kWrite).ns +
                         window_io_.at(FileClass::kWal, IoOp::kAppend).ns);
  m["wal.reorg_bytes_per_moved_record"] =
      Ratio(double(reorg_delta_.reorg_log_bytes),
            double(reorg_stats_.records_moved));

  m["reorg.pass1_s"] = passes_.s[0];
  m["reorg.pass2_s"] = passes_.s[1];
  m["reorg.pass3_s"] = passes_.s[2];
  m["reorg.units"] = double(reorg_stats_.units);
  m["reorg.records_moved"] = double(reorg_stats_.records_moved);
  m["reorg.pages_freed"] = double(reorg_stats_.pages_freed);
  m["reorg.swap_units"] = double(reorg_stats_.swap_units);
  m["reorg.retry_frac"] =
      Ratio(double(reorg_stats_.unit_retries), double(reorg_stats_.units));
  m["reorg.switch_window_ms"] = Ms(switch_stats_.switch_window_ns);
  m["reorg.step_asides"] = double(switch_stats_.step_asides);
  m["reorg.side_entries"] = double(reorg_stats_.side_entries_applied);
  const std::vector<Histogram>& during = client_->during();
  std::vector<const Histogram*> dp;
  for (const Histogram& h : during) dp.push_back(&h);
  const double dq = TailQuantile(dp.begin(), dp.end());
  static const char* const kDuring[kOpClasses] = {
      "reorg.client_read_p99_us", "reorg.client_write_p99_us",
      "reorg.client_scan_p99_us"};
  for (int c = 0; c < kOpClasses; ++c) {
    m[kDuring[c]] = dq > 0 ? Us(during[c].Percentile(dq)) : 0.0;
  }

  m["recovery.records_redone"] = double(recovered_.records_redone);
  m["recovery.wal_mb"] = double(recovered_.wal_bytes_scanned) / 1e6;
  m["recovery.segments"] = double(recovered_.segments_scanned);
  m["recovery.scan_s"] = scan_s_;
  m["recovery.redo_share"] =
      Ratio(out_.recovery_s - scan_s_, out_.recovery_s);
  m["recovery.page_read_ms"] =
      Ms(open_io_.at(FileClass::kPages, IoOp::kRead).ns);
  m["recovery.page_write_ms"] =
      Ms(open_io_.at(FileClass::kPages, IoOp::kWrite).ns);
  m["recovery.wal_read_ms"] = Ms(open_io_.at(FileClass::kWal, IoOp::kRead).ns);

  for (int l = 0; l < kLayers; ++l) {
    m[std::string(LayerName(static_cast<Layer>(l))) + ".self_ms"] =
        Ms(agg_.self_ns[l]);
  }
}

// ---------------------------------------------------------------------------
// Run-level aggregation

// Indices into RoundOut::trace_hist.
constexpr int kDbSelf = 0, kQueueWait = 1, kBtreeSelf = 2;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMiB() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// The end-to-end metrics over a set of rounds (all traced or all not):
/// each measured per round, then the median over the rounds, so that a
/// round hit by a burst of outside interference does not move the result.
/// rss_mb is the process's peak. The tail quantile is the highest that
/// every op class of every round supports.
std::map<std::string, double> EndToEnd(const std::vector<const RoundOut*>& rs,
                                       double* tail_q) {
  std::vector<const Histogram*> all;
  for (const RoundOut* r : rs) {
    for (const Histogram& h : r->hist) all.push_back(&h);
  }
  const double q = TailQuantile(all.begin(), all.end());
  if (tail_q != nullptr) *tail_q = q;

  static const char* const kClassNames[kOpClasses] = {"read", "write", "scan"};
  std::map<std::string, std::vector<double>> per_round;
  for (const RoundOut* r : rs) {
    per_round["setup_s"].push_back(r->setup_s);
    per_round["ops_per_s"].push_back(r->ops_per_s);
    for (int c = 0; c < kOpClasses && c < int(r->hist.size()); ++c) {
      const std::string base = kClassNames[c];
      per_round[base + "_p50_us"].push_back(Us(r->hist[c].Percentile(0.5)));
      per_round[base + "_p99_us"].push_back(Us(r->hist[c].Percentile(q)));
    }
    per_round["reorg_s"].push_back(r->reorg_s);
    per_round["space_amp"].push_back(r->space_amp);
    per_round["recovery_s"].push_back(r->recovery_s);
  }
  std::map<std::string, double> m;
  for (const MetricDef& d : EndToEndMetrics()) {
    m[d.name] = Median(per_round[d.name]);
  }
  m["rss_mb"] = PeakRssMiB();
  return m;
}

/// The workload's headline time, compared traced vs untraced for
/// trace.overhead_pct: mean op latency for serve_hot, the reorganization for
/// reorg_online, the recovery for restart.
double Headline(const std::string& w, const std::vector<const RoundOut*>& rs) {
  if (w == "serve_hot") {
    uint64_t ops = 0, ns = 0;
    for (const RoundOut* r : rs) {
      ops += r->ops;
      ns += r->window_ns;
    }
    return Ratio(double(ns), double(ops));
  }
  std::vector<double> v;
  for (const RoundOut* r : rs) {
    v.push_back(w == "reorg_online" ? r->reorg_s : r->recovery_s);
  }
  return Median(v);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"serve_hot", "reorg_online",
                                                  "restart"};
  return kNames;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},          {"rss_mb", "MiB"},
      {"ops_per_s", "ops/s"},    {"read_p50_us", "us"},
      {"read_p99_us", "us"},     {"write_p50_us", "us"},
      {"write_p99_us", "us"},    {"scan_p50_us", "us"},
      {"scan_p99_us", "us"},     {"reorg_s", "s"},
      {"space_amp", "ratio"},    {"recovery_s", "s"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"db.inline_frac", "ratio"},
      {"db.self_p50_us", "us"},
      {"db.queue_wait_p99_us", "us"},
      {"db.self_ms", "ms"},
      {"btree.get_self_p50_us", "us"},
      {"btree.get_self_p99_us", "us"},
      {"btree.write_self_p50_us", "us"},
      {"btree.scan_self_p50_us", "us"},
      {"btree.self_ms", "ms"},
      {"btree.optimistic_frac", "ratio"},
      {"btree.fallbacks", "count"},
      {"btree.leaf_pages", "count"},
      {"btree.height", "count"},
      {"btree.leaf_fill", "ratio"},
      {"btree.disk_order_frac", "ratio"},
      {"txn.locks_per_op", "count"},
      {"txn.waits", "count"},
      {"txn.backoffs", "count"},
      {"txn.instant_waits", "count"},
      {"txn.deadlocks", "count"},
      {"txn.timeouts", "count"},
      {"txn.client_wait_ms.IS", "ms"},
      {"txn.client_wait_ms.IX", "ms"},
      {"txn.client_wait_ms.S", "ms"},
      {"txn.client_wait_ms.X", "ms"},
      {"txn.client_wait_ms.RS", "ms"},
      {"txn.reorg_wait_ms", "ms"},
      {"txn.self_ms", "ms"},
      {"storage.hit_rate", "ratio"},
      {"storage.page_reads", "count"},
      {"storage.page_writes", "count"},
      {"storage.read_ms", "ms"},
      {"storage.write_ms", "ms"},
      {"storage.read_p99_us", "us"},
      {"storage.self_ms", "ms"},
      {"wal.bytes_per_write", "B"},
      {"wal.syncs_per_write", "ratio"},
      {"wal.sync_p50_us", "us"},
      {"wal.sync_p99_us", "us"},
      {"wal.write_ms", "ms"},
      {"wal.reorg_bytes_per_moved_record", "B"},
      {"wal.self_ms", "ms"},
      {"reorg.pass1_s", "s"},
      {"reorg.pass2_s", "s"},
      {"reorg.pass3_s", "s"},
      {"reorg.units", "count"},
      {"reorg.records_moved", "count"},
      {"reorg.pages_freed", "count"},
      {"reorg.swap_units", "count"},
      {"reorg.retry_frac", "ratio"},
      {"reorg.switch_window_ms", "ms"},
      {"reorg.step_asides", "count"},
      {"reorg.side_entries", "count"},
      {"reorg.client_read_p99_us", "us"},
      {"reorg.client_write_p99_us", "us"},
      {"reorg.client_scan_p99_us", "us"},
      {"reorg.self_ms", "ms"},
      {"recovery.records_redone", "count"},
      {"recovery.wal_mb", "MB"},
      {"recovery.segments", "count"},
      {"recovery.scan_s", "s"},
      {"recovery.redo_share", "ratio"},
      {"recovery.page_read_ms", "ms"},
      {"recovery.page_write_ms", "ms"},
      {"recovery.wal_read_ms", "ms"},
      {"recovery.self_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kDefs;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

RunResult RunWorkload(const RunConfig& cfg) {
  RunResult res;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    res.error = "unknown workload '" + cfg.workload + "'";
    return res;
  }
  const Shape shape = ShapeOf(cfg.workload);
  std::error_code ec;
  std::filesystem::create_directories(cfg.data_dir, ec);
  if (ec) {
    res.error = "cannot create " + cfg.data_dir + ": " + ec.message();
    return res;
  }

  // Untraced rounds only in the untraced run; the traced run alternates
  // untraced and traced rounds so that trace.overhead_pct compares the two
  // within one process.
  SpanLog log(size_t{1} << 16);
  std::unique_ptr<AgedTree> aged;
  if (shape.aging_pool_pages != 0) {
    aged = std::make_unique<AgedTree>(
        AgedTree{cfg.data_dir + "/aged", Shadow(shape.slots, cfg.seed), 0});
    Status s = BuildAgedTree(cfg, shape, aged.get());
    if (!s.ok()) {
      res.error = "aging: " + s.ToString();
      return res;
    }
  }
  std::vector<RoundOut> rounds;
  const int min_rounds = cfg.trace ? 2 * kMinTracedRounds : shape.min_rounds;
  const uint64_t start = NowNs();
  for (int i = 0; i < kMaxRounds; ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    const double elapsed = double(NowNs() - start) / 1e9;
    if (i >= min_rounds && elapsed >= cfg.seconds && !traced) break;
    Round round(cfg, shape, i, traced, &log, aged.get());
    rounds.push_back(round.Run());
    // reorg_online ages once per run; each round's set-up includes it.
    if (aged != nullptr) rounds.back().setup_s += aged->aging_s;
    const RoundOut& r = rounds.back();
    res.attempted += r.attempted;
    res.failed += r.failed;
    if (!r.correct) res.correct = false;
    for (const std::string& n : r.notes) {
      res.report.push_back("round " + std::to_string(i) + ": " + n);
    }
    const auto rm = EndToEnd({&r}, nullptr);
    std::string line = "round " + std::to_string(i) +
                       (traced ? " traced:" : " untraced:");
    for (const MetricDef& d : EndToEndMetrics()) {
      line += std::string(" ") + d.name + "=" + Num(rm.at(d.name));
    }
    res.report.push_back(line);
    if (!r.error.empty()) {
      res.report.push_back("round " + std::to_string(i) + ": " + r.error);
      break;
    }
  }
  if (aged != nullptr) std::filesystem::remove_all(aged->dir, ec);
  if (res.attempted == 0) {
    res.error = rounds.empty() || rounds[0].error.empty()
                    ? "no operation was attempted"
                    : rounds[0].error;
    return res;
  }

  std::vector<const RoundOut*> plain, traced;
  for (const RoundOut& r : rounds) (r.traced ? traced : plain).push_back(&r);
  double tail_q = 0;
  const auto e2e = EndToEnd(plain, &tail_q);

  if (!cfg.trace) {
    res.metrics = e2e;
  } else {
    const auto e2e_traced = EndToEnd(traced, nullptr);
    for (const MetricDef& d : EndToEndMetrics()) {
      res.report.push_back(std::string("e2e ") + d.name + " untraced=" +
                           Num(e2e.at(d.name)) + " traced=" +
                           Num(e2e_traced.at(d.name)) + " " + d.unit);
    }
    // Every declared metric is present, 0 when no traced round measured it.
    std::map<std::string, std::vector<double>> per_round;
    for (const MetricDef& d : PerLayerMetrics()) per_round[d.name];
    std::vector<Histogram> th(kBtreeSelf + kOpClasses);
    for (const RoundOut* r : traced) {
      for (const auto& [k, v] : r->layer) per_round[k].push_back(v);
      for (size_t i = 0; i < r->trace_hist.size(); ++i) {
        th[i].Merge(r->trace_hist[i]);
      }
    }
    for (const auto& [k, v] : per_round) res.metrics[k] = Median(v);
    res.metrics["db.self_p50_us"] = Us(th[kDbSelf].Percentile(0.5));
    const Histogram* qw[] = {&th[kQueueWait]};
    res.metrics["db.queue_wait_p99_us"] =
        Us(th[kQueueWait].Percentile(TailQuantile(qw, qw + 1)));
    const Histogram& gets = th[kBtreeSelf + kReadClass];
    const Histogram* gp[] = {&gets};
    res.metrics["btree.get_self_p50_us"] = Us(gets.Percentile(0.5));
    res.metrics["btree.get_self_p99_us"] =
        Us(gets.Percentile(TailQuantile(gp, gp + 1)));
    res.metrics["btree.write_self_p50_us"] =
        Us(th[kBtreeSelf + kWriteClass].Percentile(0.5));
    res.metrics["btree.scan_self_p50_us"] =
        Us(th[kBtreeSelf + kScanClass].Percentile(0.5));
    const double h_plain = Headline(cfg.workload, plain);
    const double h_traced = Headline(cfg.workload, traced);
    res.metrics["trace.overhead_pct"] =
        h_plain > 0 ? (h_traced / h_plain - 1.0) * 100.0 : 0.0;
  }

  uint64_t samples[kOpClasses] = {0, 0, 0};
  for (const RoundOut* r : plain) {
    for (int c = 0; c < kOpClasses && c < int(r->hist.size()); ++c) {
      samples[c] += r->hist[c].count();
    }
  }
  auto& st = res.stamp;
  st.emplace_back("workload", cfg.workload);
  st.emplace_back("seed", std::to_string(cfg.seed));
  st.emplace_back("git_rev", cfg.git_rev.empty() ? "unknown" : cfg.git_rev);
  st.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  st.emplace_back("data_fs", FsType(cfg.data_dir));
  st.emplace_back("partitions", std::to_string(shape.partitions));
  st.emplace_back("scan_batch", std::to_string(kScanBatch));
  st.emplace_back("pool_pages_per_partition", std::to_string(shape.pool_pages));
  if (aged != nullptr) {
    st.emplace_back("aging_pool_pages", std::to_string(shape.aging_pool_pages));
    st.emplace_back("aged_tree", "built once per run in " + Num(aged->aging_s) +
                                     " s; every round starts from a copy");
  }
  st.emplace_back("records_loaded",
                  std::to_string(shape.slots / shape.load_stride));
  st.emplace_back("load_fill", Num(shape.load_fill));
  st.emplace_back("value_bytes", std::to_string(kValueBytes));
  st.emplace_back("clients", "1 closed-loop");
  if (shape.reorg_client_period.count() != 0) {
    st.emplace_back("client_during_passes",
                    "paced, one op per " +
                        std::to_string(shape.reorg_client_period.count() /
                                       1000) +
                        " us");
  }
  st.emplace_back("flush_policy",
                  "every commit Syncs the WAL; pages are written by eviction "
                  "and checkpoint; Sync/SyncDir are counted, not sent to the "
                  "device");
  st.emplace_back("rounds", std::to_string(plain.size()) + " untraced, " +
                                std::to_string(traced.size()) + " traced");
  st.emplace_back("tail_quantile", Num(tail_q));
  st.emplace_back("samples_read_write_scan",
                  std::to_string(samples[0]) + "/" +
                      std::to_string(samples[1]) + "/" +
                      std::to_string(samples[2]));

  if (cfg.trace && !cfg.trace_dir.empty()) {
    std::filesystem::create_directories(cfg.trace_dir, ec);
    const std::string path = cfg.trace_dir + "/spans-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed) + ".tsv";
    std::string header;
    for (const auto& [k, v] : st) header += k + "=" + v + "; ";
    if (log.WriteTo(path, header)) st.emplace_back("spans_file", path);
    st.emplace_back("spans_dropped", std::to_string(log.dropped()));
  }
  return res;
}

}  // namespace perfbench
