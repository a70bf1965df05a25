#include "src/sim/torture.h"

#include <utility>

#include "src/sim/workload.h"

namespace soreorg {

namespace {

constexpr size_t kMaxFailureDetails = 8;

}  // namespace

TortureHarness::TortureHarness(TortureOptions options)
    : options_(std::move(options)) {}

Status TortureHarness::BuildWorkload(FaultInjectionEnv* env,
                                     std::unique_ptr<Database>* db) {
  Status s = Database::Open(env, options_.db, db);
  if (!s.ok()) return s;
  std::vector<uint64_t> survivors;
  s = SparsifyByDeletion((*db).get(), options_.records, options_.value_size,
                         options_.dense_fill, options_.delete_fraction,
                         options_.key_stride, options_.seed, &survivors);
  if (!s.ok()) return s;
  // Checkpoint so every iteration crashes against the same durable baseline;
  // the reorganization is then the only work between checkpoint and crash.
  return (*db)->Checkpoint();
}

void TortureHarness::ArmStepAside(Database* db) {
  if (options_.force_step_asides <= 0 || model_.empty()) return;
  SwitcherOptions* sw = &db->reorganizer()->options()->switcher;
  sw->force_step_asides = options_.force_step_asides;
  sw->step_aside_wait_ms = 10;  // the callback records immediately
  // Mid-window transaction: delete + re-insert one model key with its model
  // value. Commit restores the exact model state; a crash mid-transaction
  // rolls the loser back to it — so verification holds at every crash
  // point. The statuses are deliberately dropped: once the armed fault
  // fires every operation (including Abort) fails with IOError.
  const auto& kv = model_[model_.size() / 2];
  sw->on_step_aside = [db, kv]() {
    Transaction* txn = db->Begin();
    if (txn == nullptr) return;
    Status s = db->tree()->Delete(txn, kv.first);
    if (s.ok()) s = db->tree()->Insert(txn, kv.first, kv.second);
    if (s.ok()) {
      db->Commit(txn);
    } else {
      db->Abort(txn);
    }
  };
}

Status TortureHarness::SweptWork(Database* db) {
  if (options_.checkpoint_churn_txns > 0) {
    // Each churn op is one transaction inserting and deleting the same
    // non-model key: committed or rolled back, the key is absent, so the
    // model holds at every crash point while the WAL still grows.
    for (int k = 0; k < options_.checkpoint_churn_txns; ++k) {
      Transaction* txn = db->Begin();
      if (txn == nullptr) break;
      const std::string key = "~churn" + std::to_string(k);
      const std::string val(options_.churn_value_bytes, 'c');
      Status s = db->tree()->Insert(txn, key, val);
      if (s.ok()) s = db->tree()->Delete(txn, key);
      if (s.ok()) {
        s = db->Commit(txn);
      } else {
        db->Abort(txn);  // best effort; the env may already be down
      }
      if (!s.ok()) return s;
    }
    Status s = db->Checkpoint();
    if (!s.ok()) return s;
  }
  Status s = db->Reorganize();
  if (!s.ok()) return s;
  if (options_.checkpoint_churn_txns > 0) s = db->Checkpoint();
  return s;
}

Status TortureHarness::VerifyAgainstModel(Database* db, const char* where) {
  std::vector<std::pair<std::string, std::string>> got;
  Status s = db->Scan(Slice(), Slice(),
                      [&got](const Slice& k, const Slice& v) {
                        got.emplace_back(k.ToString(), v.ToString());
                        return true;
                      });
  if (!s.ok()) {
    // Read error (e.g. detected torn page): propagate, tagged with the
    // verification stage so sweep failures name where the read blew up.
    if (s.IsCorruption()) return s;  // keep the detected-tear contract
    return Status::InvalidArgument(std::string(where) +
                                   ": scan error: " + s.ToString());
  }
  if (got != model_) {
    return Status::InvalidArgument(
        std::string(where) + ": scan diverged from model (" +
        std::to_string(got.size()) + " records vs " +
        std::to_string(model_.size()) + " expected)");
  }
  s = db->tree()->CheckConsistency();
  if (!s.ok()) {
    return Status::InvalidArgument(std::string(where) +
                                   ": invariant check failed: " +
                                   s.ToString());
  }
  return Status::OK();
}

void TortureHarness::RecordFailure(TortureStats* stats, int point,
                                   const std::string& what) {
  ++stats->failures;
  if (stats->failure_details.size() < kMaxFailureDetails) {
    stats->failure_details.push_back("crash point " + std::to_string(point) +
                                     ": " + what);
  }
}

Status TortureHarness::Run(TortureStats* stats) {
  *stats = TortureStats();

  const char* suffix = "";
  const char* op = "";
  switch (options_.mode) {
    case TortureMode::kCleanCrash:
      break;  // every write/append/sync on every file is a crash point
    case TortureMode::kTornPageWrite:
      suffix = ".pages";
      op = "write";
      break;
    case TortureMode::kTornWalWrite:
      suffix = ".wal";
      op = "write";
      break;
  }

  // --- dry run: capture the model and count the I/O points -----------------
  {
    MemEnv base;
    FaultInjectionEnv env(&base);
    std::unique_ptr<Database> db;
    Status s = BuildWorkload(&env, &db);
    if (!s.ok()) return s;
    model_.clear();
    s = db->Scan(Slice(), Slice(),
                 [this](const Slice& k, const Slice& v) {
                   model_.emplace_back(k.ToString(), v.ToString());
                   return true;
                 });
    if (!s.ok()) return s;
    ArmStepAside(db.get());
    env.ObserveOnly(suffix, op);
    s = SweptWork(db.get());
    if (!s.ok()) return s;
    stats->points_total = static_cast<int>(env.ops_observed());
    env.Disarm();
    s = VerifyAgainstModel(db.get(), "dry run");
    if (!s.ok()) return s;
  }

  // --- sweep: crash at point i, recover, verify ----------------------------
  for (int i = 1; i <= stats->points_total; i += options_.stride) {
    if (options_.max_points > 0 &&
        stats->points_tested >= options_.max_points) {
      break;
    }
    ++stats->points_tested;

    MemEnv base;
    FaultInjectionEnv env(&base);
    std::unique_ptr<Database> db;
    Status s = BuildWorkload(&env, &db);
    if (!s.ok()) return s;
    ArmStepAside(db.get());

    switch (options_.mode) {
      case TortureMode::kCleanCrash:
        env.FailOpAfter(i, "", "");
        break;
      case TortureMode::kTornPageWrite:
        env.TearWriteAfter(i, ".pages", options_.tear_keep_bytes);
        break;
      case TortureMode::kTornWalWrite:
        env.TearWriteAfter(i, ".wal", options_.tear_keep_bytes);
        break;
    }

    SweptWork(db.get());  // fails once the fault fires; the status is the crash
    if (env.fault_fired()) ++stats->faults_fired;
    db.reset();   // destructor flushes fail while the env is down
    env.Crash();  // un-synced state is gone; torn prefixes survive

    std::unique_ptr<Database> recovered;
    s = Database::Open(&env, options_.db, &recovered);
    if (!s.ok()) {
      if (options_.mode == TortureMode::kTornPageWrite && s.IsCorruption()) {
        // The checksum caught the torn image and recovery refused it —
        // detection is the contract for a tear that redo must replay.
        ++stats->detected_corruptions;
      } else {
        RecordFailure(stats, i, "reopen failed: " + s.ToString());
      }
      continue;
    }

    s = VerifyAgainstModel(recovered.get(), "after recovery");
    if (s.ok() && options_.complete_after) {
      ArmStepAside(recovered.get());
      if (recovered->pass3_pending()) {
        s = recovered->ResumeInternalPass();
        if (!s.ok() && !s.IsCorruption()) {
          s = Status::InvalidArgument("resume pass 3: " + s.ToString());
        }
      }
      if (s.ok()) {
        s = recovered->Reorganize();
        if (!s.ok() && !s.IsCorruption()) {
          s = Status::InvalidArgument("complete reorg: " + s.ToString());
        }
      }
      if (s.ok()) s = VerifyAgainstModel(recovered.get(), "after completion");
    }
    if (!s.ok()) {
      if (options_.mode == TortureMode::kTornPageWrite && s.IsCorruption()) {
        ++stats->detected_corruptions;  // tear detected at first touch
      } else {
        RecordFailure(stats, i, s.ToString());
      }
      continue;
    }
    ++stats->recoveries_ok;
  }

  if (stats->failures > 0) {
    return Status::Corruption(
        std::to_string(stats->failures) + " undetected failure(s); first: " +
        (stats->failure_details.empty() ? "?" : stats->failure_details[0]));
  }
  return Status::OK();
}

}  // namespace soreorg
