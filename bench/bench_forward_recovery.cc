// E4 — §5.1's claim: Forward Recovery "will resume the work instead of
// aborting the work as a normal recovery method will do. This will make
// reorganization faster in case of system failure."
//
// Crash pass 1 at a sweep of WAL-write points. After each crash + restart,
// measure how much reorganization work survived (LK progress, leaves already
// compacted) and how much total work the full reorganization ends up doing,
// under the forward policy vs the conventional rollback policy.

#include "bench/bench_util.h"
#include "src/storage/fault_env.h"

using namespace soreorg;
using namespace soreorg::bench;

namespace {

constexpr uint64_t kN = 20000;

struct CrashResult {
  bool crashed = false;
  bool open_unit = false;          // an incomplete unit was in the log
  uint64_t lk = 0;                 // restart position after recovery
  uint64_t leaves_after_restart = 0;
  uint64_t moved_after_restart = 0;  // records moved to FINISH the pass
  double recovery_secs = 0;
  // Segment/redo forensics (ISSUE 10): redo scan volume and rate.
  uint64_t wal_bytes_scanned = 0;
  uint64_t segments_scanned = 0;
  bool tail_torn = false;
  int redo_threads = 1;
};

CrashResult RunOne(RecoveryPolicy policy, int crash_at, int redo_threads) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  DatabaseOptions options;
  options.recovery_policy = policy;
  options.log_buffer_bytes = 256;   // tiny group-commit cap: WAL writes happen
                                    // mid-unit, so crashes land inside units
  options.wal_segment_bytes = 64 * 1024;  // redo crosses segment boundaries
  options.redo_threads = redo_threads;
  std::unique_ptr<Database> db;
  Database::Open(&env, options, &db);
  std::vector<uint64_t> survivors;
  SparsifyByDeletion(db.get(), kN, 64, 0.95, 0.7, 10, 42, &survivors);
  db->Checkpoint();

  env.FailOpAfter(crash_at, options.name + ".wal", "");
  db->reorganizer()->RunLeafPass();
  env.Disarm();
  CrashResult r;
  r.crashed = env.fault_fired();
  if (!r.crashed) return r;

  db.reset();
  env.Crash();
  Timer t;
  Status s = Database::Open(&base, options, &db);  // timed without decorator
  r.recovery_secs = t.Seconds();
  if (!s.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  Check(db.get(), "post-recovery");
  r.wal_bytes_scanned = db->recovery_result().wal_bytes_scanned;
  r.segments_scanned = db->recovery_result().segments_scanned;
  r.tail_torn = db->recovery_result().tail_segment_torn;
  r.redo_threads = db->recovery_result().redo_threads_used;
  r.open_unit = db->recovery_result().reorg.has_open_unit;
  r.lk = DecodeU64Key(db->reorg_table()->largest_finished_key());
  r.leaves_after_restart = Shape(db.get()).leaf_pages;

  // Finish the pass; count the remaining work.
  db->reorganizer()->RunLeafPass();
  Check(db.get(), "post-resume");
  r.moved_after_restart = db->reorganizer()->stats().records_moved;
  uint64_t n = 0;
  db->Scan(Slice(), Slice(), [&n](const Slice&, const Slice&) {
    ++n;
    return true;
  });
  if (n != survivors.size()) {
    std::fprintf(stderr, "RECORD LOSS: %llu != %zu\n",
                 (unsigned long long)n, survivors.size());
    std::abort();
  }
  return r;
}

// P6 — redo throughput on the segmented WAL: checkpointed baseline, a big
// post-checkpoint update burst, crash, recover. Reports MB of WAL replayed
// per second of restart and the page reads recovery made, for log-order
// redo, the default page-by-page redo and 4 page-by-page lanes, plus a
// machine-normalized ratio of log-order redo against a raw ReadAll scan of
// the same log measured in the same process (machine speed divides out of
// the ratio, so CI can gate it).
struct RedoBenchResult {
  double recovery_secs = 0;
  double scan_secs = 0;
  uint64_t redo_bytes = 0;       // bytes the recovery scan covered
  uint64_t scan_bytes = 0;       // bytes the raw scan covered
  uint64_t records_redone = 0;
  uint64_t segments_scanned = 0;
  uint64_t pages_read = 0;  // page-file reads across Database::Open
  int threads_used = 1;

  double redo_mb_per_s() const {
    return recovery_secs > 0
               ? redo_bytes / recovery_secs / (1024.0 * 1024.0)
               : 0;
  }
  double scan_mb_per_s() const {
    return scan_secs > 0 ? scan_bytes / scan_secs / (1024.0 * 1024.0) : 0;
  }
};

RedoBenchResult MeasureRedo(int updates, int redo_threads) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  DatabaseOptions options;
  options.wal_segment_bytes = 64 * 1024;
  options.redo_threads = redo_threads;
  std::unique_ptr<Database> db;
  Database::Open(&env, options, &db);
  std::vector<uint64_t> survivors;
  SparsifyByDeletion(db.get(), 6000, 64, 0.95, 0.3, 10, 11, &survivors);
  db->Checkpoint();
  const std::string value(64, 'u');
  for (int i = 0; i < updates; ++i) {
    uint64_t key = survivors[(static_cast<uint64_t>(i) * 131) %
                             survivors.size()];
    db->Update(EncodeU64Key(key), value);
  }
  // Take the env down so the close cannot flush the dirty pages — all those
  // updates become redo work.
  env.FailOpAfter(1, "", "");
  for (int i = 0; i < 1000 && db->Update(EncodeU64Key(survivors[0]), value).ok();
       ++i) {
  }
  db.reset();
  env.Crash();

  // Both timed halves of the gated ratio run on the bare MemEnv, not
  // through the fault decorator.
  RedoBenchResult r;
  {
    Timer t;
    LogManagerOptions lopts;
    lopts.segment_bytes = options.wal_segment_bytes;
    LogManager scan(&base, options.name + ".wal", lopts);
    std::vector<LogRecord> recs;
    LogReadStats st;
    if (scan.Open().ok()) scan.ReadAll(&recs, 0, &st);
    r.scan_secs = t.Seconds();
    r.scan_bytes = st.valid_bytes;
  }
  Timer t;
  Status s = Database::Open(&base, options, &db);
  r.recovery_secs = t.Seconds();
  if (!s.ok()) {
    std::fprintf(stderr, "P6 recovery failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  Check(db.get(), "P6 post-recovery");
  r.redo_bytes = db->recovery_result().wal_bytes_scanned;
  r.records_redone = db->recovery_result().records_redone;
  r.segments_scanned = db->recovery_result().segments_scanned;
  r.pages_read = db->disk_manager()->pages_read();
  r.threads_used = db->recovery_result().redo_threads_used;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Header("E4: Forward Recovery vs rollback (§5.1)",
         "\"The reorganization unit will be able to finish the work instead "
         "of rolling back and wasting the work that has already been done\"");
  JsonReporter json("bench_forward_recovery", argc, argv);
  const bool quick = HasFlag(argc, argv, "--quick");

  std::vector<int> crash_points =
      quick ? std::vector<int>{41, 81}
            : std::vector<int>{40, 41, 42, 43, 80, 81, 82, 83};

  std::printf("%-10s %-10s %10s %10s %16s %18s %12s %10s %8s\n", "crash@",
              "policy", "unit open", "LK after", "leaves @restart",
              "moved to finish", "recov s", "redo MB/s", "segs");
  double redo_bytes_total = 0, redo_secs_total = 0;
  for (int crash_at : crash_points) {
    for (RecoveryPolicy policy :
         {RecoveryPolicy::kForward, RecoveryPolicy::kRollback}) {
      CrashResult r = RunOne(policy, crash_at, /*redo_threads=*/1);
      if (!r.crashed) {
        std::printf("wal#%-5d (pass finished before this point)\n", crash_at);
        break;
      }
      const double mb_per_s =
          r.recovery_secs > 0
              ? r.wal_bytes_scanned / r.recovery_secs / (1024.0 * 1024.0)
              : 0;
      std::printf(
          "wal#%-5d %-10s %10s %10llu %16llu %18llu %12.4f %10.1f %8llu\n",
          crash_at,
          policy == RecoveryPolicy::kForward ? "forward" : "rollback",
          r.open_unit ? "yes" : "no", (unsigned long long)r.lk,
          (unsigned long long)r.leaves_after_restart,
          (unsigned long long)r.moved_after_restart, r.recovery_secs,
          mb_per_s, (unsigned long long)r.segments_scanned);
      std::string prefix =
          "e4/wal" + std::to_string(crash_at) + "/" +
          (policy == RecoveryPolicy::kForward ? "forward" : "rollback");
      json.Add(prefix + "/lk", static_cast<double>(r.lk), "key");
      json.Add(prefix + "/moved_to_finish",
               static_cast<double>(r.moved_after_restart), "records");
      json.Add(prefix + "/recovery_s", r.recovery_secs, "s");
      json.Add(prefix + "/segments_scanned",
               static_cast<double>(r.segments_scanned), "segments");
      if (policy == RecoveryPolicy::kForward) {
        redo_bytes_total += static_cast<double>(r.wal_bytes_scanned);
        redo_secs_total += r.recovery_secs;
      }
    }
  }
  // The CI-gated rate: MB of WAL replayed per second of restart, summed
  // over the forward-policy runs (serial redo — the oracle path every
  // configuration exercises).
  const double redo_rate = redo_secs_total > 0
                               ? redo_bytes_total / redo_secs_total /
                                     (1024.0 * 1024.0)
                               : 0;
  json.Add("e4/redo_mb_per_s", redo_rate, "MB/s", 1);
  std::printf("\naggregate redo rate: %.1f MB/s over %.4f s of recovery\n",
              redo_rate, redo_secs_total);

  // Redo-lane parity check at one crash point: the same recovery on 4
  // page-by-page lanes. A correctness and overhead probe, not a speedup
  // claim.
  {
    CrashResult r = RunOne(RecoveryPolicy::kForward, crash_points.front(), 4);
    if (r.crashed) {
      const double mb_per_s =
          r.recovery_secs > 0
              ? r.wal_bytes_scanned / r.recovery_secs / (1024.0 * 1024.0)
              : 0;
      std::printf("parallel redo (threads=%d): %.4f s, %.1f MB/s\n",
                  r.redo_threads, r.recovery_secs, mb_per_s);
      json.Add("e4/parallel/recovery_s", r.recovery_secs, "s",
               r.redo_threads);
      json.Add("e4/parallel/redo_mb_per_s", mb_per_s, "MB/s",
               r.redo_threads);
    }
  }
  // P6 — redo throughput and the CI-gated normalized ratio.
  {
    const int updates = quick ? 3000 : 12000;
    RedoBenchResult serial = MeasureRedo(updates, /*redo_threads=*/1);
    RedoBenchResult page_by_page =
        MeasureRedo(updates, DatabaseOptions().redo_threads);
    RedoBenchResult par = MeasureRedo(updates, /*redo_threads=*/4);
    const double redo_vs_scan =
        serial.scan_mb_per_s() > 0
            ? serial.redo_mb_per_s() / serial.scan_mb_per_s()
            : 0;
    std::printf("\nP6: redo throughput (%d post-checkpoint updates, 64 KiB "
                "segments):\n",
                updates);
    std::printf("%-24s %10.1f MB/s  (%llu records, %llu segments, %.4f s, "
                "%llu pages read)\n",
                "log-order redo (oracle)", serial.redo_mb_per_s(),
                (unsigned long long)serial.records_redone,
                (unsigned long long)serial.segments_scanned,
                serial.recovery_secs, (unsigned long long)serial.pages_read);
    std::printf("%-24s %10.1f MB/s  (default, %.4f s, %llu pages read)\n",
                "page-by-page redo", page_by_page.redo_mb_per_s(),
                page_by_page.recovery_secs,
                (unsigned long long)page_by_page.pages_read);
    std::printf("%-24s %10.1f MB/s  (lanes=%d, %.4f s, %llu pages read)\n",
                "page-by-page, 4 lanes", par.redo_mb_per_s(), par.threads_used,
                par.recovery_secs, (unsigned long long)par.pages_read);
    std::printf("%-24s %10.1f MB/s\n", "raw log scan",
                serial.scan_mb_per_s());
    std::printf("%-24s %10.3f   (gated: recovery work per byte vs a bare "
                "scan)\n",
                "redo/scan ratio", redo_vs_scan);
    json.Add("p6/redo_mb_per_s", serial.redo_mb_per_s(), "MB/s", 1);
    json.Add("p6/pages_read", static_cast<double>(serial.pages_read), "pages",
             1);
    json.Add("p6/default_redo_mb_per_s", page_by_page.redo_mb_per_s(), "MB/s",
             page_by_page.threads_used);
    json.Add("p6/default_pages_read",
             static_cast<double>(page_by_page.pages_read), "pages",
             page_by_page.threads_used);
    json.Add("p6/parallel_redo_mb_per_s", par.redo_mb_per_s(), "MB/s",
             par.threads_used);
    json.Add("p6/scan_mb_per_s", serial.scan_mb_per_s(), "MB/s", 1);
    json.Add("p6/redo_vs_scan", redo_vs_scan, "ratio", 1);
    json.Add("p6/records_redone", static_cast<double>(serial.records_redone),
             "records", 1);
    json.Add("p6/segments_scanned",
             static_cast<double>(serial.segments_scanned), "segments", 1);
  }

  std::printf("\nexpected shape: with forward recovery the interrupted "
              "unit's work is kept\n(LK is ahead, fewer leaves remain, less "
              "moving left to finish); rollback\ndiscards the open unit's "
              "moves and re-does them.\n");
  return json.Write() ? 0 : 1;
}
