// E3 — §5's claim: with careful writing enforced by the buffer manager,
// MOVE records can carry "only the keys of records" instead of the record
// contents, shrinking the reorganization log; swaps can never avoid logging
// at least one full page image.
//
// Plus P2 — WAL group commit: N threads doing AppendAndFlush should share
// flush leaders' fsyncs, so syncs-per-commit drops well below 1 sync each.

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

using namespace soreorg;
using namespace soreorg::bench;

namespace {

struct LogBreakdown {
  uint64_t move_bytes = 0;
  uint64_t modify_bytes = 0;
  uint64_t unit_bytes = 0;  // BEGIN/END
  uint64_t total_bytes = 0;
  uint64_t records_moved = 0;
};

LogBreakdown MeasurePass1(bool careful, uint64_t n, double del,
                          size_t value_size) {
  MemEnv env;
  DatabaseOptions options;
  options.reorg.careful_writing = careful;
  std::unique_ptr<Database> db;
  Database::Open(&env, options, &db);
  std::vector<uint64_t> survivors;
  SparsifyByDeletion(db.get(), n, value_size, 0.95, del, 10, 5, &survivors);
  db->log_manager()->ResetStats();
  db->reorganizer()->RunLeafPass();
  Check(db.get(), "E3");
  LogBreakdown b;
  LogManager* log = db->log_manager();
  b.move_bytes = log->bytes_for_type(LogType::kReorgMove);
  b.modify_bytes = log->bytes_for_type(LogType::kReorgModify);
  b.unit_bytes = log->bytes_for_type(LogType::kReorgBegin) +
                 log->bytes_for_type(LogType::kReorgEnd);
  b.total_bytes = log->bytes_appended();
  b.records_moved = db->reorganizer()->stats().records_moved;
  return b;
}

// Group-commit probe: `threads` committers each AppendAndFlush
// `commits_per_thread` records against one LogManager. Returns commits/sec
// and the observed fsyncs-per-commit (MemEnv sync counter / total commits).
struct GroupCommitResult {
  double commits_per_sec = 0;
  double syncs_per_commit = 0;
  uint64_t sync_batches = 0;
};

GroupCommitResult MeasureGroupCommit(int threads, int commits_per_thread) {
  MemEnv env;
  LogManager log(&env, "wal");
  if (!log.Open().ok()) return {};
  std::vector<std::thread> workers;
  Timer t;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&log, w, commits_per_thread] {
      for (int i = 0; i < commits_per_thread; ++i) {
        LogRecord rec;
        rec.type = LogType::kCommit;
        rec.txn_id = static_cast<TxnId>(100 + w);
        rec.key = std::string("k").append(std::to_string(i));
        log.AppendAndFlush(&rec);
      }
    });
  }
  for (auto& w : workers) w.join();
  double secs = t.Seconds();
  GroupCommitResult r;
  double commits = static_cast<double>(threads) * commits_per_thread;
  r.commits_per_sec = commits / secs;
  r.syncs_per_commit = static_cast<double>(env.sync_count()) / commits;
  r.sync_batches = log.sync_batches();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter json("bench_log_volume", argc, argv);
  const bool quick = bench::HasFlag(argc, argv, "--quick");

  Header("E3: reorganization log volume (§5, careful writing)",
         "\"Instead of record content, we could use only the keys of records "
         "if careful writing by the buffer manager is enforced\" — and swaps "
         "must log at least one full page image");

  const uint64_t kN = quick ? 4000 : 20000;
  std::printf("pass-1 log bytes, %llu records, 70%% deleted, by value "
              "size:\n",
              (unsigned long long)kN);
  std::printf("%-10s %-16s %12s %12s %12s %14s\n", "value", "mode", "MOVE B",
              "MODIFY B", "total B", "B/record moved");
  for (size_t vs : {16, 64, 256}) {
    for (bool careful : {true, false}) {
      LogBreakdown b = MeasurePass1(careful, kN, 0.7, vs);
      double bytes_per_move =
          b.records_moved
              ? static_cast<double>(b.move_bytes) / b.records_moved
              : 0.0;
      std::printf("%-10zu %-16s %12llu %12llu %12llu %14.1f\n", vs,
                  careful ? "keys-only" : "full records",
                  (unsigned long long)b.move_bytes,
                  (unsigned long long)b.modify_bytes,
                  (unsigned long long)b.total_bytes, bytes_per_move);
      if (vs == 64) {
        json.Add(careful ? "move_bytes_per_record_keys_only_v64"
                         : "move_bytes_per_record_full_v64",
                 bytes_per_move, "bytes/record", 1);
      }
    }
  }

  // Swap vs move logging: run pass 2 under the no-new-place policy (all
  // swaps) vs the heuristic (mostly moves) and compare bytes per unit.
  std::printf("\npass-2 log bytes per unit (%llu records, 70%% deleted):\n",
              (unsigned long long)kN);
  std::printf("%-22s %8s %8s %16s\n", "policy", "swaps", "moves",
              "MOVE bytes/unit");
  for (auto policy : {FreeSpacePolicy::kPaperHeuristic,
                      FreeSpacePolicy::kNone}) {
    MemEnv env;
    DatabaseOptions options;
    options.reorg.compactor.free_space_policy = policy;
    std::unique_ptr<Database> db;
    Database::Open(&env, options, &db);
    std::vector<uint64_t> survivors;
    AgingOptions aging;
    aging.n = kN;
    aging.churn_inserts = quick ? 600 : 3000;
    aging.seed = 5;
    AgeDatabase(db.get(), aging, &survivors);
    db->reorganizer()->RunLeafPass();
    uint64_t p1_units = db->reorganizer()->stats().units;
    db->log_manager()->ResetStats();
    db->reorganizer()->RunSwapPass();
    Check(db.get(), "E3 pass 2");
    const ReorgStats& rs = db->reorganizer()->stats();
    uint64_t p2_units = rs.units - p1_units;
    std::printf("%-22s %8llu %8llu %16.0f\n",
                policy == FreeSpacePolicy::kNone ? "no new-place (swaps)"
                                                 : "paper heuristic",
                (unsigned long long)rs.swap_units,
                (unsigned long long)(p2_units - rs.swap_units),
                p2_units ? static_cast<double>(db->log_manager()
                                                   ->bytes_for_type(
                                                       LogType::kReorgMove)) /
                               p2_units
                         : 0.0);
  }
  std::printf("\nexpected shape: keys-only MOVE records are several times "
              "smaller than\nfull-record ones (ratio grows with value "
              "size); swap units log a whole\npage image each, dwarfing "
              "keys-only moves.\n");

  // P2 — group commit: concurrent committers share the flush leader's fsync.
  const char* threads_flag = bench::FlagValue(argc, argv, "--threads");
  const int kThreads = threads_flag ? std::atoi(threads_flag) : 4;
  const int kCommits = quick ? 200 : 2000;
  std::printf("\nWAL group commit, AppendAndFlush per-commit durability:\n");
  std::printf("%-10s %10s %14s %16s %14s\n", "threads", "commits",
              "commits/sec", "syncs/commit", "sync batches");
  for (int threads : {1, kThreads}) {
    GroupCommitResult r = MeasureGroupCommit(threads, kCommits);
    std::printf("%-10d %10d %14.0f %16.3f %14llu\n", threads,
                threads * kCommits, r.commits_per_sec, r.syncs_per_commit,
                (unsigned long long)r.sync_batches);
    json.Add("group_commit_commits_per_sec_t" + std::to_string(threads),
             r.commits_per_sec, "commits/sec", threads);
    json.Add("group_commit_syncs_per_commit_t" + std::to_string(threads),
             r.syncs_per_commit, "syncs/commit", threads);
  }
  std::printf("\nexpected shape: at 1 thread every commit pays its own "
              "fsync\n(syncs/commit == 1); with concurrent committers the "
              "leader batches\nfollowers when fsync is slow enough for a "
              "queue to form. MemEnv's sync\nis a memcpy, so on one core "
              "leaders drain faster than followers arrive\nand "
              "syncs/commit stays near 1 — see the deterministic probe "
              "below for\nthe batching itself.\n");

  // Deterministic batching probe: buffer N records with Append (no flush),
  // then have N threads demand durability concurrently. One leader steals
  // the whole buffer — N commits, 1 fsync.
  {
    MemEnv env;
    LogManager log(&env, "wal");
    log.Open();
    const int kBuffered = 8;
    std::vector<Lsn> lsns;
    for (int i = 0; i < kBuffered; ++i) {
      LogRecord rec;
      rec.type = LogType::kCommit;
      rec.txn_id = static_cast<TxnId>(100 + i);
      log.Append(&rec);
      lsns.push_back(rec.lsn);
    }
    uint64_t syncs_before = env.sync_count();
    std::vector<std::thread> flushers;
    for (Lsn lsn : lsns) {
      flushers.emplace_back([&log, lsn] { log.FlushTo(lsn); });
    }
    for (auto& f : flushers) f.join();
    uint64_t syncs = env.sync_count() - syncs_before;
    std::printf("\n%d buffered commits flushed by %d concurrent threads: "
                "%llu fsync(s)\n",
                kBuffered, kBuffered, (unsigned long long)syncs);
    json.Add("batched_flush_fsyncs_for_8_commits",
             static_cast<double>(syncs), "fsyncs", kBuffered);
  }
  // Segmented WAL (ISSUE 10): rotation/recycle/truncation counters for a
  // checkpointed load + reorganize stream on 64 KiB segments. The shape to
  // expect: many segments created while loading, most of them truncated at
  // the checkpoints, later rotations served from the recycle pool.
  {
    MemEnv env;
    DatabaseOptions options;
    options.wal_segment_bytes = 64 * 1024;
    std::unique_ptr<Database> db;
    Database::Open(&env, options, &db);
    std::vector<uint64_t> survivors;
    SparsifyByDeletion(db.get(), quick ? 3000 : 12000, 64, 0.95, 0.6, 10, 7,
                       &survivors);
    db->Checkpoint();
    db->Reorganize();
    Check(db.get(), "segment counters");
    db->Checkpoint();
    LogManager* log = db->log_manager();
    std::printf("\nsegmented WAL (64 KiB segments), load + checkpoint + "
                "reorganize + checkpoint:\n");
    std::printf("%-22s %10llu\n%-22s %10llu\n%-22s %10llu\n%-22s %10zu\n"
                "%-22s %10zu\n",
                "segments created",
                (unsigned long long)log->segments_created(),
                "segments recycled",
                (unsigned long long)log->segments_recycled(),
                "segments truncated",
                (unsigned long long)log->segments_truncated(),
                "segments live", log->segment_count(), "recycle pool",
                log->recycle_pool_size());
    json.Add("wal_segments_created",
             static_cast<double>(log->segments_created()), "segments");
    json.Add("wal_segments_recycled",
             static_cast<double>(log->segments_recycled()), "segments");
    json.Add("wal_segments_truncated",
             static_cast<double>(log->segments_truncated()), "segments");
    json.Add("wal_segments_live", static_cast<double>(log->segment_count()),
             "segments");
  }
  return json.Write() ? 0 : 1;
}
