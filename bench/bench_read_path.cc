// Read path — hot point reads with the optimistic (latch-free) path on vs
// off.
//
// A fully resident tree is probed with random point Gets. With
// optimistic_reads on, each hit is served from a version-validated private
// image without touching the lock manager, the shard mutex, or the pin
// count; with it off, every Get runs the Table-1 protocol (tree IS lock, S
// lock-couple to the leaf, pin/unpin). The ratio between the two is the
// whole point of the optimistic path: it must be comfortably above 1 even
// single-threaded, because the locked path's cost is lock-table and shard
// bookkeeping, not contention.
//
// Emits BENCH_read_path.json: hot_hit/optimistic, hot_hit/slock (Mops/s)
// and hot_hit/speedup (ratio). CI gates on the ratio, not the absolute
// numbers, so machine speed drops out.

#include <thread>

#include "bench/bench_util.h"

using namespace soreorg;
using namespace soreorg::bench;

namespace {

uint64_t g_n = 20000;       // records; tree stays far below the pool size
uint64_t g_ops = 400000;    // point Gets per measured run
int g_threads = 1;

struct RunResult {
  double mops = 0;
  uint64_t optimistic_gets = 0;
  uint64_t fallbacks = 0;
};

double RunOnce(Database* db, int threads, uint64_t ops) {
  std::vector<std::thread> workers;
  Timer t;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([db, w, ops, threads]() {
      Random rng(1234 + static_cast<uint64_t>(w) * 7919);
      uint64_t per = ops / static_cast<uint64_t>(threads);
      std::string value;
      for (uint64_t i = 0; i < per; ++i) {
        uint64_t slot = rng.Uniform(g_n);
        Status s = db->Get(EncodeU64Key(slot * 10), &value);
        if (!s.ok() && !s.IsNotFound()) {
          std::fprintf(stderr, "get failed: %s\n", s.ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return static_cast<double>(ops) / t.Seconds() / 1e6;
}

RunResult Measure(bool optimistic) {
  MemEnv env;
  DatabaseOptions options;
  options.buffer_pool_pages = 4096;  // whole working set resident
  options.tree.optimistic_reads = optimistic;
  std::unique_ptr<Database> db;
  Status s = Database::Open(&env, options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  s = LoadSparseTree(db.get(), g_n, 64, 0.9);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  // Warm every page into the pool so the measured loop sees only hits.
  RunOnce(db.get(), 1, g_n);

  RunResult r;
  // Best-of-2 to shave scheduler noise, same policy as bench_buffer_pool.
  r.mops = std::max(RunOnce(db.get(), g_threads, g_ops),
                    RunOnce(db.get(), g_threads, g_ops));
  ReadPathStats st = db->tree()->read_path_stats();
  r.optimistic_gets = st.optimistic_gets;
  r.fallbacks = st.fallbacks;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Header("Read path: latch-free optimistic Gets vs the Table-1 S-lock path",
         "readers of a tree not under reorganization should pay nothing for "
         "the reorganizer's lock protocol; the optimistic path validates a "
         "version stamp instead of locking");

  JsonReporter json("bench_read_path", argc, argv);
  if (HasFlag(argc, argv, "--quick")) {
    g_n = 5000;
    g_ops = 80000;
  }
  if (const char* t = FlagValue(argc, argv, "--threads")) g_threads = atoi(t);
  if (const char* o = FlagValue(argc, argv, "--ops")) g_ops = strtoull(o, nullptr, 10);

  RunResult slock = Measure(/*optimistic=*/false);
  RunResult opt = Measure(/*optimistic=*/true);
  double speedup = opt.mops / slock.mops;

  std::printf("%-12s %12s %16s %10s\n", "path", "Mops/s", "optimistic gets",
              "fallbacks");
  std::printf("%-12s %12.2f %16llu %10llu\n", "s-lock", slock.mops,
              (unsigned long long)slock.optimistic_gets,
              (unsigned long long)slock.fallbacks);
  std::printf("%-12s %12.2f %16llu %10llu\n", "optimistic", opt.mops,
              (unsigned long long)opt.optimistic_gets,
              (unsigned long long)opt.fallbacks);
  std::printf("speedup: %.2fx\n", speedup);

  if (slock.optimistic_gets != 0) {
    std::fprintf(stderr, "optimistic path ran with optimistic_reads=false\n");
    return 1;
  }
  if (opt.optimistic_gets == 0) {
    std::fprintf(stderr, "optimistic path never engaged\n");
    return 1;
  }

  json.Add("hot_hit/optimistic", opt.mops, "Mops/s", g_threads);
  json.Add("hot_hit/slock", slock.mops, "Mops/s", g_threads);
  json.Add("hot_hit/speedup", speedup, "ratio", g_threads);
  json.Add("hot_hit/fallbacks", static_cast<double>(opt.fallbacks), "count",
           g_threads);
  return json.Write() ? 0 : 1;
}
