// Shared helpers for the experiment harnesses. Each bench binary prints the
// table/figure series it reproduces (see DESIGN.md §3 and EXPERIMENTS.md);
// absolute numbers are machine-dependent, the *shape* is what must match the
// paper's claims.

#ifndef SOREORG_BENCH_BENCH_UTIL_H_
#define SOREORG_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/sim/disk_model.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace soreorg {
namespace bench {

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }
};

/// A database holding `n` records sparsified by random deletion to roughly
/// (1 - delete_frac) of the original fill.
inline std::unique_ptr<Database> SparseDb(
    MemEnv* env, uint64_t n, double delete_frac, uint64_t seed,
    DatabaseOptions options = DatabaseOptions(),
    std::vector<uint64_t>* survivors = nullptr) {
  std::unique_ptr<Database> db;
  Status s = Database::Open(env, options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  std::vector<uint64_t> local;
  s = SparsifyByDeletion(db.get(), n, 64, 0.95, delete_frac, 10, seed,
                         survivors ? survivors : &local);
  if (!s.ok()) {
    std::fprintf(stderr, "sparsify failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  return db;
}

inline BTreeStats Shape(Database* db) {
  BTreeStats st;
  db->tree()->ComputeStats(&st);
  return st;
}

inline void Check(Database* db, const char* where) {
  Status s = db->tree()->CheckConsistency();
  if (!s.ok()) {
    std::fprintf(stderr, "CONSISTENCY FAILURE at %s: %s\n", where,
                 s.ToString().c_str());
    std::abort();
  }
}

inline void Header(const char* title, const char* paper_claim) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n\n", paper_claim);
}

// --- machine-readable bench output ----------------------------------------
//
// Every bench binary accepts --json=<path>; metrics recorded through a
// JsonReporter land there as {bench, git_rev, metrics:[{name, value, unit,
// threads}]} so the perf trajectory is diffable across PRs (the repo root
// keeps BENCH_*.json snapshots). Absolute values remain machine-dependent;
// the JSON makes regressions visible, it does not promise portable numbers.

#ifndef SOREORG_GIT_REV
#define SOREORG_GIT_REV "unknown"
#endif

/// --flag=value argv lookup; returns nullptr when absent.
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

class JsonReporter {
 public:
  /// Parses --json=<path> from argv; with no flag the reporter is inert.
  JsonReporter(const char* bench_name, int argc, char** argv)
      : bench_name_(bench_name) {
    const char* path = FlagValue(argc, argv, "--json");
    if (path != nullptr) path_ = path;
  }

  void Add(const std::string& name, double value, const std::string& unit,
           int threads = 0) {
    metrics_.push_back(Metric{name, value, unit, threads});
  }

  /// Writes the file (call once, at the end of main). Returns false on I/O
  /// failure so CI can fail the smoke job.
  bool Write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"git_rev\": \"%s\",\n",
                 bench_name_.c_str(), SOREORG_GIT_REV);
    std::fprintf(f, "  \"metrics\": [\n");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\", "
                   "\"threads\": %d}%s\n",
                   m.name.c_str(), m.value, m.unit.c_str(), m.threads,
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("json written to %s\n", path_.c_str());
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    int threads;
  };

  std::string bench_name_;
  std::string path_;
  std::vector<Metric> metrics_;
};

}  // namespace bench
}  // namespace soreorg

#endif  // SOREORG_BENCH_BENCH_UTIL_H_
