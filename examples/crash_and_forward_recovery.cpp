// Forward Recovery (§5.1), demonstrated: crash the system in the middle of
// a reorganization unit, restart, and watch recovery FINISH the unit instead
// of rolling it back — no reorganization work is lost and the tree stays
// consistent.
//
//   build/examples/example_crash_and_forward_recovery

#include <cstdio>

#include "src/db/database.h"
#include "src/storage/fault_env.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

using namespace soreorg;

int main() {
  MemEnv base;
  FaultInjectionEnv env(&base);  // fails the N-th write-like op on demand
  DatabaseOptions options;  // RecoveryPolicy::kForward is the default
  std::unique_ptr<Database> db;
  Status s = Database::Open(&env, options, &db);
  if (!s.ok()) return 1;

  std::vector<uint64_t> survivors;
  s = SparsifyByDeletion(db.get(), 10000, 64, 0.95, 0.7, 10, 42, &survivors);
  if (!s.ok()) return 1;
  db->Checkpoint();
  BTreeStats before;
  db->tree()->ComputeStats(&before);
  std::printf("sparse tree: %llu leaves at %.2f fill, %zu records\n",
              (unsigned long long)before.leaf_pages, before.avg_leaf_fill,
              survivors.size());

  // Let a few units run, then fail the system mid-unit: the 25th WAL I/O
  // lands somewhere inside a reorganization unit.
  std::printf("\nrunning pass 1 with a crash armed at WAL I/O #25...\n");
  env.FailOpAfter(25, options.name + ".wal", "");
  s = db->reorganizer()->RunLeafPass();
  std::printf("pass 1 stopped: %s (crash fired: %s)\n", s.ToString().c_str(),
              env.fault_fired() ? "yes" : "no");

  // "System failure": everything unsynced evaporates; reopen runs recovery.
  db.reset();
  env.Crash();
  s = Database::Open(&env, options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const RecoveryResult& rr = db->recovery_result();
  std::printf("\nrecovery: scanned %llu log records, redid %llu\n",
              (unsigned long long)rr.records_scanned,
              (unsigned long long)rr.records_redone);
  std::printf("incomplete reorganization unit found: %s\n",
              rr.reorg.has_open_unit ? "yes — FINISHED forward, not undone"
                                     : "no (crash fell between units)");
  std::printf("largest finished key (LK, the restart position): %llu\n",
              (unsigned long long)DecodeU64Key(
                  db->reorg_table()->largest_finished_key()));

  s = db->tree()->CheckConsistency();
  std::printf("tree consistency after forward recovery: %s\n",
              s.ToString().c_str());

  uint64_t found = 0;
  std::string v;
  for (uint64_t k : survivors) {
    if (db->Get(EncodeU64Key(k), &v).ok()) ++found;
  }
  std::printf("records intact: %llu/%zu\n", (unsigned long long)found,
              survivors.size());

  // The pass resumes from LK and completes the rest of the tree.
  std::printf("\nresuming pass 1 from LK...\n");
  s = db->reorganizer()->RunLeafPass();
  BTreeStats after;
  db->tree()->ComputeStats(&after);
  std::printf("final: %llu leaves at %.2f fill (%s)\n",
              (unsigned long long)after.leaf_pages, after.avg_leaf_fill,
              s.ToString().c_str());
  return s.ok() && found == survivors.size() ? 0 : 1;
}
