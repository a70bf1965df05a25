// A seeded hunt for wrong answers beside the reorganizer. One closed-loop
// client runs Get, Update, Insert, Delete and Scan on a small aged tree
// (bulk load, clustered and scattered deletes, churn inserts) while pass 3
// alone, or a full Reorganize(), runs beside it. Every answer is checked
// against a shadow of the client's acknowledged writes; afterwards the tree
// must pass CheckConsistency and hold exactly the shadow. Each seed runs
// with optimistic reads on and off. A third scenario confines the client to
// clamping zones: the keys between a base page's low bound and its slot-0
// separator, which reach the slot-0 leaf only by clamping and lower its
// separator when inserted — a change pass 3 must replay into a tree whose
// base-page boundaries differ.
//
// Budget: tier-1 runs a fixed number of seeds per configuration, well under
// a minute in total. A long hunt raises it through the environment:
//   SOREORG_SHADOW_HUNT_RUNS=<runs per configuration>
//   SOREORG_SHADOW_HUNT_SEED=<first seed>  (disjoint ranges for parallel
//                                           hunters)
// A mismatch is logged with the key, the leaf that now holds it, the tree
// incarnation around the read, and whether the read was served optimistically.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/btree/iterator.h"
#include "src/db/database.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace soreorg {
namespace {

constexpr uint64_t kSlots = 40000;  // a few base pages
constexpr uint64_t kStride = 10;
constexpr uint64_t kScanSpan = 60 * kStride;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10) : fallback;
}

struct Tally {
  uint64_t runs = 0;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;  // statuses a single client never expects
  uint64_t wrong_reads = 0;
  uint64_t wrong_scans = 0;
  uint64_t inconsistent = 0;
  uint64_t reorg_failures = 0;

  void Add(const Tally& o) {
    runs += o.runs;
    ops += o.ops;
    failed_ops += o.failed_ops;
    wrong_reads += o.wrong_reads;
    wrong_scans += o.wrong_scans;
    inconsistent += o.inconsistent;
    reorg_failures += o.reorg_failures;
  }
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "runs=%llu ops=%llu failed_ops=%llu wrong_reads=%llu "
                  "wrong_scans=%llu inconsistent=%llu reorg_failures=%llu",
                  (unsigned long long)runs, (unsigned long long)ops,
                  (unsigned long long)failed_ops,
                  (unsigned long long)wrong_reads,
                  (unsigned long long)wrong_scans,
                  (unsigned long long)inconsistent,
                  (unsigned long long)reorg_failures);
    return buf;
  }
};

// The closed-loop client: one op at a time, each checked against the shadow
// before the next is issued.
using Zones = std::vector<std::pair<uint64_t, uint64_t>>;  // [lo, hi) keys

class Client {
 public:
  Client(Database* db, std::map<std::string, std::string>* shadow,
         uint64_t seed, Tally* tally, const Zones* zones)
      : db_(db), shadow_(shadow), rng_(seed), tally_(tally), zones_(zones) {}

  void Step() {
    ++tally_->ops;
    uint64_t op = rng_.Uniform(100);
    std::string key = RandomKey();
    if (op < 35) {
      Get(key);
    } else if (op < 50) {
      Write(key, 'u');
    } else if (op < 70) {
      Write(key, 'i');
    } else if (op < 85) {
      Write(key, 'd');
    } else {
      Scan(key);
    }
  }

 private:
  std::string RandomKey() {
    if (!zones_->empty()) {
      const auto& [lo, hi] = (*zones_)[rng_.Uniform(zones_->size())];
      return EncodeU64Key(lo + rng_.Uniform(hi - lo));
    }
    uint64_t k = rng_.Uniform(kSlots) * kStride;
    if (rng_.Uniform(4) == 0) k += 1 + rng_.Uniform(kStride - 1);
    return EncodeU64Key(k);
  }

  // Where `key` lives now, and the read's circumstances, for the log.
  std::string Context(const std::string& key, uint64_t inc_before,
                      uint64_t opt_before) {
    BTreeIterator it(db_->tree(), nullptr);
    Status s = it.Seek(key);
    long long leaf = s.ok() && !it.leaf_trail().empty()
                         ? static_cast<long long>(it.leaf_trail().front())
                         : -1;
    bool optimistic =
        db_->tree()->read_path_stats().optimistic_gets > opt_before;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "key=%llu leaf=%lld incarnation=%llu->%llu optimistic=%d",
                  (unsigned long long)DecodeU64Key(key), leaf,
                  (unsigned long long)inc_before,
                  (unsigned long long)db_->tree()->incarnation(),
                  optimistic ? 1 : 0);
    return buf;
  }

  // A status a lone client never expects: not a wrong answer, but logged.
  void Failed(const std::string& op, const std::string& key, const Status& s) {
    ++tally_->failed_ops;
    std::printf("[hunt] failed %s key=%llu: %s\n", op.c_str(),
                (unsigned long long)DecodeU64Key(key), s.ToString().c_str());
  }

  void Get(const std::string& key) {
    uint64_t inc = db_->tree()->incarnation();
    uint64_t opt = db_->tree()->read_path_stats().optimistic_gets;
    std::string value;
    Status s = db_->Get(key, &value);
    auto it = shadow_->find(key);
    bool right = it != shadow_->end() ? s.ok() && value == it->second
                                      : s.IsNotFound();
    if (!s.ok() && !s.IsNotFound()) {
      Failed("Get", key, s);
    } else if (!right) {
      ++tally_->wrong_reads;
      ADD_FAILURE() << "wrong Get: " << Context(key, inc, opt) << " status="
                    << s.ToString() << " expected "
                    << (it != shadow_->end() ? "present" : "absent");
    }
  }

  void Write(const std::string& key, char kind) {
    bool present = shadow_->count(key) > 0;
    std::string value = std::string(1, kind) + std::to_string(rng_.Next());
    Status s = kind == 'u'   ? db_->Update(key, value)
               : kind == 'i' ? db_->Put(key, value)
                             : db_->Delete(key);
    bool expect_ok = kind == 'i' ? !present : present;
    bool right = expect_ok ? s.ok()
                           : (kind == 'i' ? s.IsInvalidArgument()
                                          : s.IsNotFound());
    if (right) {
      if (s.ok() && kind == 'd') shadow_->erase(key);
      if (s.ok() && kind != 'd') (*shadow_)[key] = value;
    } else if (s.ok() || s.IsNotFound() || s.IsInvalidArgument()) {
      ++tally_->wrong_reads;  // the write saw a different record set
      ADD_FAILURE() << "wrong " << kind << " status " << s.ToString()
                    << ": " << Context(key, db_->tree()->incarnation(), 0);
      if (s.ok() && kind == 'd') shadow_->erase(key);
      if (s.ok() && kind != 'd') (*shadow_)[key] = value;
    } else {
      Failed(std::string(1, kind), key, s);
    }
  }

  void Scan(const std::string& lo) {
    uint64_t inc = db_->tree()->incarnation();
    std::string hi = EncodeU64Key(DecodeU64Key(lo) + kScanSpan);
    std::vector<std::pair<std::string, std::string>> got;
    BTreeIterator it(db_->tree(), nullptr);
    Status s = it.Seek(lo);
    while (s.ok() && it.Valid() && it.key().compare(hi) <= 0) {
      got.emplace_back(it.key().ToString(), it.value().ToString());
      s = it.Next();
    }
    if (!s.ok()) {
      Failed("Scan", lo, s);
      return;
    }
    std::vector<std::pair<std::string, std::string>> want(
        shadow_->lower_bound(lo), shadow_->upper_bound(hi));
    if (got == want) return;
    ++tally_->wrong_scans;
    size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    std::string trail;
    for (PageId p : it.leaf_trail()) trail += " " + std::to_string(p);
    ADD_FAILURE() << "wrong Scan from " << DecodeU64Key(lo) << ": position "
                  << i << " got "
                  << (i < got.size() ? std::to_string(DecodeU64Key(got[i].first))
                                     : "end")
                  << " want "
                  << (i < want.size()
                          ? std::to_string(DecodeU64Key(want[i].first))
                          : "end")
                  << " incarnation=" << inc << "->"
                  << db_->tree()->incarnation() << " leaves:" << trail;
  }

  Database* db_;
  std::map<std::string, std::string>* shadow_;
  Random rng_;
  Tally* tally_;
  const Zones* zones_;
};

// Empty the first three leaves of every base page but the first, so each
// page's slot-0 separator sits well above its low bound; returns the zones.
Zones OpenClampingZones(Database* db) {
  std::vector<PageId> bases;
  EXPECT_TRUE(db->tree()->CollectBasePages(&bases).ok());
  Zones zones;
  for (size_t b = 1; b < bases.size(); ++b) {
    Page* page;
    EXPECT_TRUE(db->buffer_pool()->FetchPage(bases[b], &page).ok());
    InternalNode node(page);
    uint64_t lo = DecodeU64Key(node.KeyAt(0));
    uint64_t hi = DecodeU64Key(node.KeyAt(3));
    db->buffer_pool()->UnpinPage(bases[b], false);
    for (uint64_t k = lo; k < hi; k += kStride) {
      EXPECT_TRUE(db->Delete(EncodeU64Key(k)).ok());
    }
    zones.emplace_back(lo, hi);
  }
  return zones;
}

enum class Scenario { kPass3, kReorganize, kClampingZones };

// One aged tree, one reorganization, one client beside it.
Tally RunOnce(bool optimistic, Scenario scenario, uint64_t seed) {
  Tally tally;
  tally.runs = 1;
  MemEnv env;
  DatabaseOptions options;
  options.tree.optimistic_reads = optimistic;
  options.buffer_pool_pages = 128;     // several times smaller than the tree
  options.wal_segment_bytes = 64 << 10;  // each commit's sync copies less
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(&env, options, &db).ok());
  Zones zones;
  if (scenario == Scenario::kClampingZones) {
    EXPECT_TRUE(
        db->BulkLoad(MakeRecords(kSlots, 64, kStride, seed), 0.95).ok());
    zones = OpenClampingZones(db.get());
  } else {
    AgingOptions aging;
    aging.n = kSlots;
    aging.key_stride = kStride;
    aging.churn_inserts = kSlots / 8;
    aging.seed = seed;
    EXPECT_TRUE(AgeDatabase(db.get(), aging).ok());
  }

  std::map<std::string, std::string> shadow;
  EXPECT_TRUE(db->Scan(Slice(), Slice(),
                       [&](const Slice& k, const Slice& v) {
                         shadow[k.ToString()] = v.ToString();
                         return true;
                       })
                  .ok());

  std::atomic<bool> done{false};
  Status reorg_status;
  std::thread reorg([&] {
    reorg_status = scenario == Scenario::kReorganize
                       ? db->Reorganize()
                       : db->reorganizer()->RunInternalPass();
    done.store(true);
  });
  Client client(db.get(), &shadow, seed * 7919 + 1, &tally, &zones);
  while (!done.load()) client.Step();
  reorg.join();

  if (!reorg_status.ok()) {
    ++tally.reorg_failures;
    ADD_FAILURE() << "seed " << seed << ": reorganization failed: "
                  << reorg_status.ToString();
  }
  Status c = db->tree()->CheckConsistency();
  if (!c.ok()) {
    ++tally.inconsistent;
    ADD_FAILURE() << "seed " << seed << ": " << c.ToString();
  }
  std::map<std::string, std::string> after;
  EXPECT_TRUE(db->Scan(Slice(), Slice(),
                       [&](const Slice& k, const Slice& v) {
                         after[k.ToString()] = v.ToString();
                         return true;
                       })
                  .ok());
  if (after != shadow) {
    ++tally.wrong_scans;
    ADD_FAILURE() << "seed " << seed << ": final scan holds " << after.size()
                  << " records, shadow " << shadow.size();
  }
  return tally;
}

void Hunt(Scenario scenario, uint64_t default_runs) {
  const uint64_t runs = EnvOr("SOREORG_SHADOW_HUNT_RUNS", default_runs);
  const uint64_t first = EnvOr("SOREORG_SHADOW_HUNT_SEED", 1);
  for (bool optimistic : {true, false}) {
    Tally total;
    for (uint64_t seed = first; seed < first + runs; ++seed) {
      total.Add(RunOnce(optimistic, scenario, seed));
    }
    const char* name = scenario == Scenario::kPass3        ? "pass 3"
                       : scenario == Scenario::kReorganize ? "Reorganize()"
                                                           : "zones";
    std::printf("[hunt] %s optimistic=%d seeds %llu..%llu: %s\n", name,
                optimistic ? 1 : 0,
                (unsigned long long)first,
                (unsigned long long)(first + runs - 1),
                total.ToString().c_str());
    EXPECT_EQ(total.wrong_reads, 0u);
    EXPECT_EQ(total.wrong_scans, 0u);
    EXPECT_EQ(total.inconsistent, 0u);
    EXPECT_EQ(total.reorg_failures, 0u);
  }
}

TEST(ReorgShadowTest, Pass3BesideMixedClient) {
  Hunt(Scenario::kPass3, 12);
}

TEST(ReorgShadowTest, ReorganizeBesideMixedClient) {
  Hunt(Scenario::kReorganize, 5);
}

TEST(ReorgShadowTest, Pass3BesideClampingZoneClient) {
  Hunt(Scenario::kClampingZones, 20);
}

}  // namespace
}  // namespace soreorg
