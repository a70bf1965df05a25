// Tests of the benchmark's own code: seeded generation, the Env decorators,
// metric names, the histogram, and span self times.

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/envs.h"
#include "perfbench/src/gen.h"
#include "perfbench/src/histogram.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using namespace std::string_literals;

TEST(Gen, SameSeedSameInputs) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    differs |= x != c.Next();
  }
  EXPECT_TRUE(differs);

  Zipfian z1(100000, 0.99, 7), z2(100000, 0.99, 7);
  std::vector<uint64_t> s1, s2;
  for (int i = 0; i < 5000; ++i) {
    s1.push_back(z1.NextScrambled());
    s2.push_back(z2.NextScrambled());
    ASSERT_LT(s1.back(), 100000u);
  }
  EXPECT_EQ(s1, s2);

  EXPECT_EQ(ValueOf(9, 123, 4), ValueOf(9, 123, 4));
  EXPECT_NE(ValueOf(9, 123, 4), ValueOf(9, 123, 5));
  EXPECT_NE(ValueOf(9, 123, 4), ValueOf(10, 123, 4));
  EXPECT_EQ(ValueOf(9, 123, 4).size(), kValueBytes);
}

TEST(Gen, ZipfianIsSkewed) {
  Zipfian z(10000, 0.99, 1);
  int hottest = 0;
  for (int i = 0; i < 10000; ++i) hottest += z.Next() == 0;
  // P(0) = 1 / zeta(10000, 0.99) ~ 0.1.
  EXPECT_GT(hottest, 700);
  EXPECT_LT(hottest, 1400);
}

TEST(Gen, KeysSortInSlotOrder) {
  for (uint64_t s : {0ull, 1ull, 255ull, 256ull, 99999ull, 1ull << 40}) {
    EXPECT_EQ(KeyOf(s).size(), kKeyBytes);
    EXPECT_LT(KeyOf(s), KeyOf(s + 1));
  }
}

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() / "perfbench_test_tmp";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  soreorg::PosixEnv posix_;
};

std::string ReadAllBytes(soreorg::Env* env, const std::string& name) {
  std::unique_ptr<soreorg::File> f;
  EXPECT_TRUE(env->NewFile(name, &f).ok());
  std::string buf(f->Size(), '\0');
  size_t n = 0;
  EXPECT_TRUE(f->Read(0, buf.size(), buf.data(), &n).ok());
  buf.resize(n);
  return buf;
}

TEST_F(EnvTest, TimingEnvPassesBytesThroughUnchanged) {
  DataDirEnv data(&posix_);
  IoStats io;
  TimingEnv timing(&data, &io);
  std::string page(4096, '\0');
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<char>(i * 7);
  const std::string rec = "wal-record\0with-nul"s;
  {
    std::unique_ptr<soreorg::File> pages, wal;
    ASSERT_TRUE(timing.NewFile(Path("db.pages"), &pages).ok());
    ASSERT_TRUE(timing.NewFile(Path("db.wal.000001"), &wal).ok());
    ASSERT_TRUE(pages->Write(4096, page).ok());
    ASSERT_TRUE(wal->Append(rec).ok());
    ASSERT_TRUE(wal->Append(rec).ok());
    ASSERT_TRUE(wal->Sync().ok());
    std::string back(4096, '\0');
    size_t n = 0;
    ASSERT_TRUE(pages->Read(4096, 4096, back.data(), &n).ok());
    EXPECT_EQ(n, 4096u);
    EXPECT_EQ(back, page);
  }
  EXPECT_EQ(ReadAllBytes(&posix_, Path("db.pages")).substr(4096), page);
  EXPECT_EQ(ReadAllBytes(&posix_, Path("db.wal.000001")), rec + rec);

  const IoStats::Snapshot snap = io.Take();
  EXPECT_EQ(snap.at(FileClass::kPages, IoOp::kWrite).calls, 1u);
  EXPECT_EQ(snap.at(FileClass::kPages, IoOp::kWrite).bytes, 4096u);
  EXPECT_EQ(snap.at(FileClass::kPages, IoOp::kRead).bytes, 4096u);
  EXPECT_EQ(snap.at(FileClass::kWal, IoOp::kAppend).calls, 2u);
  EXPECT_EQ(snap.at(FileClass::kWal, IoOp::kAppend).bytes, 2 * rec.size());
  EXPECT_EQ(snap.at(FileClass::kWal, IoOp::kSync).calls, 1u);
  EXPECT_EQ(snap.lat(FileClass::kWal, IoOp::kAppend).count(), 2u);
  EXPECT_EQ(io.Take().at(FileClass::kWal, IoOp::kAppend).calls, 0u);
  EXPECT_EQ(data.syncs(), 1u);
}

TEST_F(EnvTest, CrashDropsLaterMutations) {
  DataDirEnv data(&posix_);
  std::unique_ptr<soreorg::File> f;
  ASSERT_TRUE(data.NewFile(Path("db.wal.000001"), &f).ok());
  ASSERT_TRUE(f->Append("kept").ok());
  data.Crash();
  ASSERT_TRUE(f->Append("lost").ok());
  ASSERT_TRUE(f->Write(0, "XXXX").ok());
  ASSERT_TRUE(f->Truncate(0).ok());
  ASSERT_TRUE(data.DeleteFile(Path("db.wal.000001")).ok());
  data.Revive();
  EXPECT_EQ(ReadAllBytes(&posix_, Path("db.wal.000001")), "kept");
  ASSERT_TRUE(f->Append("more").ok());
  EXPECT_EQ(ReadAllBytes(&posix_, Path("db.wal.000001")), "keptmore");
}

TEST(Env, ClassifiesFiles) {
  EXPECT_EQ(ClassifyFile("d/db.p0.pages"), FileClass::kPages);
  EXPECT_EQ(ClassifyFile("d/db.p0.wal.000017"), FileClass::kWal);
  EXPECT_EQ(ClassifyFile("d/db.p0.wal-recycle.3"), FileClass::kWal);
  EXPECT_EQ(ClassifyFile("d/db.p0.ckpt"), FileClass::kOther);
}

TEST(Metrics, NamesAndUnitsAreWellFormed) {
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
      EXPECT_TRUE(std::regex_match(d.unit, unit_re)) << d.name << " " << d.unit;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
  }
  for (const std::string& w : WorkloadNames()) EXPECT_TRUE(ValidMetricName(w));
  EXPECT_TRUE(ValidMetricName("txn.client_wait_ms.RS"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("read p50"));
  EXPECT_FALSE(ValidMetricName("read_µs"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Histogram, ExactPercentilesOnKnownInputs) {
  Histogram h;
  for (uint64_t i = 1; i <= 100; ++i) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 50000);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 99000);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100000);
  EXPECT_DOUBLE_EQ(h.Percentile(0.001), 1000);

  Histogram small;
  for (uint64_t v = 0; v < 128; ++v) small.Record(v);
  EXPECT_DOUBLE_EQ(small.Percentile(0.5), 63);
  EXPECT_DOUBLE_EQ(small.Percentile(1.0), 127);
}

TEST(Histogram, BucketsAreUnderOnePercentWide) {
  for (uint64_t v : {128ull, 1000ull, 4097ull, 1234567ull, 987654321ull}) {
    const size_t b = Histogram::Bucket(v);
    uint64_t lo = v, hi = v;
    while (lo > 0 && Histogram::Bucket(lo - 1) == b) --lo;
    while (Histogram::Bucket(hi + 1) == b) ++hi;
    EXPECT_LE(double(hi - lo + 1) / double(lo), 0.01) << v;
  }
  Histogram h;
  for (uint64_t v = 100000; v < 200000; ++v) h.Record(v);
  EXPECT_NEAR(h.Percentile(0.5), 150000, 150000 * 0.01);
}

TEST(Histogram, TailQuantileKeepsTenSamplesBeyond) {
  Histogram a, b;
  for (int i = 0; i < 1000; ++i) a.Record(1);
  for (int i = 0; i < 500; ++i) b.Record(1);
  const Histogram* both[] = {&a, &b};
  const Histogram* only_a[] = {&a};
  EXPECT_DOUBLE_EQ(TailQuantile(only_a, only_a + 1), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(both, both + 2), 0.98);
  Histogram tiny;
  for (int i = 0; i < 10; ++i) tiny.Record(1);
  const Histogram* t[] = {&tiny};
  EXPECT_DOUBLE_EQ(TailQuantile(t, t + 1), 0.0);
}

TEST(Trace, SelfTimeSubtractsChildren) {
  OpTrace t;
  t.Begin(1, "op.get");
  const int32_t ex = t.Open("Executor::Execute");
  {
    ScopedTrace scope(&t);
    const int32_t call = t.Open("Database::Get");
    const uint64_t now = NowNs();
    AddLeafSpan("storage.read", now, now + 1000);
    AddLeafSpan("txn.wait.S", now + 1000, now + 1500);
    t.Close(call);
  }
  t.Close(ex);
  t.End();
  AddLeafSpan("storage.read", 0, 1);  // no current trace: dropped
  ASSERT_EQ(t.spans().size(), 5u);
  const auto self = t.SelfTimes();
  EXPECT_EQ(self[static_cast<int>(Layer::kStorage)], 1000u);
  EXPECT_EQ(self[static_cast<int>(Layer::kTxn)], 500u);
  EXPECT_EQ(self[static_cast<int>(Layer::kWal)], 0u);
  EXPECT_EQ(LayerOf("Database::Open"), Layer::kRecovery);
  EXPECT_EQ(LayerOf("wal.sync"), Layer::kWal);
  EXPECT_EQ(LayerOf("reorg.pass2"), Layer::kReorg);
}

}  // namespace
}  // namespace perfbench
