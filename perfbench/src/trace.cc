#include "perfbench/src/trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

thread_local OpTrace* tls_trace = nullptr;
thread_local bool tls_reorg_thread = false;

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

const char* WaitSpanName(soreorg::LockMode m) {
  static const char* const kNames[soreorg::kNumLockModes] = {
      "txn.wait.IS", "txn.wait.IX", "txn.wait.S",  "txn.wait.X",
      "txn.wait.R",  "txn.wait.RX", "txn.wait.RS"};
  return kNames[static_cast<int>(m)];
}

}  // namespace

const char* LayerName(Layer l) {
  static const char* const kNames[kLayers] = {
      "db", "btree", "txn", "storage", "wal", "reorg", "recovery"};
  return kNames[static_cast<int>(l)];
}

Layer LayerOf(const char* name) {
  if (std::strcmp(name, "Database::Open") == 0 ||
      std::strcmp(name, "LogManager::ReadAll") == 0) {
    return Layer::kRecovery;
  }
  if (StartsWith(name, "Database::")) return Layer::kBtree;
  if (StartsWith(name, "txn.")) return Layer::kTxn;
  if (StartsWith(name, "storage.") || StartsWith(name, "other.")) {
    return Layer::kStorage;
  }
  if (StartsWith(name, "wal.")) return Layer::kWal;
  if (StartsWith(name, "reorg.")) return Layer::kReorg;
  return Layer::kDb;  // op.*, Executor::Execute
}

void OpTrace::Begin(uint64_t op_id, const char* name) {
  spans_.clear();
  open_.clear();
  op_id_ = op_id;
  Open(name);
}

int32_t OpTrace::Open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  s.op_id = op_id_;
  spans_.push_back(s);
  const int32_t idx = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void OpTrace::Close(int32_t idx) {
  spans_[static_cast<size_t>(idx)].end_ns = NowNs();
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == idx) break;
  }
}

void OpTrace::Leaf(const char* name, uint64_t start_ns, uint64_t end_ns) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op_id = op_id_;
  spans_.push_back(s);
}

std::array<uint64_t, kLayers> OpTrace::SelfTimes() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::array<uint64_t, kLayers> self{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    const uint64_t own = dur > child_ns[i] ? dur - child_ns[i] : 0;
    self[static_cast<int>(LayerOf(spans_[i].name))] += own;
  }
  return self;
}

ScopedTrace::ScopedTrace(OpTrace* t) : prev_(tls_trace) { tls_trace = t; }

ScopedTrace::~ScopedTrace() { tls_trace = prev_; }

void AddLeafSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  if (tls_trace != nullptr) tls_trace->Leaf(name, start_ns, end_ns);
}

void SpanLog::Add(const OpTrace& t) {
  std::lock_guard<std::mutex> g(mu_);
  if (spans_.size() + t.spans().size() > cap_) {
    dropped_ += t.spans().size();
    return;
  }
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : t.spans()) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> g(mu_);
  return dropped_;
}

bool SpanLog::WriteTo(const std::string& path,
                      const std::string& header) const {
  std::lock_guard<std::mutex> g(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", header.c_str());
  std::fprintf(f, "# op_id\tindex\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%d\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.op_id), i, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void LockWaitTracer::Install(soreorg::LockManager* lm) {
  lm->SetEventHook([this](soreorg::LockEvent e, soreorg::TxnId,
                          const soreorg::LockName&, soreorg::LockMode mode) {
    OnEvent(e, mode);
  });
}

void LockWaitTracer::MarkReorgThread(bool on) { tls_reorg_thread = on; }

LockWaitTracer::Totals LockWaitTracer::totals() const {
  Totals t;
  for (int m = 0; m < kModes; ++m) {
    t.client_ns[m] = wait_ns_[0][m].load();
    t.reorg_ns += wait_ns_[1][m].load();
  }
  t.instant = instant_waits_.load();
  return t;
}

LockWaitTracer::Totals LockWaitTracer::Totals::operator-(
    const Totals& o) const {
  Totals d;
  for (int m = 0; m < kModes; ++m) {
    d.client_ns[m] = client_ns[m] - o.client_ns[m];
  }
  d.reorg_ns = reorg_ns - o.reorg_ns;
  d.instant = instant - o.instant;
  return d;
}

void LockWaitTracer::OnEvent(soreorg::LockEvent e, soreorg::LockMode mode) {
  // A thread has at most one lock request in flight, so one pending wait
  // per thread pairs kWait with the request's terminal event.
  thread_local uint64_t wait_start = 0;
  thread_local bool waiting = false;
  using soreorg::LockEvent;
  switch (e) {
    case LockEvent::kWait:
      wait_start = NowNs();
      waiting = true;
      return;
    case LockEvent::kGranted:
    case LockEvent::kInstantGranted:
    case LockEvent::kBusy:
    case LockEvent::kBackoff:
    case LockEvent::kDeadlock:
    case LockEvent::kTimeout:
      break;
    default:
      return;
  }
  if (!waiting) return;
  waiting = false;
  const uint64_t end = NowNs();
  wait_ns_[tls_reorg_thread ? 1 : 0][static_cast<int>(mode)].fetch_add(
      end - wait_start, std::memory_order_relaxed);
  if (e == LockEvent::kInstantGranted) {
    instant_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  AddLeafSpan(WaitSpanName(mode), wait_start, end);
}

}  // namespace perfbench
