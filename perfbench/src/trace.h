// Tracing from outside the engine: spans around the public calls the
// benchmark makes, plus two kinds of children — I/O calls from TimingEnv and
// lock waits from LockManager's event hook — attached to the calling
// thread's innermost open span. Spans are kept in memory (bounded) and
// written out when the run ends.
//
// Each span name maps to the layer whose public call it times:
//   op.*                 the benchmark's call into the serving layer -> db
//   Executor::Execute    the executor hop                            -> db
//   Database::Open       restart recovery                      -> recovery
//   LogManager::ReadAll  a full log scan                       -> recovery
//   Database::*          any other engine call (the tree)         -> btree
//   txn.wait.<mode>      a blocked lock request                     -> txn
//   storage.*, other.*   page-file and checkpoint-file I/O      -> storage
//   wal.*                WAL segment I/O                            -> wal
//   reorg.*              one reorganization pass                  -> reorg
// A layer's self time is its spans' durations minus their children's.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/txn/lock_manager.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Layer { kDb, kBtree, kTxn, kStorage, kWal, kReorg, kRecovery };
constexpr int kLayers = 7;
const char* LayerName(Layer l);
Layer LayerOf(const char* span_name);

struct Span {
  const char* name = nullptr;  // static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index within the unit's spans; -1 for its root
  uint64_t op_id = 0;
};

/// The spans of one traced unit of work: a client op, a reorganization
/// pass, a Database::Open. Used by one thread at a time — the client, or an
/// executor worker running the client's task while the client waits.
class OpTrace {
 public:
  void Begin(uint64_t op_id, const char* name);
  /// Open a child of the innermost open span; returns its index.
  int32_t Open(const char* name);
  void Close(int32_t idx);
  /// A closed child of the innermost open span.
  void Leaf(const char* name, uint64_t start_ns, uint64_t end_ns);
  void End() { Close(0); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per-layer self time of the finished unit, in ns.
  std::array<uint64_t, kLayers> SelfTimes() const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t op_id_ = 0;
};

/// Makes `t` the calling thread's current trace for the scope; restores the
/// previous one on exit. I/O and lock waits on this thread attach to `t`.
class ScopedTrace {
 public:
  explicit ScopedTrace(OpTrace* t);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  OpTrace* prev_;
};

/// Attach a closed leaf span to the calling thread's current trace (no-op
/// when the thread has none).
void AddLeafSpan(const char* name, uint64_t start_ns, uint64_t end_ns);

/// Bounded in-memory store of finished spans, written out at exit.
class SpanLog {
 public:
  explicit SpanLog(size_t cap) : cap_(cap) {}
  void Add(const OpTrace& t);
  /// Tab-separated: op_id, index, parent, name, start_ns, end_ns, after one
  /// '#'-prefixed header line.
  bool WriteTo(const std::string& path, const std::string& header) const;
  uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  size_t cap_;
  std::vector<Span> spans_;  // parent indices rebased to this vector
  uint64_t dropped_ = 0;
};

/// Lock-wait tracer on LockManager::SetEventHook: time from kWait to the
/// request's terminal event, by mode and by calling thread (reorganizer or
/// client), attached as a txn.wait.<mode> span.
class LockWaitTracer {
 public:
  static constexpr int kModes = soreorg::kNumLockModes;

  /// Install on `lm`; the tracer must outlive the lock manager's use.
  void Install(soreorg::LockManager* lm);
  /// Waits on the calling thread count as the reorganizer's from now on.
  static void MarkReorgThread(bool on);

  struct Totals {
    uint64_t client_ns[kModes] = {};  // by mode
    uint64_t reorg_ns = 0;            // all modes
    uint64_t instant = 0;             // waits that ended in an instant grant
    Totals operator-(const Totals& o) const;
  };
  Totals totals() const;

 private:
  void OnEvent(soreorg::LockEvent e, soreorg::LockMode mode);

  std::atomic<uint64_t> wait_ns_[2][kModes] = {};
  std::atomic<uint64_t> instant_waits_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
