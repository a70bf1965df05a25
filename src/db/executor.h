// Executor: the serving layer's thread-per-core request engine.
//
// One worker thread per core (or per configured lane), each consuming its own
// *bounded* MPSC request queue. Producers are the serving-layer entry points
// (PartitionedDatabase routes ops to the worker owning the target partition);
// the bound is the system's admission control — when a worker falls behind,
// requests wait for a slot up to their deadline and then fail with TimedOut
// instead of queueing unboundedly and amplifying the backlog.
//
// Deadline semantics (start deadlines):
//   * A request's deadline bounds time-to-start, i.e. queue wait — both the
//     wait for a free slot when the queue is full and the wait in the queue
//     for the worker. Once a task starts executing it runs to completion.
//   * deadline_ms <= 0 means "no deadline" (wait indefinitely, but still
//     bounded in *space* by the queue capacity — a producer blocks rather
//     than growing the queue).
//
// Shutdown protocol: Shutdown() marks the executor draining, wakes every
// producer and worker, and joins the workers. A draining worker completes
// every queued-but-unstarted request with Aborted — requests are never
// dropped silently; every Submit()'s completion is invoked exactly once with
// OK/op status, TimedOut, or Aborted. The currently-executing task (if any)
// runs to completion.
//
// Inline fast path: a synchronous Execute() finding its lane completely
// idle — empty queue AND no op in flight — runs the task on the *calling*
// thread instead of paying the wake/sleep handoff (two context switches per
// op on a loaded single core). The lane's `busy`
// flag keeps lane exclusivity: at most one op per lane executes at any
// instant, inline or on the worker, so per-lane serialization is unchanged —
// only the executing thread differs. The moment there is any backlog the op
// takes the queue like everyone else, which is exactly when the deadline
// machinery matters. Submit() (asynchronous) always queues.

#ifndef SOREORG_DB_EXECUTOR_H_
#define SOREORG_DB_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/status.h"

namespace soreorg {

struct ExecutorOptions {
  /// Worker (lane) count; 0 = auto: one per hardware thread, at least 1.
  int workers = 0;
  /// Per-worker queue bound. Producers finding the queue full wait for a
  /// slot up to the op deadline, then fail TimedOut.
  size_t queue_capacity = 1024;
};

struct ExecutorStats {
  uint64_t submitted = 0;
  uint64_t executed = 0;
  /// Never admitted: the queue stayed full until the op's deadline.
  uint64_t timed_out_queue_full = 0;
  /// Admitted but still queued at its deadline; failed without running.
  uint64_t timed_out_unstarted = 0;
  /// Queued-but-unstarted ops failed with Aborted by the shutdown drain.
  uint64_t aborted_at_shutdown = 0;
  /// High-water mark of any single worker queue.
  uint64_t max_queue_depth = 0;
};

class Executor {
 public:
  using Task = std::function<Status()>;
  using Completion = std::function<void(Status)>;

  explicit Executor(ExecutorOptions options);
  ~Executor();

  int workers() const { return static_cast<int>(lanes_.size()); }

  /// Asynchronous submission to worker `worker` (mod worker count). `done`
  /// is invoked exactly once — with the task's status from the worker
  /// thread, or with TimedOut/Aborted (possibly from the submitting thread
  /// when admission fails).
  void Submit(int worker, Task task, Completion done, int64_t deadline_ms = 0);

  /// Synchronous execution: inline on the calling thread when the lane is
  /// idle, otherwise Submit + wait for the completion. Templated so the
  /// inline fast path calls the functor directly — no std::function is
  /// materialized unless the op queues.
  template <typename F>
  Status Execute(int worker, F&& task, int64_t deadline_ms = 0) {
    Lane* lane = lanes_[static_cast<size_t>(worker) % lanes_.size()].get();
    if (TryClaimIdleLane(lane)) {
      submitted_.fetch_add(1, std::memory_order_relaxed);
      executed_.fetch_add(1, std::memory_order_relaxed);
      Status s = task();
      ReleaseInlineLane(lane);
      return s;
    }
    return ExecuteQueued(worker, Task(std::forward<F>(task)), deadline_ms);
  }

  /// Drain and join. Queued-but-unstarted ops fail with Aborted. Idempotent.
  void Shutdown();

  bool shutting_down() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  ExecutorStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Op {
    Task task;
    Completion done;
    Clock::time_point deadline;
    bool has_deadline = false;
  };

  struct Lane {
    std::mutex mu;
    std::condition_variable nonempty;
    std::condition_variable nonfull;
    std::deque<Op> queue;
    std::thread thread;
    uint64_t max_depth = 0;  // under mu
    /// An op is executing on this lane right now — on the worker or inline
    /// on a caller (under mu). Lane exclusivity: the worker and inline
    /// callers both acquire it before running a task.
    bool busy = false;
  };


  void WorkerMain(Lane* lane);
  /// The absolute deadline for a per-call deadline_ms; false if none.
  static bool ResolveDeadline(int64_t deadline_ms, Clock::time_point* out);

  /// Claim the lane for inline execution iff it is completely idle: empty
  /// queue, no op in flight, not shutting down.
  bool TryClaimIdleLane(Lane* lane) {
    std::lock_guard<std::mutex> lk(lane->mu);
    if (shutdown_.load(std::memory_order_acquire) || !lane->queue.empty() ||
        lane->busy) {
      return false;
    }
    lane->busy = true;
    return true;
  }

  /// Release an inline claim; ops that queued behind it wait on
  /// (!empty && !busy), so the busy drop is their wake edge.
  void ReleaseInlineLane(Lane* lane) {
    bool wake_worker;
    {
      std::lock_guard<std::mutex> lk(lane->mu);
      lane->busy = false;
      wake_worker = !lane->queue.empty();
    }
    if (wake_worker) lane->nonempty.notify_one();
  }

  /// The queued half of Execute (admission, deadline, completion wait).
  Status ExecuteQueued(int worker, Task task, int64_t deadline_ms);

  ExecutorOptions options_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_join_mu_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> timed_out_queue_full_{0};
  std::atomic<uint64_t> timed_out_unstarted_{0};
  std::atomic<uint64_t> aborted_at_shutdown_{0};
};

}  // namespace soreorg

#endif  // SOREORG_DB_EXECUTOR_H_
