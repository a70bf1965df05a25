#include "src/db/executor.h"

#include <algorithm>

namespace soreorg {

Executor::Executor(ExecutorOptions options) : options_(options) {
  int n = options_.workers;
  if (n <= 0) {
    unsigned hc = std::thread::hardware_concurrency();
    n = hc == 0 ? 1 : static_cast<int>(hc);
  }
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  lanes_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (auto& lane : lanes_) {
    Lane* l = lane.get();
    l->thread = std::thread([this, l]() { WorkerMain(l); });
  }
}

Executor::~Executor() { Shutdown(); }

bool Executor::ResolveDeadline(int64_t deadline_ms, Clock::time_point* out) {
  if (deadline_ms <= 0) return false;
  *out = Clock::now() + std::chrono::milliseconds(deadline_ms);
  return true;
}

void Executor::Submit(int worker, Task task, Completion done,
                      int64_t deadline_ms) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Op op;
  op.task = std::move(task);
  op.done = std::move(done);
  op.has_deadline = ResolveDeadline(deadline_ms, &op.deadline);

  size_t idx = static_cast<size_t>(worker) % lanes_.size();
  Lane* lane = lanes_[idx].get();
  bool was_empty;
  {
    std::unique_lock<std::mutex> lk(lane->mu);
    // Admission: wait for a slot, but never queue unboundedly. A deadline
    // turns slot starvation into TimedOut; without one the producer blocks
    // (backpressure) until the worker drains or shutdown begins.
    while (lane->queue.size() >= options_.queue_capacity &&
           !shutdown_.load(std::memory_order_acquire)) {
      if (op.has_deadline) {
        if (lane->nonfull.wait_until(lk, op.deadline) ==
            std::cv_status::timeout) {
          if (lane->queue.size() < options_.queue_capacity ||
              shutdown_.load(std::memory_order_acquire)) {
            break;  // slot freed (or drain took over) at the last instant
          }
          lk.unlock();
          timed_out_queue_full_.fetch_add(1, std::memory_order_relaxed);
          op.done(Status::TimedOut("request queue full past deadline"));
          return;
        }
      } else {
        lane->nonfull.wait(lk);
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      lk.unlock();
      aborted_at_shutdown_.fetch_add(1, std::memory_order_relaxed);
      op.done(Status::Aborted("executor shutting down"));
      return;
    }
    // Single consumer per lane: the worker only blocks when the queue is
    // empty, so a push onto a nonempty queue has no sleeper to wake — the
    // empty->nonempty transition carries the (futex-priced) notify and a
    // burst of submissions pays for one wakeup, not one per op.
    was_empty = lane->queue.empty();
    lane->queue.push_back(std::move(op));
    lane->max_depth = std::max(lane->max_depth,
                               static_cast<uint64_t>(lane->queue.size()));
  }
  if (was_empty) lane->nonempty.notify_one();
}

Status Executor::ExecuteQueued(int worker, Task task, int64_t deadline_ms) {
  struct WaitState {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    Status status;
  } wait;
  Submit(
      worker, std::move(task),
      [&wait](Status s) {
        std::lock_guard<std::mutex> lk(wait.mu);
        wait.status = std::move(s);
        wait.ready = true;
        wait.cv.notify_one();
      },
      deadline_ms);
  std::unique_lock<std::mutex> lk(wait.mu);
  wait.cv.wait(lk, [&wait]() { return wait.ready; });
  return wait.status;
}

void Executor::WorkerMain(Lane* lane) {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lk(lane->mu);
      // Lane exclusivity: wait out any inline caller (busy) as well as an
      // empty queue.
      lane->nonempty.wait(lk, [this, lane]() {
        return (!lane->queue.empty() && !lane->busy) ||
               shutdown_.load(std::memory_order_acquire);
      });
      if (shutdown_.load(std::memory_order_acquire)) {
        // Drain: every queued-but-unstarted op fails with Aborted — the
        // completion always fires, nothing is dropped silently.
        std::deque<Op> rest;
        rest.swap(lane->queue);
        lk.unlock();
        lane->nonfull.notify_all();
        for (Op& o : rest) {
          aborted_at_shutdown_.fetch_add(1, std::memory_order_relaxed);
          o.done(Status::Aborted("executor shutting down"));
        }
        return;
      }
      op = std::move(lane->queue.front());
      lane->queue.pop_front();
      // Hold the lane while the op runs so no inline caller overlaps it.
      lane->busy = true;
    }
    lane->nonfull.notify_one();

    if (op.has_deadline && Clock::now() > op.deadline) {
      timed_out_unstarted_.fetch_add(1, std::memory_order_relaxed);
      op.done(Status::TimedOut("queued past deadline"));
    } else {
      executed_.fetch_add(1, std::memory_order_relaxed);
      op.done(op.task());
    }
    {
      std::lock_guard<std::mutex> lk(lane->mu);
      lane->busy = false;
    }
  }
}

void Executor::Shutdown() {
  // Serializes concurrent Shutdown() callers (join must run once).
  std::lock_guard<std::mutex> join_guard(shutdown_join_mu_);
  if (!shutdown_.exchange(true, std::memory_order_acq_rel)) {
    for (auto& lane : lanes_) {
      // Taking the lane mutex orders the flag store against sleeping
      // producers/workers: anyone already inside a wait reloads the flag on
      // wake, anyone arriving later sees it before sleeping.
      { std::lock_guard<std::mutex> lk(lane->mu); }
      lane->nonempty.notify_all();
      lane->nonfull.notify_all();
    }
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.timed_out_queue_full =
      timed_out_queue_full_.load(std::memory_order_relaxed);
  s.timed_out_unstarted =
      timed_out_unstarted_.load(std::memory_order_relaxed);
  s.aborted_at_shutdown =
      aborted_at_shutdown_.load(std::memory_order_relaxed);
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lk(lane->mu);
    s.max_queue_depth = std::max(s.max_queue_depth, lane->max_depth);
  }
  return s;
}

}  // namespace soreorg
