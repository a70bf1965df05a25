// Executor: bounded MPSC admission, start-deadlines surfacing TimedOut, and
// the shutdown drain that fails queued-but-unstarted ops with Aborted.
//
// The deterministic lever in every test is a gate task: worker 0 parks on a
// condition variable we control, so "queued behind a busy worker" is a state
// the test constructs exactly, not a race it hopes for.

#include "src/db/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace soreorg {
namespace {

/// A task the test can park the worker on, and release at will.
class Gate {
 public:
  Executor::Task BlockingTask() {
    return [this]() {
      std::unique_lock<std::mutex> lk(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this]() { return released_; });
      return Status::OK();
    };
  }

  void AwaitEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this]() { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(ExecutorTest, RunsTasksAndReturnsTheirStatus) {
  ExecutorOptions opts;
  opts.workers = 2;
  Executor ex(opts);
  EXPECT_EQ(2, ex.workers());

  EXPECT_TRUE(ex.Execute(0, []() { return Status::OK(); }).ok());
  Status s = ex.Execute(1, []() { return Status::NotFound("gone"); });
  EXPECT_TRUE(s.IsNotFound());

  ExecutorStats st = ex.stats();
  EXPECT_EQ(2u, st.submitted);
  EXPECT_EQ(2u, st.executed);
}

// Submit always queues, so every task sent to lane 0 runs on its worker.
TEST(ExecutorTest, SameWorkerIsOneThread) {
  ExecutorOptions opts;
  opts.workers = 2;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread::id> tids;
  Executor ex(opts);
  for (int i = 0; i < 8; ++i) {
    ex.Submit(
        0,
        [&]() {
          std::lock_guard<std::mutex> lk(mu);
          tids.push_back(std::this_thread::get_id());
          return Status::OK();
        },
        [&](Status s) {
          EXPECT_TRUE(s.ok());
          cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&]() { return tids.size() == 8; });
  }
  ex.Shutdown();  // the last completion is done with cv
  for (const std::thread::id& tid : tids) {
    EXPECT_NE(std::this_thread::get_id(), tid);
    EXPECT_EQ(tids.front(), tid) << "worker 0 must be a single pinned thread";
  }
}

// The inline fast path: an idle lane runs Execute() on the calling thread;
// any backlog (an op in flight on the lane) sends it through the worker.
// Lane exclusivity holds either way.
TEST(ExecutorTest, InlineWhenIdleRunsOnCallerUntilLaneIsBusy) {
  ExecutorOptions opts;
  opts.workers = 1;
  Executor ex(opts);

  // Idle lane: the task runs right here.
  std::thread::id inline_tid;
  ASSERT_TRUE(ex.Execute(0, [&inline_tid]() {
                  inline_tid = std::this_thread::get_id();
                  return Status::OK();
                }).ok());
  EXPECT_EQ(std::this_thread::get_id(), inline_tid);
  EXPECT_EQ(1u, ex.stats().submitted);
  EXPECT_EQ(1u, ex.stats().executed);

  // Busy lane (gate op in flight): Execute must take the queue and run on
  // the worker thread, strictly after the in-flight op finishes.
  Gate gate;
  std::thread::id worker_tid;
  ex.Submit(0, [&gate, &worker_tid]() {
    worker_tid = std::this_thread::get_id();
    return gate.BlockingTask()();
  }, [](Status) {});
  gate.AwaitEntered();

  std::atomic<bool> done{false};
  std::thread::id queued_tid;
  std::thread caller([&]() {
    ASSERT_TRUE(ex.Execute(0, [&queued_tid]() {
                    queued_tid = std::this_thread::get_id();
                    return Status::OK();
                  }).ok());
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load()) << "op must wait behind the in-flight gate";
  gate.Release();
  caller.join();
  EXPECT_EQ(worker_tid, queued_tid)
      << "backlogged ops run on the pinned worker, not inline";
  ex.Shutdown();
}

// Acceptance pin: a saturated bounded queue + a deadline returns TimedOut —
// the request neither queues unboundedly nor hangs.
TEST(ExecutorTest, SaturatedQueueDeadlineReturnsTimedOut) {
  ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  Executor ex(opts);

  Gate gate;
  std::atomic<int> done_count{0};
  ex.Submit(0, gate.BlockingTask(),
            [&](Status s) { (void)s; done_count.fetch_add(1); });
  gate.AwaitEntered();  // worker parked; queue now empty
  for (int i = 0; i < 2; ++i) {  // fill the queue to its bound
    ex.Submit(0, []() { return Status::OK(); },
              [&](Status s) { (void)s; done_count.fetch_add(1); });
  }

  auto t0 = std::chrono::steady_clock::now();
  Status s = ex.Execute(0, []() { return Status::OK(); },
                        /*deadline_ms=*/50);
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(waited.count(), 40);
  EXPECT_LT(waited.count(), 5000) << "deadline must not hang";
  EXPECT_EQ(1u, ex.stats().timed_out_queue_full);

  gate.Release();
  ex.Shutdown();
  EXPECT_EQ(3, done_count.load());  // gate + the two fillers all completed
}

// An admitted op whose deadline expires while still queued fails TimedOut
// without its task ever running.
TEST(ExecutorTest, AdmittedOpExpiredInQueueDoesNotRun) {
  ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 8;
  Executor ex(opts);

  Gate gate;
  ex.Submit(0, gate.BlockingTask(), [](Status) {});
  gate.AwaitEntered();

  std::atomic<bool> ran{false};
  std::atomic<bool> completed{false};
  Status result;
  ex.Submit(
      0,
      [&ran]() {
        ran.store(true);
        return Status::OK();
      },
      [&](Status s) {
        result = std::move(s);
        completed.store(true);
      },
      /*deadline_ms=*/30);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Release();
  while (!completed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(result.IsTimedOut()) << result.ToString();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(1u, ex.stats().timed_out_unstarted);
  ex.Shutdown();
}

// Satellite pin: the shutdown drain fails every queued-but-unstarted op with
// Aborted — completions fire for all of them, nothing is dropped silently.
TEST(ExecutorTest, ShutdownAbortsQueuedUnstartedOps) {
  ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 16;
  Executor ex(opts);

  Gate gate;
  std::atomic<bool> gate_completed{false};
  Status gate_status = Status::Corruption("completion never ran");
  ex.Submit(0, gate.BlockingTask(), [&](Status s) {
    gate_status = std::move(s);
    gate_completed.store(true);
  });
  gate.AwaitEntered();

  constexpr int kQueued = 5;
  std::atomic<int> aborted{0}, other{0};
  std::atomic<bool> any_ran{false};
  for (int i = 0; i < kQueued; ++i) {
    ex.Submit(
        0,
        [&any_ran]() {
          any_ran.store(true);
          return Status::OK();
        },
        [&](Status s) {
          if (s.IsAborted()) {
            aborted.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        });
  }

  // Begin the shutdown from a helper thread (Shutdown joins, and the worker
  // is still parked on the gate); release the gate only after the drain flag
  // is visibly set, so the queued ops are deterministically unstarted at
  // shutdown time.
  std::thread closer([&ex]() { ex.Shutdown(); });
  while (!ex.shutting_down()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Release();
  closer.join();

  EXPECT_TRUE(gate_completed.load());
  EXPECT_TRUE(gate_status.ok()) << "in-flight task runs to completion";
  EXPECT_EQ(kQueued, aborted.load());
  EXPECT_EQ(0, other.load());
  EXPECT_FALSE(any_ran.load());
  EXPECT_EQ(static_cast<uint64_t>(kQueued),
            ex.stats().aborted_at_shutdown);
}

TEST(ExecutorTest, SubmitAfterShutdownFailsAborted) {
  ExecutorOptions opts;
  opts.workers = 1;
  Executor ex(opts);
  ex.Shutdown();
  Status s = ex.Execute(0, []() { return Status::OK(); });
  EXPECT_TRUE(s.IsAborted());
}

// With no deadline a producer blocked on a full queue is backpressure, not
// failure: it completes once the worker drains.
TEST(ExecutorTest, NoDeadlineBlocksUntilSpaceThenSucceeds) {
  ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  Executor ex(opts);

  Gate gate;
  ex.Submit(0, gate.BlockingTask(), [](Status) {});
  gate.AwaitEntered();
  ex.Submit(0, []() { return Status::OK(); }, [](Status) {});  // fills slot

  std::atomic<bool> admitted_done{false};
  std::thread producer([&]() {
    Status s = ex.Execute(0, []() { return Status::OK(); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    admitted_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(admitted_done.load()) << "producer must be blocked, not failed";
  gate.Release();
  producer.join();
  EXPECT_TRUE(admitted_done.load());
  ex.Shutdown();
  EXPECT_EQ(0u, ex.stats().timed_out_queue_full);
}

// Concurrent producers under churn: every submission's completion fires
// exactly once, with OK or Aborted only (smoke for the MPSC path; runs under
// TSan in the tsan preset).
TEST(ExecutorTest, ConcurrentProducersEveryCompletionFires) {
  ExecutorOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 4;
  Executor ex(opts);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> completions{0};
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        ex.Submit(
            t + i,
            [&executed]() {
              executed.fetch_add(1);
              return Status::OK();
            },
            [&completions](Status s) {
              ASSERT_TRUE(s.ok() || s.IsAborted()) << s.ToString();
              completions.fetch_add(1);
            });
      }
    });
  }
  for (auto& p : producers) p.join();
  ex.Shutdown();
  EXPECT_EQ(kThreads * kOpsPerThread, completions.load());
  ExecutorStats st = ex.stats();
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kOpsPerThread), st.submitted);
  EXPECT_EQ(st.submitted, st.executed + st.aborted_at_shutdown);
  EXPECT_LE(st.max_queue_depth, 4u);
}

}  // namespace
}  // namespace soreorg
