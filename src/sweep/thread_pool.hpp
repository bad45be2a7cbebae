// Work-stealing thread pool for parameter campaigns.
//
// Simulations are CPU-bound and embarrassingly parallel — every sweep
// point is an independent `Simulator` with its own seed — so the pool is
// optimized for coarse tasks (milliseconds to seconds each), not
// micro-tasks: each worker owns a ring protected by a small mutex, pops
// from the front of its own ring, and steals from the front of a victim's
// ring (the oldest, coldest task) when it runs dry. External submits are
// distributed round-robin; submits from inside a worker go to that
// worker's own ring, so task trees stay mostly local.
//
// Tasks are `InlineFn`s — the same fixed-capacity inline closure as
// scheduler events — so a submitted task is a 48-byte ring slot, not a
// heap-held std::function: once each worker's ring has grown to its
// high-water mark, the submit/pop/steal cycle performs zero allocations.
// A task capturing more than kInlineFnCapacity bytes is a compile error;
// sweep tasks capture a handful of pointers (see parallel_for).
//
// The pool never touches simulation state: determinism is the caller's
// job (seed every task up front; write results into pre-sized slots).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/packet_ring.hpp"
#include "sim/event.hpp"

namespace pdos::sweep {

class ThreadPool {
 public:
  /// Spin up `threads` workers; `threads <= 0` means `default_threads()`.
  explicit ThreadPool(int threads = 0);

  /// Runs any still-queued tasks to completion, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task (any callable whose captures fit kInlineFnCapacity).
  /// Thread-safe; callable from worker threads (nested submits land on the
  /// submitting worker's own ring).
  void submit(InlineFn task);

  /// Block until every submitted task (including tasks submitted by other
  /// tasks) has finished. Must not be called from a worker thread.
  void wait_idle();

  /// max(1, std::thread::hardware_concurrency()).
  static int default_threads();

 private:
  // One ring per worker; all guarded by state_mutex_. Tasks are coarse
  // (whole simulations), so a single lock is cheaper than getting lock-free
  // deques right — the *stealing policy* is what matters for balance.
  struct Worker {
    Ring<InlineFn> tasks;
  };

  // Pop from own front, else steal the oldest task from a victim. Caller
  // holds state_mutex_.
  bool try_pop_locked(std::size_t self, InlineFn& task);
  void worker_loop(std::size_t index);

  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;

  std::mutex state_mutex_;
  std::condition_variable work_cv_;   // workers: new task or shutdown
  std::condition_variable idle_cv_;   // wait_idle: pending_ hit zero
  std::size_t pending_ = 0;           // submitted but not yet finished
  std::size_t queued_ = 0;            // submitted but not yet started
  std::size_t next_worker_ = 0;       // round-robin for external submits
  bool stopping_ = false;
};

/// Run `fn(i)` for i in [0, n) on `pool`, blocking until all complete.
/// Iterations must be independent; exceptions propagate out of the first
/// failing iteration (remaining iterations still run).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace pdos::sweep
