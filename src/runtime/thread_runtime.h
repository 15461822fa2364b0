#ifndef LAZYREP_RUNTIME_THREAD_RUNTIME_H_
#define LAZYREP_RUNTIME_THREAD_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/runtime.h"

namespace lazyrep::runtime {

/// `Runtime` backend over real OS threads and the steady clock.
///
/// Each machine gets `workers_per_machine` executor lanes: an OS thread
/// draining a FIFO ready queue plus a (due, seq) min-heap of timers,
/// with an MPSC inject queue for cross-lane producers. There is no work
/// stealing — a coroutine suspended on lane e always resumes on lane
/// e's thread. With one worker per machine (the default) lanes coincide
/// with machines, which is what lets per-site state (engines,
/// databases, mailboxes) stay lock-free: it is only ever touched from
/// its machine's thread. With more workers, a site's transactions may
/// run on any lane of its machine and per-site state must follow the
/// concurrency contract in runtime/primitives.h (per-site mutex or
/// atomic, with home-lane hops for order-sensitive sections).
/// Cross-lane interaction happens exclusively through
/// `ScheduleHandleOn`/`ScheduleCallback*On` (the `machine` parameter is
/// an executor-lane index) and the internally synchronized primitives.
///
/// Time is `std::chrono::steady_clock` nanoseconds since `Start()`;
/// `Delay` and timer callbacks are real sleeps. Nothing here is
/// deterministic — runs measure, they do not simulate.
class ThreadRuntime final : public Runtime {
 public:
  explicit ThreadRuntime(int num_machines, int workers_per_machine = 1);
  ~ThreadRuntime() override;

  RuntimeKind kind() const override { return RuntimeKind::kThreads; }
  SimTime Now() const override;
  int num_machines() const override { return machines_; }
  int workers_per_machine() const override { return workers_; }
  int num_executors() const override {
    return static_cast<int>(execs_.size());
  }
  int CurrentMachine() const override;

  void SpawnOn(int machine, Co<void> co) override;
  void ScheduleHandleOn(int machine, Duration delay,
                        std::coroutine_handle<> h) override;
  void ScheduleHandleAtOn(int machine, SimTime when,
                          std::coroutine_handle<> h) override;
  void ScheduleCallbackOn(int machine, Duration delay,
                          std::function<void()> fn) override;
  void ScheduleCallbackAtOn(int machine, SimTime when,
                            std::function<void()> fn) override;

  /// Re-arms the clock epoch and launches one thread per machine. Work
  /// enqueued before `Start` begins running once the threads are up.
  void Start() override;

  /// Stops and joins the executor threads, discards pending work, and
  /// destroys every unfinished process frame. Idempotent. A shut-down
  /// ThreadRuntime cannot be restarted.
  void Shutdown() override;

  /// Re-arms the clock epoch. Requires `Shutdown()` first (no live
  /// processes, threads joined).
  void Reset() override;

 private:
  struct RootTask;
  struct RootPromise {
    ThreadRuntime* rt = nullptr;
    uint64_t id = 0;

    RootTask get_return_object();
    std::suspend_always initial_suspend() noexcept { return {}; }
    auto final_suspend() noexcept {
      struct Awaiter {
        bool await_ready() noexcept { return false; }
        void await_suspend(
            std::coroutine_handle<RootPromise> h) noexcept {
          RootPromise& p = h.promise();
          p.rt->ReleaseRoot(p.id);
          h.destroy();
        }
        void await_resume() noexcept {}
      };
      return Awaiter{};
    }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  struct RootTask {
    using promise_type = RootPromise;
    std::coroutine_handle<RootPromise> handle;
  };

  /// One unit of executor work: a coroutine resumption or a callback.
  struct Work {
    std::coroutine_handle<> handle;
    std::function<void()> fn;
  };

  struct Timer {
    SimTime due;
    uint64_t seq;  // FIFO tie-break at equal due time.
    Work work;

    /// Max-heap comparator inverted for a min-heap on (due, seq).
    friend bool operator<(const Timer& a, const Timer& b) {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  /// Cross-thread work awaiting transfer into the run queues.
  struct InjectedWork {
    Work work;
    SimTime due;
  };

  struct Executor {
    /// Run-loop state (ready/timers/stop): owned by the executor
    /// thread, which holds `mu` except while running a work item.
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Work> ready;
    std::vector<Timer> timers;  // Heap on (due, seq).
    uint64_t next_timer_seq = 0;
    bool stop = false;
    /// MPSC inject queue: remote producers append under `inject_mu`
    /// (never held while the run loop executes work, so cross-machine
    /// posts stop contending with the run-loop mutex) and the run loop
    /// drains it in batches. `inject_size` lets the loop skip the lock
    /// when the queue is empty; `awake` lets producers skip the
    /// condition-variable notify while the loop is known to be running
    /// (see Enqueue/RunLoop for the sleep handshake).
    std::mutex inject_mu;
    std::vector<InjectedWork> inject;
    std::atomic<size_t> inject_size{0};
    std::atomic<bool> awake{true};
    std::thread thread;
  };

  RootTask MakeRoot(Co<void> co);
  void ReleaseRoot(uint64_t id);
  void RunLoop(int machine);
  Executor& ExecutorFor(int machine);
  /// Moves every injected item into the ready queue / timer heap.
  /// Called by the run loop with `ex.mu` held.
  void DrainInject(Executor& ex);
  /// `due < 0` means "run as soon as possible" (ready queue, FIFO);
  /// otherwise the work goes through the timer heap at absolute `due`.
  void Enqueue(int machine, Work w, SimTime due);

  std::chrono::steady_clock::time_point epoch_;
  int machines_ = 0;
  int workers_ = 1;
  std::vector<std::unique_ptr<Executor>> execs_;  // machines_ * workers_.
  bool started_ = false;

  std::mutex roots_mu_;
  uint64_t next_root_id_ = 0;
  std::unordered_map<uint64_t, std::coroutine_handle<RootPromise>> roots_;
};

}  // namespace lazyrep::runtime

#endif  // LAZYREP_RUNTIME_THREAD_RUNTIME_H_
