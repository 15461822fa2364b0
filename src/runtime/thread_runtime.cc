#include "runtime/thread_runtime.h"

#include <algorithm>
#include <utility>

namespace lazyrep::runtime {

namespace {

/// Executor lane running on this thread; `kNoMachine` on threads that
/// are not executors (the driver, test main, ...).
thread_local int tls_machine = Runtime::kNoMachine;

}  // namespace

ThreadRuntime::RootTask ThreadRuntime::RootPromise::get_return_object() {
  return RootTask{
      std::coroutine_handle<RootPromise>::from_promise(*this)};
}

ThreadRuntime::RootTask ThreadRuntime::MakeRoot(Co<void> co) {
  co_await std::move(co);
}

ThreadRuntime::ThreadRuntime(int num_machines, int workers_per_machine)
    : epoch_(std::chrono::steady_clock::now()),
      machines_(num_machines),
      workers_(workers_per_machine) {
  LAZYREP_CHECK_GT(num_machines, 0);
  LAZYREP_CHECK_GT(workers_per_machine, 0);
  int lanes = num_machines * workers_per_machine;
  execs_.reserve(static_cast<size_t>(lanes));
  for (int e = 0; e < lanes; ++e) {
    execs_.push_back(std::make_unique<Executor>());
  }
}

ThreadRuntime::~ThreadRuntime() { Shutdown(); }

SimTime ThreadRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int ThreadRuntime::CurrentMachine() const { return tls_machine; }

ThreadRuntime::Executor& ThreadRuntime::ExecutorFor(int machine) {
  LAZYREP_CHECK(machine >= 0 && machine < num_executors())
      << "executor lane " << machine << " out of range";
  return *execs_[static_cast<size_t>(machine)];
}

void ThreadRuntime::Enqueue(int machine, Work w, SimTime due) {
  Executor& ex = ExecutorFor(machine);
  if (tls_machine == machine) {
    // Own executor: the run loop is between drains (it only releases
    // `mu` while running this very work item), so push straight into
    // the run queues — no wakeup needed, the loop re-checks them before
    // it can sleep.
    std::lock_guard<std::mutex> lock(ex.mu);
    if (due < 0) {
      ex.ready.push_back(std::move(w));
    } else {
      ex.timers.push_back(Timer{due, ex.next_timer_seq++, std::move(w)});
      std::push_heap(ex.timers.begin(), ex.timers.end());
    }
    return;
  }
  // Remote producer: append to the inject queue. `ex.mu` is skipped on
  // this path — the run loop holds it almost continuously, while
  // `inject_mu` is only ever taken for quick appends and batch drains.
  {
    std::lock_guard<std::mutex> lock(ex.inject_mu);
    ex.inject.push_back(InjectedWork{std::move(w), due});
    ex.inject_size.store(ex.inject.size(), std::memory_order_release);
  }
  // Wakeup elision: if the loop is awake it will drain the queue on its
  // next iteration. If it published !awake, it re-checks the inject
  // queue (under inject_mu) before sleeping — our push above is visible
  // to that check, or else the check preceded the push, in which case
  // the `awake` store is visible here and we take the slow path. The
  // empty mu critical section cannot complete until the sleeper is
  // inside cv.wait (it holds mu until then), so the notify cannot be
  // lost.
  if (!ex.awake.load(std::memory_order_seq_cst)) {
    { std::lock_guard<std::mutex> lock(ex.mu); }
    ex.cv.notify_one();
  }
}

void ThreadRuntime::DrainInject(Executor& ex) {
  std::lock_guard<std::mutex> lock(ex.inject_mu);
  for (InjectedWork& iw : ex.inject) {
    if (iw.due < 0) {
      ex.ready.push_back(std::move(iw.work));
    } else {
      ex.timers.push_back(
          Timer{iw.due, ex.next_timer_seq++, std::move(iw.work)});
      std::push_heap(ex.timers.begin(), ex.timers.end());
    }
  }
  ex.inject.clear();
  ex.inject_size.store(0, std::memory_order_release);
}

void ThreadRuntime::SpawnOn(int machine, Co<void> co) {
  LAZYREP_CHECK(co.valid()) << "spawning an empty Co";
  RootTask task = MakeRoot(std::move(co));
  task.handle.promise().rt = this;
  {
    std::lock_guard<std::mutex> lock(roots_mu_);
    uint64_t id = next_root_id_++;
    task.handle.promise().id = id;
    roots_.emplace(id, task.handle);
  }
  if (tls_machine == machine) {
    // Same executor: start the process now, matching the simulator's
    // run-until-first-suspension Spawn semantics.
    sim::internal::BoundedResume(task.handle);
  } else {
    Enqueue(machine, Work{task.handle, nullptr}, /*due=*/-1);
  }
}

void ThreadRuntime::ScheduleHandleOn(int machine, Duration delay,
                                     std::coroutine_handle<> h) {
  LAZYREP_CHECK_GE(delay, 0);
  Enqueue(machine, Work{h, nullptr}, delay == 0 ? -1 : Now() + delay);
}

void ThreadRuntime::ScheduleHandleAtOn(int machine, SimTime when,
                                       std::coroutine_handle<> h) {
  // A past due time promotes on the run loop's next pass.
  Enqueue(machine, Work{h, nullptr}, when < 0 ? 0 : when);
}

void ThreadRuntime::ScheduleCallbackOn(int machine, Duration delay,
                                       std::function<void()> fn) {
  LAZYREP_CHECK_GE(delay, 0);
  Enqueue(machine, Work{nullptr, std::move(fn)},
          delay == 0 ? -1 : Now() + delay);
}

void ThreadRuntime::ScheduleCallbackAtOn(int machine, SimTime when,
                                         std::function<void()> fn) {
  // Always through the timer heap: callers rely on equal-machine work
  // running in nondecreasing `when` order (per-channel network FIFO),
  // which the (due, seq) heap provides even for past due times.
  Enqueue(machine, Work{nullptr, std::move(fn)}, when < 0 ? 0 : when);
}

void ThreadRuntime::Start() {
  LAZYREP_CHECK(!started_) << "ThreadRuntime started twice";
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  for (int e = 0; e < num_executors(); ++e) {
    execs_[static_cast<size_t>(e)]->thread =
        std::thread([this, e] { RunLoop(e); });
  }
}

void ThreadRuntime::RunLoop(int machine) {
  tls_machine = machine;
  Executor& ex = *execs_[static_cast<size_t>(machine)];
  std::unique_lock<std::mutex> lock(ex.mu);
  while (!ex.stop) {
    // Absorb cross-thread work in one batch (skipped lock-free when the
    // inject queue is empty).
    if (ex.inject_size.load(std::memory_order_acquire) != 0) {
      DrainInject(ex);
    }
    // Promote due timers to the ready queue in (due, seq) order.
    SimTime now = Now();
    while (!ex.timers.empty() && ex.timers.front().due <= now) {
      std::pop_heap(ex.timers.begin(), ex.timers.end());
      ex.ready.push_back(std::move(ex.timers.back().work));
      ex.timers.pop_back();
    }
    if (!ex.ready.empty()) {
      Work w = std::move(ex.ready.front());
      ex.ready.pop_front();
      lock.unlock();
      // Work runs unlocked; a resumed coroutine runs until its next
      // suspension point (non-preemptive, like the simulator).
      if (w.handle) {
        sim::internal::BoundedResume(w.handle);
      } else {
        w.fn();
      }
      lock.lock();
      continue;
    }
    // Sleep handshake with Enqueue's wakeup elision: publish !awake,
    // then re-check the inject queue under its lock — a producer whose
    // push preceded this check is seen here; one whose push followed it
    // observes !awake and takes the notify path, where the empty `mu`
    // critical section serializes it behind our entry into cv.wait.
    ex.awake.store(false, std::memory_order_seq_cst);
    bool injected;
    {
      std::lock_guard<std::mutex> inject_lock(ex.inject_mu);
      injected = !ex.inject.empty();
    }
    if (injected) {
      ex.awake.store(true, std::memory_order_seq_cst);
      continue;  // Drained at the top of the loop.
    }
    if (ex.timers.empty()) {
      ex.cv.wait(lock);
    } else {
      ex.cv.wait_until(
          lock, epoch_ + std::chrono::nanoseconds(ex.timers.front().due));
    }
    ex.awake.store(true, std::memory_order_seq_cst);
  }
  tls_machine = kNoMachine;
}

void ThreadRuntime::Shutdown() {
  for (auto& ex : execs_) {
    std::lock_guard<std::mutex> lock(ex->mu);
    ex->stop = true;
    ex->cv.notify_all();
  }
  for (auto& ex : execs_) {
    if (ex->thread.joinable()) ex->thread.join();
  }
  started_ = false;
  // With every executor joined this is single-threaded teardown. Discard
  // pending work first so no handle into a destroyed frame can ever be
  // resumed, then tear down unfinished process chains (each root frame
  // owns the Co objects of its children, so destruction cascades).
  for (auto& ex : execs_) {
    ex->ready.clear();
    ex->timers.clear();
    ex->inject.clear();
    ex->inject_size.store(0, std::memory_order_release);
  }
  std::unordered_map<uint64_t, std::coroutine_handle<RootPromise>> roots;
  {
    std::lock_guard<std::mutex> lock(roots_mu_);
    roots = std::move(roots_);
    roots_.clear();
  }
  for (auto& [id, handle] : roots) {
    handle.destroy();
  }
}

void ThreadRuntime::ReleaseRoot(uint64_t id) {
  std::lock_guard<std::mutex> lock(roots_mu_);
  roots_.erase(id);
}

void ThreadRuntime::Reset() {
  LAZYREP_CHECK(!started_) << "Reset on a running ThreadRuntime";
  {
    std::lock_guard<std::mutex> lock(roots_mu_);
    LAZYREP_CHECK(roots_.empty()) << "Reset with live processes";
  }
  epoch_ = std::chrono::steady_clock::now();
}

}  // namespace lazyrep::runtime
