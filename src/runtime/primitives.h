#ifndef LAZYREP_RUNTIME_PRIMITIVES_H_
#define LAZYREP_RUNTIME_PRIMITIVES_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "runtime/runtime.h"

namespace lazyrep::runtime {

/// Synchronization primitives over the `Runtime` waist.
///
/// Concurrency contract (the lane-confinement rules; see also
/// DESIGN.md §"Worker model" and docs/PERFORMANCE.md §2):
///
/// * *Lane-confined*: `WaitQueue`, `Event`, and `Mailbox`. Every call on
///   one instance must come from the same executor lane (or from
///   anywhere under `kSim`, where one thread runs everything). The
///   system uses them only for per-site state that stays on the site's
///   home lane — mailboxes fed by network deliveries (which always land
///   on the destination site's home lane), vote events awaited by
///   home-pinned engines — so no locks are needed and the sim schedule
///   is untouched.
///
/// * *Cross-lane synchronized*: `OneShot`, `Resource`, and `WaitGroup`.
///   With `workers_per_machine > 1` a transaction may run on any lane
///   of its site's machine, so lock-grant cells are fired from one lane
///   and awaited on another, a machine's CPU `Resource` is consumed
///   from every lane of that machine, and `WaitGroup` fans in from
///   every machine. These three carry an internal mutex; under `kSim`
///   (and under single-worker threads) it is uncontended and the
///   wake-up sequence is identical to the unsynchronized form, so the
///   deterministic schedule is preserved.
///
/// Every wake-up is scheduled at delay 0 on the *waiter's* lane
/// (captured at suspension) rather than resumed inline, which keeps
/// notification non-reentrant and, under `kSim`, deterministic. The
/// synchronized primitives all use the same await_suspend-recheck
/// pattern: the predicate is re-tested under the mutex inside
/// `await_suspend`, so a notification racing the suspension can never
/// be lost (returning false there resumes the caller immediately).

/// FIFO wait list, the building block for condition-style waiting:
///
///   while (!predicate()) co_await queue.Wait();
class WaitQueue {
 public:
  explicit WaitQueue(Runtime* rt) : rt_(rt) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  auto Wait() {
    struct Awaiter {
      WaitQueue* q;
      bool await_ready() { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        q->waiters_.push_back({q->rt_->HomeMachine(), h});
      }
      void await_resume() {}
    };
    return Awaiter{this};
  }

  /// Wakes the longest-waiting process, if any.
  void NotifyOne() {
    if (waiters_.empty()) return;
    auto [machine, h] = waiters_.front();
    waiters_.pop_front();
    rt_->ScheduleHandleOn(machine, 0, h);
  }

  /// Wakes every currently-parked process.
  void NotifyAll() {
    while (!waiters_.empty()) NotifyOne();
  }

  size_t waiter_count() const { return waiters_.size(); }
  Runtime* runtime() const { return rt_; }

 private:
  Runtime* rt_;
  std::deque<std::pair<int, std::coroutine_handle<>>> waiters_;
};

/// One-shot broadcast event: once `Set`, all current and future waiters
/// proceed immediately.
class Event {
 public:
  explicit Event(Runtime* rt) : queue_(rt) {}

  bool is_set() const { return set_; }

  void Set() {
    if (set_) return;
    set_ = true;
    queue_.NotifyAll();
  }

  Co<void> Wait() {
    while (!set_) co_await queue_.Wait();
  }

 private:
  WaitQueue queue_;
  bool set_ = false;
};

/// Single-consumer one-shot result cell. The producer side calls
/// `TryFire(value)` (first call wins, later calls are ignored); the single
/// consumer awaits `Wait()`. Used for request/response interactions such
/// as lock grants racing a timeout timer.
///
/// Cross-lane synchronized: with multi-worker sites a lock grant is
/// fired from the releasing transaction's lane while the waiter parked
/// on another. Once fired the value is immutable, so `await_resume`
/// reads it without the mutex (the fire happens-before the scheduled
/// resumption).
template <typename T>
class OneShot {
 public:
  explicit OneShot(Runtime* rt) : rt_(rt) {}

  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  bool fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return value_.has_value();
  }

  /// Fires with `value` unless already fired. Returns true when this call
  /// won the race.
  bool TryFire(T value) {
    std::coroutine_handle<> waiter = nullptr;
    int waiter_machine = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (value_.has_value()) return false;
      value_.emplace(std::move(value));
      waiter = waiter_;
      waiter_machine = waiter_machine_;
      waiter_ = nullptr;
    }
    if (waiter) rt_->ScheduleHandleOn(waiter_machine, 0, waiter);
    return true;
  }

  auto Wait() {
    struct Awaiter {
      OneShot* cell;
      bool await_ready() {
        std::lock_guard<std::mutex> lock(cell->mu_);
        return cell->value_.has_value();
      }
      bool await_suspend(std::coroutine_handle<> h) {
        std::lock_guard<std::mutex> lock(cell->mu_);
        if (cell->value_.has_value()) return false;  // Fired in the gap.
        LAZYREP_CHECK(cell->waiter_ == nullptr)
            << "OneShot supports a single waiter";
        cell->waiter_machine_ = cell->rt_->HomeMachine();
        cell->waiter_ = h;
        return true;
      }
      T await_resume() { return std::move(*cell->value_); }
    };
    return Awaiter{this};
  }

 private:
  Runtime* rt_;
  mutable std::mutex mu_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_ = nullptr;
  int waiter_machine_ = 0;
};

/// Completion counter for fan-out/fan-in: `Add` before spawning children,
/// each child calls `Done`, the parent awaits `Wait` (coroutine) or
/// `WaitBlocking` (OS thread).
///
/// Unlike the other primitives this one is cross-machine — children on
/// every machine call `Done` — so it is internally synchronized. Under
/// `kSim` the mutex is uncontended and the wake-up sequence is identical
/// to a plain counter + wait queue: the last `Done` schedules each
/// waiter exactly once at delay 0.
class WaitGroup {
 public:
  explicit WaitGroup(Runtime* rt) : rt_(rt) {}

  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void Add(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += n;
  }

  void Done() {
    std::vector<std::pair<int, std::coroutine_handle<>>> to_wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      LAZYREP_CHECK_GT(pending_, 0);
      if (--pending_ > 0) return;
      to_wake.swap(waiters_);
    }
    cv_.notify_all();
    for (auto& [machine, h] : to_wake) rt_->ScheduleHandleOn(machine, 0, h);
  }

  /// Awaitable completion. The predicate is re-checked under the mutex in
  /// `await_suspend`, so a `Done` racing the suspension cannot be missed;
  /// returning false there resumes the caller without suspending.
  auto Wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() {
        std::lock_guard<std::mutex> lock(wg->mu_);
        return wg->pending_ == 0;
      }
      bool await_suspend(std::coroutine_handle<> h) {
        std::lock_guard<std::mutex> lock(wg->mu_);
        if (wg->pending_ == 0) return false;
        wg->waiters_.push_back({wg->rt_->HomeMachine(), h});
        return true;
      }
      void await_resume() {}
    };
    return Awaiter{this};
  }

  /// Blocks the calling OS thread until the count reaches zero or
  /// `timeout` (<= 0 means forever) elapses. Returns true on completion,
  /// false on timeout. Only meaningful under `kThreads` — under `kSim`
  /// the caller owns the event loop, so blocking it would deadlock.
  bool WaitBlocking(Duration timeout = 0) {
    LAZYREP_CHECK(rt_->concurrent())
        << "WaitBlocking would deadlock the sim event loop";
    std::unique_lock<std::mutex> lock(mu_);
    if (timeout <= 0) {
      cv_.wait(lock, [this] { return pending_ == 0; });
      return true;
    }
    return cv_.wait_for(lock, std::chrono::nanoseconds(timeout),
                        [this] { return pending_ == 0; });
  }

  int64_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }

 private:
  Runtime* rt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t pending_ = 0;
  std::vector<std::pair<int, std::coroutine_handle<>>> waiters_;
};

/// Unbounded FIFO message queue with a single logical consumer. Producers
/// `Send`; the consumer either awaits `Receive()` (pop) or awaits
/// `WaitNonEmpty()` and then inspects `Front()` — the latter is what the
/// DAG(T) applier needs to compare queue heads across parents before
/// popping the minimum.
///
/// Machine-confined: producers reach the owning site's machine via the
/// network (deliveries run on the destination machine), so `Send` and the
/// consumer always run on the same executor.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Runtime* rt) : nonempty_(rt) {}

  void Send(T msg) {
    items_.push_back(std::move(msg));
    ++total_sent_;
    nonempty_.NotifyAll();
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

  const T& Front() const {
    LAZYREP_CHECK(!items_.empty());
    return items_.front();
  }

  T Pop() {
    LAZYREP_CHECK(!items_.empty());
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Resumes when the mailbox has at least one message (immediately if it
  /// already does).
  Co<void> WaitNonEmpty() {
    while (items_.empty()) co_await nonempty_.Wait();
  }

  /// Pops the head, waiting for one to arrive if necessary.
  Co<T> Receive() {
    while (items_.empty()) co_await nonempty_.Wait();
    co_return Pop();
  }

  /// Notification hook for multi-queue consumers.
  WaitQueue& nonempty_queue() { return nonempty_; }

  /// Read-only view of the queued messages (quiescence inspection).
  const std::deque<T>& items() const { return items_; }

  uint64_t total_sent() const { return total_sent_; }

 private:
  WaitQueue nonempty_;
  std::deque<T> items_;
  uint64_t total_sent_ = 0;
};

/// Non-preemptive FCFS server with integer capacity — models a machine
/// CPU shared by the co-located database instances (the paper ran 3 sites
/// per UltraSparc). Work is charged in small chunks, which approximates
/// processor sharing closely at the op granularity used here.
///
/// Cross-lane synchronized: with multi-worker sites, every lane of a
/// machine charges that machine's CPU. Under `kThreads` a charge is a
/// timer sleep while holding a unit — charges on different machines
/// (and, with `workers_per_machine > 1`, on different lanes) overlap in
/// real time, which is exactly the parallelism the thread backend
/// exists to measure.
///
/// Work-conserving hand-off: a unit handed straight to a waiter carries
/// the releaser's due instant, and the waiter's charge starts there, not
/// when its executor gets around to resuming it. A busy unit therefore
/// runs its charges back to back, as the cost model's FCFS server does,
/// instead of idling for timer slack and wake-up latency between them.
/// Catch-up is bounded: a charge ends at `max(start + d, now)`, so it
/// absorbs at most its own duration of lateness and a host stall never
/// turns into a burst of zero-length charges. A unit taken while idle
/// starts at `Now()`. Under `kSim` the hand-off instant always equals
/// `Now()`, so the schedule is that of a plain acquire-delay-release.
class Resource {
 public:
  explicit Resource(Runtime* rt, int capacity = 1)
      : rt_(rt), available_(capacity), capacity_(capacity) {
    LAZYREP_CHECK_GT(capacity, 0);
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Acquires one unit (FIFO) and yields the instant the holder's work
  /// starts: `Now()` for an idle unit, the releaser's hand-off instant
  /// for a transferred one. The availability check is re-run under the
  /// mutex in `await_suspend`, so a `Release` racing the suspension
  /// cannot strand the waiter.
  auto Acquire() {
    struct Awaiter {
      Resource* r;
      SimTime start = -1;  // Written by Release on a hand-off.
      bool await_ready() {
        std::lock_guard<std::mutex> lock(r->mu_);
        if (r->available_ > 0) {
          --r->available_;
          return true;
        }
        return false;
      }
      bool await_suspend(std::coroutine_handle<> h) {
        std::lock_guard<std::mutex> lock(r->mu_);
        if (r->available_ > 0) {  // Released in the gap.
          --r->available_;
          return false;
        }
        r->waiters_.push_back({r->rt_->HomeMachine(), h, &start});
        return true;
      }
      SimTime await_resume() { return start >= 0 ? start : r->rt_->Now(); }
    };
    return Awaiter{this};
  }

  /// Releases one unit; hands it directly to the next waiter if any,
  /// whose work then starts at `handoff` (the instant this holder's work
  /// was due to end).
  void Release(SimTime handoff) {
    Waiter w;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (waiters_.empty()) {
        ++available_;
        LAZYREP_CHECK_LE(available_, capacity_);
        return;
      }
      w = waiters_.front();
      waiters_.pop_front();
      *w.start = handoff;
    }
    rt_->ScheduleHandleOn(w.machine, 0, w.handle);
  }
  void Release() { Release(rt_->Now()); }

  /// Occupies one unit for `d` of runtime time (acquire, delay, release)
  /// and returns the instant the charge ended. This is how CPU work is
  /// charged.
  Co<SimTime> Consume(Duration d) {
    SimTime start = co_await Acquire();
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_time_ += d;
    }
    SimTime due = std::max(start + d, rt_->Now());
    co_await rt_->DelayUntil(due);
    Release(due);
    co_return due;
  }

  int available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return available_;
  }
  size_t queue_length() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiters_.size();
  }

  /// Total busy time accumulated (for utilization reporting).
  Duration busy_time() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_time_;
  }

 private:
  struct Waiter {
    int machine = 0;
    std::coroutine_handle<> handle;
    SimTime* start = nullptr;  // The parked awaiter's start slot.
  };

  Runtime* rt_;
  mutable std::mutex mu_;
  int available_;
  int capacity_;
  Duration busy_time_ = 0;
  std::deque<Waiter> waiters_;
};

}  // namespace lazyrep::runtime

#endif  // LAZYREP_RUNTIME_PRIMITIVES_H_
