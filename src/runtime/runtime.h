#ifndef LAZYREP_RUNTIME_RUNTIME_H_
#define LAZYREP_RUNTIME_RUNTIME_H_

#include <coroutine>
#include <functional>
#include <string>

#include "common/check.h"
#include "common/sim_time.h"
#include "sim/co.h"

namespace lazyrep::runtime {

/// The coroutine task type is runtime-neutral; both backends drive the
/// same lazy `sim::Co` frames.
template <typename T>
using Co = sim::Co<T>;

/// Which executor backs a `Runtime`.
enum class RuntimeKind {
  /// Single-threaded discrete-event simulation over virtual time.
  /// Fully deterministic: same seed, same schedule, same metrics.
  kSim,
  /// One OS thread per machine over real (steady_clock) time. Metrics
  /// are measured, not simulated, and vary run to run.
  kThreads,
};

inline const char* RuntimeKindName(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:
      return "sim";
    case RuntimeKind::kThreads:
      return "threads";
  }
  return "?";
}

/// The hourglass waist between protocol logic and an executor.
///
/// Engines, the network, and the storage layer use exactly five
/// capabilities: a clock (`Now`), process launch (`Spawn`/`SpawnOn`),
/// awaitable sleep (`Delay`/`DelayUntil`), timer callbacks
/// (`ScheduleCallback*`), and — via the primitives in
/// runtime/primitives.h — CPU-charge/resource acquisition. Everything
/// above this interface must stay backend-agnostic; everything below is
/// one of two backends:
///
/// * `SimRuntime` — a thin adapter over `sim::Simulator`. All machine
///   arguments are ignored (one thread interleaves everything), which
///   keeps the schedule bit-for-bit identical to the pre-runtime code.
/// * `ThreadRuntime` — one OS thread + run queue + timer heap per
///   machine. Machine arguments select the executor, and code touching a
///   site's state must run on that site's machine (thread confinement).
///
/// Scheduling model shared by both backends: work scheduled on one
/// machine runs in nondecreasing (due-time, schedule-order) order and is
/// never preempted — a resumed coroutine runs until its next suspension
/// point.
class Runtime {
 public:
  /// `CurrentMachine()` value when the caller is not on any executor
  /// (e.g. the driver thread under `ThreadRuntime`).
  static constexpr int kNoMachine = -1;

  virtual ~Runtime() = default;

  virtual RuntimeKind kind() const = 0;

  /// Nanoseconds since the runtime epoch: virtual time under `kSim`,
  /// steady-clock time since `Start()` under `kThreads`.
  virtual SimTime Now() const = 0;

  /// Number of machine executors (always >= 1).
  virtual int num_machines() const = 0;

  /// Worker lanes per machine (always >= 1). Each machine owns
  /// `workers_per_machine()` executor lanes; lane 0 of machine m is
  /// executor `m * workers_per_machine()`. The single-lane backends
  /// (sim, single-worker threads) report 1, in which case executor
  /// indices coincide with machine indices and nothing changes.
  virtual int workers_per_machine() const { return 1; }

  /// Total executor lanes across all machines
  /// (`num_machines() * workers_per_machine()`).
  virtual int num_executors() const { return num_machines(); }

  /// Executor index of `machine`'s worker lane `lane`
  /// (`0 <= lane < workers_per_machine()`).
  int ExecutorOf(int machine, int lane) const {
    return machine * workers_per_machine() + lane;
  }

  /// Machine that owns executor lane `exec`.
  int MachineOfExecutor(int exec) const {
    return exec / workers_per_machine();
  }

  /// Executor lane running the calling code, or `kNoMachine` from the
  /// driver thread. Under `kSim` everything is machine 0. With one
  /// worker per machine (every backend until `workers_per_machine()`
  /// is raised) this is exactly the machine index; with more, the
  /// machine index is `MachineOfExecutor(CurrentMachine())`, and the
  /// `machine` parameter of `SpawnOn`/`Schedule*On` generalizes to an
  /// executor-lane index.
  virtual int CurrentMachine() const = 0;

  /// Launches a root process on `machine`. When called from that
  /// machine's executor (or under `kSim`), the process starts running
  /// immediately until its first suspension point; otherwise it is
  /// enqueued and starts when the executor picks it up. The frame is
  /// destroyed when the process completes or at `Shutdown()`.
  virtual void SpawnOn(int machine, Co<void> co) = 0;

  /// Schedules `h` to resume on `machine`, `delay` from now.
  virtual void ScheduleHandleOn(int machine, Duration delay,
                                std::coroutine_handle<> h) = 0;

  /// Schedules `h` to resume on `machine` at the *absolute* time `when`
  /// (clamped to now). `DelayUntil` uses it so a sleep toward a computed
  /// deadline does not re-read the clock between computing and arming it.
  virtual void ScheduleHandleAtOn(int machine, SimTime when,
                                  std::coroutine_handle<> h) = 0;

  /// Schedules a plain callback on `machine`, `delay` from now.
  /// Callbacks must not block.
  virtual void ScheduleCallbackOn(int machine, Duration delay,
                                  std::function<void()> fn) = 0;

  /// Schedules a callback on `machine` at the *absolute* time `when`
  /// (clamped to now). The absolute form exists for cross-machine FIFO:
  /// the network computes a strictly increasing per-channel arrival time
  /// under its own lock and must hand that exact instant to the target
  /// machine — re-reading `Now()` to convert to a relative delay could
  /// reorder deliveries under `kThreads`.
  virtual void ScheduleCallbackAtOn(int machine, SimTime when,
                                    std::function<void()> fn) = 0;

  /// Starts the executors. A no-op under `kSim` (the caller drives the
  /// event loop); launches the machine threads under `kThreads`.
  virtual void Start() {}

  /// Stops the executors, discards pending work, and destroys every
  /// unfinished process frame. Idempotent. Like
  /// `sim::Simulator::Shutdown`, the clock is NOT reset.
  virtual void Shutdown() = 0;

  /// Resets the clock (and, under `kSim`, the event sequence counter) so
  /// the runtime can be reused for a fresh experiment. Requires that no
  /// processes are live — call `Shutdown()` first. The harness calls
  /// this defensively before every run so back-to-back experiments never
  /// inherit a stale clock.
  virtual void Reset() = 0;

  /// True when scheduling is real-thread concurrent (kThreads): shared
  /// cross-machine state needs locks, and per-site state must stay
  /// confined to its machine's executor.
  bool concurrent() const { return kind() == RuntimeKind::kThreads; }

  /// Machine targeted by the machine-less convenience calls below: the
  /// calling executor's machine, or machine 0 from the driver thread.
  int HomeMachine() const {
    int m = CurrentMachine();
    return m >= 0 ? m : 0;
  }

  void Spawn(Co<void> co) { SpawnOn(HomeMachine(), std::move(co)); }

  void ScheduleHandle(Duration delay, std::coroutine_handle<> h) {
    ScheduleHandleOn(HomeMachine(), delay, h);
  }

  void ScheduleCallback(Duration delay, std::function<void()> fn) {
    ScheduleCallbackOn(HomeMachine(), delay, std::move(fn));
  }

  /// Awaitable that resumes the caller on its current machine `d`
  /// nanoseconds from now (`d >= 0`; zero yields to other work scheduled
  /// at the same time).
  auto Delay(Duration d) {
    struct Awaiter {
      Runtime* rt;
      Duration d;
      int machine;
      bool await_ready() { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        rt->ScheduleHandleOn(machine, d, h);
      }
      void await_resume() {}
    };
    LAZYREP_CHECK_GE(d, 0);
    return Awaiter{this, d, HomeMachine()};
  }

  /// Awaitable that resumes the caller on its current machine at the
  /// absolute time `when` (immediately, after a yield, if it has passed).
  auto DelayUntil(SimTime when) {
    struct Awaiter {
      Runtime* rt;
      SimTime when;
      int machine;
      bool await_ready() { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        rt->ScheduleHandleAtOn(machine, when, h);
      }
      void await_resume() {}
    };
    return Awaiter{this, when, HomeMachine()};
  }

  /// Awaitable that moves the calling coroutine onto executor lane
  /// `exec`. A no-op (no suspension, no scheduled event) when already
  /// there or when the backend is not concurrent — so under `kSim` the
  /// event schedule, and with it byte-determinism, is untouched.
  auto RunOn(int exec) {
    struct Awaiter {
      Runtime* rt;
      int exec;
      bool await_ready() {
        return !rt->concurrent() || rt->CurrentMachine() == exec;
      }
      void await_suspend(std::coroutine_handle<> h) {
        rt->ScheduleHandleOn(exec, 0, h);
      }
      void await_resume() {}
    };
    return Awaiter{this, exec};
  }
};

}  // namespace lazyrep::runtime

#endif  // LAZYREP_RUNTIME_RUNTIME_H_
