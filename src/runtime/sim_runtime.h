#ifndef LAZYREP_RUNTIME_SIM_RUNTIME_H_
#define LAZYREP_RUNTIME_SIM_RUNTIME_H_

#include <functional>
#include <utility>

#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace lazyrep::runtime {

/// `Runtime` backend over the deterministic discrete-event simulator.
///
/// A pure forwarding adapter: every machine argument is ignored (one
/// thread interleaves all machines) and every call maps 1:1 onto the
/// corresponding `sim::Simulator` call, so the event-sequence numbers —
/// and therefore the entire schedule — are bit-for-bit identical to code
/// written against the simulator directly. The golden-metrics test in
/// runtime_test.cc holds this adapter to that guarantee.
///
/// The caller drives the event loop through `simulator()` (`Run`,
/// `RunUntil`, `Stop`), which stays outside the `Runtime` waist on
/// purpose: engines must not know a loop exists.
class SimRuntime final : public Runtime {
 public:
  SimRuntime() = default;
  ~SimRuntime() override { Shutdown(); }

  RuntimeKind kind() const override { return RuntimeKind::kSim; }

  SimTime Now() const override { return sim_.Now(); }

  int num_machines() const override { return 1; }

  /// The simulator interleaves every machine on one logical executor.
  int CurrentMachine() const override { return 0; }

  void SpawnOn(int /*machine*/, Co<void> co) override {
    sim_.Spawn(std::move(co));
  }

  void ScheduleHandleOn(int /*machine*/, Duration delay,
                        std::coroutine_handle<> h) override {
    sim_.ScheduleHandle(delay, h);
  }

  void ScheduleHandleAtOn(int /*machine*/, SimTime when,
                          std::coroutine_handle<> h) override {
    SimTime now = sim_.Now();
    sim_.ScheduleHandle(when > now ? when - now : 0, h);
  }

  void ScheduleCallbackOn(int /*machine*/, Duration delay,
                          std::function<void()> fn) override {
    sim_.ScheduleCallback(delay, std::move(fn));
  }

  void ScheduleCallbackAtOn(int /*machine*/, SimTime when,
                            std::function<void()> fn) override {
    SimTime now = sim_.Now();
    sim_.ScheduleCallback(when > now ? when - now : 0, std::move(fn));
  }

  void Shutdown() override { sim_.Shutdown(); }

  void Reset() override { sim_.Reset(); }

  /// The underlying simulator, for driving the event loop.
  sim::Simulator* simulator() { return &sim_; }

 private:
  sim::Simulator sim_;
};

}  // namespace lazyrep::runtime

#endif  // LAZYREP_RUNTIME_SIM_RUNTIME_H_
