// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an event queue. Events scheduled for
// the same instant run in scheduling order (FIFO tie-break), which keeps
// whole simulations deterministic. The engine is single-threaded by design:
// wall-clock parallelism across *runs* (different seeds) is how experiments
// scale, not parallelism within a run.
//
// The queue is allocation-free in steady state. The binary heap orders
// 24-byte {time, seq, slot} keys; each callback waits in a slot of a table
// whose freed slots are reused. A std::function keeps callables of up to 16
// trivially copyable bytes (e.g. a `this` pointer plus two 32-bit ids)
// inline, so scheduling such a callback touches no heap once the heap and
// the slot table have grown to the simulation's peak queue length.
//
// A burst gives its memory back. When run() ends with nothing pending (the
// load has drained), a table whose capacity is more than twice the peak
// queue length since the previous drain shrinks to that peak. A load whose
// peak repeats therefore keeps its tables and never reallocates, while the
// tables a bulk load grew are freed once a smaller load has drained.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace geored::sim {

/// Virtual time in milliseconds since simulation start.
using SimTime = double;

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (finite, >= now).
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after `delay` (finite, >= 0) milliseconds.
  void schedule_after(SimTime delay, std::function<void()> fn);

  /// Executes the next event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue empties or stop() is called; returns the number of
  /// events processed. Ending with nothing pending is a drain (see above).
  std::size_t run();

  /// Processes all events with time <= `t` (finite), then advances the clock
  /// to `t`.
  std::size_t run_until(SimTime t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return heap_.size(); }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// The drain rule, run with nothing pending: every slot is free, and a
  /// running callback has already left its slot, so no table is referenced.
  void give_back();

  /// Binary heap of keys (std::push_heap/pop_heap). (time, seq) is a total
  /// order, so the pop sequence does not depend on the heap's layout.
  std::vector<Key> heap_;
  /// Callbacks of pending events, indexed by Key::slot; free_slots_ lists
  /// the empty ones for reuse.
  std::vector<std::function<void()>> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Longest queue since the previous drain.
  std::size_t peak_pending_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
};

}  // namespace geored::sim
