#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/ensure.h"

namespace geored::sim {

void Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  GEORED_ENSURE(std::isfinite(t), "event time must be finite");
  GEORED_ENSURE(t >= now_, "cannot schedule an event in the past");
  GEORED_ENSURE(static_cast<bool>(fn), "cannot schedule a null event");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    // The table grows only until it covers the peak queue length.
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back({t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::schedule_after(SimTime delay, std::function<void()> fn) {
  GEORED_ENSURE(std::isfinite(delay), "event delay must be finite");
  GEORED_ENSURE(delay >= 0.0, "event delay must be non-negative");
  schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // The callback leaves its slot before it runs, so it may schedule freely
  // (even into the slot it just vacated, or growing the table).
  std::function<void()> fn = std::move(slots_[key.slot]);
  slots_[key.slot] = nullptr;
  free_slots_.push_back(key.slot);
  now_ = key.time;
  fn();
  return true;
}

std::size_t Simulator::run() {
  stopped_ = false;
  std::size_t processed = 0;
  while (!stopped_ && step()) ++processed;
  return processed;
}

std::size_t Simulator::run_until(SimTime t) {
  GEORED_ENSURE(std::isfinite(t), "run_until time must be finite");
  GEORED_ENSURE(t >= now_, "cannot run to a time in the past");
  stopped_ = false;
  std::size_t processed = 0;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    step();
    ++processed;
  }
  if (!stopped_) now_ = t;
  return processed;
}

}  // namespace geored::sim
