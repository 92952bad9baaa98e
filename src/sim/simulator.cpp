#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/ensure.h"

namespace geored::sim {

namespace {

/// Empties `table` and sets its capacity to `capacity`.
template <typename T>
void refit(std::vector<T>& table, std::size_t capacity) {
  table.clear();
  table.shrink_to_fit();
  table.reserve(capacity);
}

}  // namespace

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
  peak_pending_ = std::max(peak_pending_, heap_.size());
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
  if (heap_.empty()) give_back();
  return processed;
}

void Simulator::give_back() {
  // A run() that found nothing scheduled since the previous drain ends no
  // load.
  if (peak_pending_ == 0) return;
  if (heap_.capacity() > 2 * peak_pending_) refit(heap_, peak_pending_);
  // The slot table and its free list shrink together: slots are renumbered
  // from 0.
  if (slots_.capacity() > 2 * peak_pending_) {
    refit(slots_, peak_pending_);
    refit(free_slots_, peak_pending_);
  }
  peak_pending_ = 0;
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
