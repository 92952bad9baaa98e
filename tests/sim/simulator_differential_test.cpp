// Randomized differential test of the Simulator against a reference model: a
// std::multimap keyed by (time, seq). Both run the same seeded script, in
// which events schedule children (at integer delays, so equal times are
// common and the FIFO tie-break decides the order), sometimes stop the run,
// and are driven by a random mix of run(), run_until() and step(). Every
// executed event id, the clock and the queue length must agree after every
// driver call.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"

namespace geored::sim {
namespace {

/// The reference: the textbook event list.
class ModelSimulator {
 public:
  SimTime now() const { return now_; }
  std::size_t pending_events() const { return queue_.size(); }
  void stop() { stopped_ = true; }

  void schedule_at(SimTime t, std::function<void()> fn) {
    queue_.emplace(std::make_pair(t, next_seq_++), std::move(fn));
  }
  void schedule_after(SimTime delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  bool step() {
    if (queue_.empty()) return false;
    auto node = queue_.extract(queue_.begin());
    now_ = node.key().first;
    node.mapped()();
    return true;
  }
  std::size_t run() {
    stopped_ = false;
    std::size_t processed = 0;
    while (!stopped_ && step()) ++processed;
    return processed;
  }
  std::size_t run_until(SimTime t) {
    stopped_ = false;
    std::size_t processed = 0;
    while (!stopped_ && !queue_.empty() && queue_.begin()->first.first <= t) {
      step();
      ++processed;
    }
    if (!stopped_) now_ = t;
    return processed;
  }

 private:
  std::multimap<std::pair<SimTime, std::uint64_t>, std::function<void()>> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
};

/// One engine running the seeded script. Each event's behaviour is a pure
/// function of its id, so two engines that execute the same ids in the same
/// order schedule the same children with the same ids.
template <typename Engine>
class Script {
 public:
  explicit Script(std::uint64_t salt, std::size_t budget) : salt_(salt), budget_(budget) {}

  Engine& engine() { return engine_; }
  const std::vector<std::uint64_t>& trace() const { return trace_; }

  void schedule_root(SimTime delay) { schedule(delay); }

 private:
  void schedule(SimTime delay) {
    const std::uint64_t id = next_id_++;
    if (id % 2 == 0) {
      // A small capture, the size the simulator keeps inline.
      engine_.schedule_after(delay, [this, id] { fire(id); });
    } else {
      // A large capture, which lives on the heap.
      const std::vector<std::uint64_t> ballast(3, id);
      engine_.schedule_after(delay,
                             [this, id, ballast] { fire(id + ballast[0] - ballast[2]); });
    }
  }

  void fire(std::uint64_t id) {
    trace_.push_back(id);
    std::uint64_t state = id ^ salt_;
    const std::uint64_t h = splitmix64(state);
    const std::uint64_t children = next_id_ < budget_ ? h % 3 : 0;
    for (std::uint64_t c = 0; c < children; ++c) {
      const std::uint64_t draw = splitmix64(state);
      // Mostly integer delays (ties), including zero; sometimes fractional.
      const SimTime delay = draw % 5 == 0 ? static_cast<double>(draw % 7) * 0.25
                                          : static_cast<double>(draw % 4);
      schedule(delay);
    }
    if ((h >> 32) % 61 == 0) engine_.stop();
  }

  Engine engine_;
  std::uint64_t salt_;
  std::size_t budget_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> trace_;
};

class SimulatorDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorDifferential, MatchesMultimapReference) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kBudget = 6000;
  Script<Simulator> real(seed, kBudget);
  Script<ModelSimulator> model(seed, kBudget);
  Rng rng(seed);

  std::size_t processed = 0;
  for (int call = 0; call < 400; ++call) {
    const std::uint64_t action = rng.below(10);
    if (action < 3) {
      const auto roots = 1 + rng.below(4);
      for (std::uint64_t r = 0; r < roots; ++r) {
        const SimTime delay = static_cast<double>(rng.below(3));
        real.schedule_root(delay);
        model.schedule_root(delay);
      }
    } else if (action < 6) {
      const SimTime until = real.engine().now() + static_cast<double>(rng.below(4));
      const std::size_t n = real.engine().run_until(until);
      ASSERT_EQ(n, model.engine().run_until(until)) << "call " << call;
      processed += n;
    } else if (action < 8) {
      const bool stepped = real.engine().step();
      ASSERT_EQ(stepped, model.engine().step()) << "call " << call;
    } else {
      const std::size_t n = real.engine().run();
      ASSERT_EQ(n, model.engine().run()) << "call " << call;
      processed += n;
    }
    ASSERT_EQ(real.engine().now(), model.engine().now()) << "call " << call;
    ASSERT_EQ(real.engine().pending_events(), model.engine().pending_events())
        << "call " << call;
    ASSERT_EQ(real.trace(), model.trace()) << "call " << call;
  }
  // Drain; an event may stop a run, so run until the queue is empty.
  while (real.engine().pending_events() > 0) {
    ASSERT_EQ(real.engine().run(), model.engine().run());
  }
  EXPECT_EQ(model.engine().pending_events(), 0u);
  EXPECT_EQ(real.trace(), model.trace());
  EXPECT_EQ(real.engine().pending_events(), 0u);
  // The script really exercised the queue, with nested scheduling.
  EXPECT_GT(real.trace().size(), 1000u);
  EXPECT_GT(processed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorDifferential, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace geored::sim
