// Internal evaluator building block shared by placement/evaluate.cpp and the
// frozen scalar evaluators (reference/evaluate_scalar.cpp), so both charge a
// quorum read the same order statistic. Not part of the public API.
#pragma once

#include <cstddef>
#include <vector>

namespace geored::place::detail {

/// q-th smallest of `latencies` (1-based q). Small vectors: partial sort.
double quorum_latency(std::vector<double>& latencies, std::size_t quorum);

}  // namespace geored::place::detail
