#include "common/nelder_mead.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace geored {

namespace {

std::vector<double> axpy(const std::vector<double>& a, double s,
                         const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * (b[i] - a[i]);
  return out;
}

}  // namespace

NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& objective,
    std::vector<double> start, const NelderMeadOptions& options) {
  GEORED_ENSURE(!start.empty(), "nelder_mead requires a non-empty start point");
  const std::size_t n = start.size();

  // Standard coefficients: reflection, expansion, contraction, shrink.
  constexpr double kAlpha = 1.0;
  constexpr double kGamma = 2.0;
  constexpr double kRho = 0.5;
  constexpr double kSigma = 0.5;

  struct Vertex {
    std::vector<double> x;
    double f;
  };
  std::vector<Vertex> simplex;
  simplex.reserve(n + 1);
  simplex.push_back({start, objective(start)});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x = start;
    x[i] += options.initial_step;
    simplex.push_back({x, objective(x)});
  }

  NelderMeadResult result;
  for (result.iterations = 0; result.iterations < options.max_iterations;
       ++result.iterations) {
    std::sort(simplex.begin(), simplex.end(),
              [](const Vertex& a, const Vertex& b) { return a.f < b.f; });
    if (std::abs(simplex.back().f - simplex.front().f) < options.tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[v].x[i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    Vertex& worst = simplex.back();
    const std::vector<double> reflected = axpy(centroid, -kAlpha, worst.x);
    const double f_reflected = objective(reflected);

    if (f_reflected < simplex.front().f) {
      const std::vector<double> expanded = axpy(centroid, -kGamma, worst.x);
      const double f_expanded = objective(expanded);
      worst = f_expanded < f_reflected ? Vertex{expanded, f_expanded}
                                       : Vertex{reflected, f_reflected};
    } else if (f_reflected < simplex[n - 1].f) {
      worst = {reflected, f_reflected};
    } else {
      const std::vector<double> contracted = axpy(centroid, kRho, worst.x);
      const double f_contracted = objective(contracted);
      if (f_contracted < worst.f) {
        worst = {contracted, f_contracted};
      } else {
        // Shrink towards the best vertex.
        for (std::size_t v = 1; v <= n; ++v) {
          simplex[v].x = axpy(simplex.front().x, kSigma, simplex[v].x);
          simplex[v].f = objective(simplex[v].x);
        }
      }
    }
  }

  std::sort(simplex.begin(), simplex.end(),
            [](const Vertex& a, const Vertex& b) { return a.f < b.f; });
  result.argmin = simplex.front().x;
  result.min_value = simplex.front().f;
  return result;
}

}  // namespace geored
