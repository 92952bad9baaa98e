// GEORED_SIMD handling, checked in a fresh process: simd::active_level() reads
// the variable once per process, so each case is its own ctest entry with the
// variable set (the PointSetSimdEnv.* tests in tests/CMakeLists.txt).
//
//   simd_env_probe <level>   active_level() must equal min(<level>,
//                            detected_level()) for <level> in scalar / avx2 /
//                            avx512, or detected_level() for "detected"
//   simd_env_probe reject    active_level() must throw std::invalid_argument
//                            whose message names every accepted value
//
// Exits 0 when the expectation holds, 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/point_set_simd.h"

namespace {

using geored::simd::Level;

int fail(const std::string& message) {
  const char* env = std::getenv("GEORED_SIMD");
  std::fprintf(stderr, "FAIL (GEORED_SIMD=%s): %s\n", env != nullptr ? env : "<unset>",
               message.c_str());
  return 1;
}

int expect_rejected() {
  try {
    const Level level = geored::simd::active_level();
    return fail(std::string("accepted, active level ") + geored::simd::level_name(level));
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* name : {"scalar", "avx2", "avx512"}) {
      if (what.find(name) == std::string::npos) {
        return fail("rejection message does not name '" + std::string(name) + "': " + what);
      }
    }
    std::printf("rejected: %s\n", e.what());
    return 0;
  }
}

int expect_level(const std::string& name) {
  Level want = geored::simd::detected_level();
  if (name != "detected") {
    Level requested = Level::kScalar;
    if (name == "avx2") {
      requested = Level::kAvx2;
    } else if (name == "avx512") {
      requested = Level::kAvx512;
    } else if (name != "scalar") {
      return fail("unknown expectation '" + name + "'");
    }
    want = requested < want ? requested : want;
  }
  const Level got = geored::simd::active_level();
  if (got != want) {
    return fail(std::string("active level ") + geored::simd::level_name(got) + ", want " +
                geored::simd::level_name(want));
  }
  std::printf("active level %s (detected %s)\n", geored::simd::level_name(got),
              geored::simd::level_name(geored::simd::detected_level()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: simd_env_probe <scalar|avx2|avx512|detected|reject>\n");
    return 2;
  }
  const std::string expectation = argv[1];
  return expectation == "reject" ? expect_rejected() : expect_level(expectation);
}
