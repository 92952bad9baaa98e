// ScenarioMutation: seeded mutations of the shipped scenarios/*.json — bit
// flips, truncations, and insertions of random bytes, of runs of '[' and '{',
// and of JSON tokens. parse_scenario either accepts a mutated document or
// rejects it with a ScenarioError; any other exception type (InternalError
// and std::bad_alloc included) is a defect. GEORED_FUZZ_ITERS sets the budget
// (rounds of 100 mutations per file).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "scenario/config.h"

namespace geored::scenario {
namespace {

struct Document {
  std::string name;
  std::string text;
};

/// Every shipped scenario file, in name order.
std::vector<Document> shipped_documents() {
  std::vector<Document> documents;
  for (const auto& entry : std::filesystem::directory_iterator(GEORED_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    documents.push_back({entry.path().filename().string(), text.str()});
  }
  std::sort(documents.begin(), documents.end(),
            [](const Document& a, const Document& b) { return a.name < b.name; });
  return documents;
}

/// Fragments that reach the schema checks more often than random bytes do.
constexpr const char* kTokens[] = {
    "\"", ":", ",", "{", "}", "[", "]", "-", "0", "-1", "0.5", "1e999", "1e-400", "null",
    "true", "false", "\"\"", "\"*\"", "\\u0000", "\"events\":[]", "9007199254740993",
    "18446744073709551616"};

/// One mutation of `text`: flips of one to three bits, a truncation, an
/// insertion of one to eight random bytes, of a run of 1 to 200 '[' or '{',
/// or of one token.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto at = [&] { return static_cast<std::size_t>(rng.below(out.size() + 1)); };
  switch (rng.below(5)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t byte = rng.below(out.size());
        out[byte] = static_cast<char>(out[byte] ^ (1 << rng.below(8)));
      }
      break;
    }
    case 1:
      out.resize(rng.below(out.size()));
      break;
    case 2: {
      std::string inserted(1 + rng.below(8), '\0');
      for (auto& c : inserted) c = static_cast<char>(rng.below(256));
      out.insert(at(), inserted);
      break;
    }
    case 3:
      out.insert(at(), std::string(1 + rng.below(200), rng.below(2) == 0 ? '[' : '{'));
      break;
    default:
      out.insert(at(), kTokens[rng.below(std::size(kTokens))]);
      break;
  }
  return out;
}

std::uint64_t fuzz_rounds() {
  std::uint64_t rounds = 5;
  if (const char* env = std::getenv("GEORED_FUZZ_ITERS")) {
    rounds = std::strtoull(env, nullptr, 10);
  }
  return rounds;
}

/// Parses `text`; true if it was accepted. Fails the test on any exception
/// but a ScenarioError.
bool accepts(const std::string& text) {
  try {
    parse_scenario(text);
    return true;
  } catch (const ScenarioError&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "untyped rejection " << typeid(error).name() << ": " << error.what()
                  << "\ninput:\n"
                  << text;
    return false;
  }
}

TEST(ScenarioMutation, ShippedScenariosParse) {
  const std::vector<Document> documents = shipped_documents();
  ASSERT_FALSE(documents.empty());
  for (const auto& document : documents) {
    EXPECT_TRUE(accepts(document.text)) << document.name;
  }
}

TEST(ScenarioMutation, MutatedScenariosParseOrThrowScenarioError) {
  const std::uint64_t rounds = fuzz_rounds();
  std::size_t accepted = 0, rejected = 0;
  std::uint64_t seed = 1;
  for (const auto& document : shipped_documents()) {
    Rng rng(seed++);
    for (std::uint64_t round = 0; round < rounds; ++round) {
      for (int i = 0; i < 100; ++i) {
        (accepts(mutate(document.text, rng)) ? accepted : rejected) += 1;
        if (HasFailure()) FAIL() << document.name << ", round " << round << ", mutation " << i;
      }
    }
  }
  // Both outcomes occur: most mutations break the document, but flips
  // inside numbers and strings, and insertions into them, often do not.
  EXPECT_GT(rejected, 0u);
  if (rounds > 0) {
    EXPECT_GT(accepted, 0u);
  }
}

}  // namespace
}  // namespace geored::scenario
