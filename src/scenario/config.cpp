#include "scenario/config.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace geored::scenario {

namespace {

const char* kind_word(ScenarioError::Kind kind) {
  switch (kind) {
    case ScenarioError::Kind::kSyntax: return "syntax";
    case ScenarioError::Kind::kUnknownKey: return "unknown-key";
    case ScenarioError::Kind::kBadValue: return "bad-value";
    case ScenarioError::Kind::kBadReference: return "bad-reference";
    case ScenarioError::Kind::kBadSchedule: return "bad-schedule";
  }
  return "error";
}

std::string render(ScenarioError::Kind kind, const std::string& path,
                   const std::string& message) {
  std::string out = "scenario error (";
  out += kind_word(kind);
  out += ")";
  if (!path.empty()) {
    out += " at ";
    out += path;
  }
  out += ": ";
  out += message;
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON document model + recursive-descent parser. Hand-rolled so the
// library stays dependency-free; strict (no comments, no trailing commas,
// duplicate keys rejected) because scenario files are experiment inputs and
// silent sloppiness would undermine reproducibility.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;  ///< insertion order

  const Json* find(const std::string& key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

/// Deepest nesting of arrays and objects a document may have. The shipped
/// scenarios nest 3 levels; the bound keeps the recursive descent's stack
/// small whatever the input.
constexpr std::size_t kMaxJsonDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw ScenarioError(ScenarioError::Kind::kSyntax, "",
                        "line " + std::to_string(line) + " column " + std::to_string(column) +
                            ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        fail("arrays and objects nested deeper than " + std::to_string(kMaxJsonDepth) +
             " levels");
      }
      ++depth_;
      Json value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') {
      Json value;
      value.type = Json::Type::kString;
      value.text = parse_string();
      return value;
    }
    if (c == 't' || c == 'f') {
      Json value;
      value.type = Json::Type::kBool;
      if (consume_literal("true")) {
        value.boolean = true;
      } else if (consume_literal("false")) {
        value.boolean = false;
      } else {
        fail("malformed literal");
      }
      return value;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("malformed literal");
      return Json{};
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json value;
    value.type = Json::Type::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      if (value.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      skip_whitespace();
      expect(':');
      value.members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json value;
    value.type = Json::Type::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("malformed \\u escape");
      }
    }
    // UTF-8 encode the basic-multilingual-plane code point (surrogate pairs
    // are rejected — region names and descriptions have no business there).
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escapes are not supported");
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) fail("malformed number");
    Json value;
    value.type = Json::Type::kNumber;
    try {
      value.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

// ---------------------------------------------------------------------------
// Schema reader: typed field accessors over one JSON object, tracking which
// keys were consumed so finish() can reject the rest as unknown.
// ---------------------------------------------------------------------------

[[noreturn]] void bad_value(const std::string& path, const std::string& message) {
  throw ScenarioError(ScenarioError::Kind::kBadValue, path, message);
}

class ObjectReader {
 public:
  ObjectReader(const Json& json, std::string path) : json_(json), path_(std::move(path)) {
    if (json_.type != Json::Type::kObject) bad_value(path_, "expected an object");
  }

  const std::string& path() const { return path_; }

  std::string member_path(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const Json* child(const std::string& key) {
    const Json* value = json_.find(key);
    if (value != nullptr) consumed_.push_back(key);
    return value;
  }

  bool has(const std::string& key) const { return json_.find(key) != nullptr; }

  double number(const std::string& key, double fallback) {
    const Json* value = child(key);
    if (value == nullptr) return fallback;
    if (value->type != Json::Type::kNumber) bad_value(member_path(key), "expected a number");
    if (!std::isfinite(value->number)) bad_value(member_path(key), "number must be finite");
    return value->number;
  }

  std::uint64_t unsigned_integer(const std::string& key, std::uint64_t fallback) {
    const Json* value = child(key);
    if (value == nullptr) return fallback;
    if (value->type != Json::Type::kNumber) bad_value(member_path(key), "expected a number");
    const double v = value->number;
    if (!(v >= 0.0) || v != std::floor(v) || v > 9.007199254740992e15) {
      bad_value(member_path(key), "expected a non-negative integer");
    }
    return static_cast<std::uint64_t>(v);
  }

  std::size_t size_value(const std::string& key, std::size_t fallback) {
    return static_cast<std::size_t>(unsigned_integer(key, fallback));
  }

  bool boolean(const std::string& key, bool fallback) {
    const Json* value = child(key);
    if (value == nullptr) return fallback;
    if (value->type != Json::Type::kBool) {
      bad_value(member_path(key), "expected true or false");
    }
    return value->boolean;
  }

  std::string string(const std::string& key, std::string fallback) {
    const Json* value = child(key);
    if (value == nullptr) return fallback;
    if (value->type != Json::Type::kString) bad_value(member_path(key), "expected a string");
    return value->text;
  }

  /// Rejects every key the schema did not consume.
  void finish() {
    for (const auto& [key, value] : json_.members) {
      bool known = false;
      for (const auto& name : consumed_) {
        if (name == key) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw ScenarioError(ScenarioError::Kind::kUnknownKey, member_path(key),
                            "unknown key \"" + key + "\"");
      }
    }
  }

 private:
  const Json& json_;
  std::string path_;
  std::vector<std::string> consumed_;
};

// ---------------------------------------------------------------------------
// Section readers.
// ---------------------------------------------------------------------------

TopologySpec read_topology(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  TopologySpec spec;
  spec.nodes = reader.size_value("nodes", spec.nodes);
  spec.dcs = reader.size_value("dcs", spec.dcs);
  spec.seed = reader.unsigned_integer("seed", spec.seed);
  reader.finish();
  if (spec.nodes < 2) bad_value(path + ".nodes", "need at least 2 nodes");
  if (spec.nodes > TopologySpec::kMaxNodes) {
    bad_value(path + ".nodes",
              "at most " + std::to_string(TopologySpec::kMaxNodes) + " nodes are supported");
  }
  if (spec.dcs < 1) bad_value(path + ".dcs", "need at least 1 data center");
  if (spec.dcs >= spec.nodes) {
    bad_value(path + ".dcs", "every node is a data center; no clients remain");
  }
  return spec;
}

CoordsSpec read_coords(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  CoordsSpec spec;
  const std::string system = reader.string("system", "rnp");
  spec.rounds = reader.size_value("rounds", spec.rounds);
  spec.seed = reader.unsigned_integer("seed", spec.seed);
  reader.finish();
  // A scenario gossips its coordinates; GNP is centralized.
  if (system != "rnp" && system != "vivaldi") {
    bad_value(path + ".system", "expected \"rnp\" or \"vivaldi\"");
  }
  spec.system = coord::coord_system_from_name(system);
  if (spec.rounds < 1) bad_value(path + ".rounds", "need at least 1 gossip round");
  if (spec.rounds > CoordsSpec::kMaxRounds) {
    bad_value(path + ".rounds", "at most " + std::to_string(CoordsSpec::kMaxRounds) +
                                    " gossip rounds are supported");
  }
  return spec;
}

WorkloadSpec read_workload(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  WorkloadSpec spec;
  const std::string kind = reader.string("kind", "uniform");
  spec.mean_rate = reader.number("mean_rate", spec.mean_rate);
  spec.sigma = reader.number("sigma", spec.sigma);
  spec.total_rate = reader.number("total_rate", spec.total_rate);
  spec.exponent = reader.number("exponent", spec.exponent);
  spec.seed = reader.unsigned_integer("seed", spec.seed);
  reader.finish();
  if (kind != "uniform" && kind != "zipf") {
    bad_value(path + ".kind", "expected \"uniform\" or \"zipf\"");
  }
  spec.kind = kind == "zipf" ? WorkloadSpec::Kind::kZipf : WorkloadSpec::Kind::kUniform;
  if (spec.mean_rate <= 0.0) bad_value(path + ".mean_rate", "rate must be positive");
  if (spec.sigma < 0.0) bad_value(path + ".sigma", "sigma must be non-negative");
  if (spec.total_rate <= 0.0) bad_value(path + ".total_rate", "rate must be positive");
  if (spec.exponent < 0.0) bad_value(path + ".exponent", "exponent must be non-negative");
  return spec;
}

void read_manager(const Json& json, const std::string& path, core::ManagerConfig& config) {
  ObjectReader reader(json, path);
  config.replication_degree =
      reader.size_value("replication_degree", config.replication_degree);
  config.dynamic_degree = reader.boolean("dynamic_degree", config.dynamic_degree);
  config.grow_accesses_per_replica =
      reader.number("grow_accesses_per_replica", config.grow_accesses_per_replica);
  config.shrink_accesses_per_replica =
      reader.number("shrink_accesses_per_replica", config.shrink_accesses_per_replica);
  config.min_degree = reader.size_value("min_degree", config.min_degree);
  config.max_degree = reader.size_value("max_degree", config.max_degree);
  config.summarizer.max_clusters =
      reader.size_value("micro_clusters", config.summarizer.max_clusters);
  config.migration.min_relative_gain =
      reader.number("migration_min_relative_gain", config.migration.min_relative_gain);
  config.migration.min_absolute_gain_ms =
      reader.number("migration_min_absolute_gain_ms", config.migration.min_absolute_gain_ms);
  reader.finish();
  if (config.replication_degree < 1) {
    bad_value(path + ".replication_degree", "degree must be >= 1");
  }
  if (config.min_degree < 1 || config.min_degree > config.max_degree) {
    bad_value(path + ".min_degree", "degree bounds must satisfy 1 <= min <= max");
  }
  if (config.summarizer.max_clusters < 1) {
    bad_value(path + ".micro_clusters", "need at least 1 micro-cluster");
  }
  if (config.migration.min_relative_gain < 0.0) {
    bad_value(path + ".migration_min_relative_gain", "gain threshold must be non-negative");
  }
  if (config.migration.min_absolute_gain_ms < 0.0) {
    bad_value(path + ".migration_min_absolute_gain_ms",
              "gain threshold must be non-negative");
  }
}

FleetSpec read_fleet(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  FleetSpec spec;
  spec.groups = reader.size_value("groups", spec.groups);
  spec.replica_budget = reader.size_value("replica_budget", spec.replica_budget);
  spec.min_degree = reader.size_value("min_degree", spec.min_degree);
  spec.max_degree = reader.size_value("max_degree", spec.max_degree);
  if (const Json* weights = reader.child("weights")) {
    if (weights->type != Json::Type::kArray) {
      bad_value(path + ".weights", "expected an array of numbers");
    }
    for (std::size_t i = 0; i < weights->items.size(); ++i) {
      const Json& item = weights->items[i];
      const std::string item_path = path + ".weights[" + std::to_string(i) + "]";
      if (item.type != Json::Type::kNumber) bad_value(item_path, "expected a number");
      if (!(item.number > 0.0) || !std::isfinite(item.number)) {
        bad_value(item_path, "weights must be positive and finite");
      }
      spec.weights.push_back(item.number);
    }
  }
  reader.finish();
  if (spec.groups < 1) bad_value(path + ".groups", "need at least 1 group");
  if (spec.min_degree < 1 || spec.min_degree > spec.max_degree) {
    bad_value(path + ".min_degree", "degree bounds must satisfy 1 <= min <= max");
  }
  // budget < groups * min_degree, without the product (it can wrap).
  if (spec.replica_budget > 0 && spec.replica_budget / spec.min_degree < spec.groups) {
    bad_value(path + ".replica_budget",
              "budget cannot cover the minimum degree for every group");
  }
  if (!spec.weights.empty() && spec.weights.size() != spec.groups) {
    throw ScenarioError(ScenarioError::Kind::kBadReference, path + ".weights",
                        "expected one weight per group (" + std::to_string(spec.groups) + ")");
  }
  return spec;
}

void read_rpc(const Json& json, const std::string& path, net::RpcCollectorConfig& rpc) {
  ObjectReader reader(json, path);
  rpc.faults.drop = reader.number("drop", rpc.faults.drop);
  rpc.faults.delay = reader.number("delay", rpc.faults.delay);
  rpc.faults.duplicate = reader.number("duplicate", rpc.faults.duplicate);
  rpc.faults.truncate = reader.number("truncate", rpc.faults.truncate);
  rpc.faults.disconnect = reader.number("disconnect", rpc.faults.disconnect);
  rpc.faults.delay_ms = reader.unsigned_integer("delay_ms", rpc.faults.delay_ms);
  rpc.faults.seed = reader.unsigned_integer("fault_seed", rpc.faults.seed);
  rpc.max_attempts = reader.size_value("max_attempts", rpc.max_attempts);
  rpc.timeout_ms = reader.unsigned_integer("timeout_ms", rpc.timeout_ms);
  reader.finish();
  for (const auto& [key, probability] :
       {std::pair<const char*, double>{"drop", rpc.faults.drop},
        {"delay", rpc.faults.delay},
        {"duplicate", rpc.faults.duplicate},
        {"truncate", rpc.faults.truncate},
        {"disconnect", rpc.faults.disconnect}}) {
    if (probability < 0.0 || probability > 1.0) {
      bad_value(path + "." + key, "probability must lie in [0,1]");
    }
  }
  if (rpc.max_attempts < 1) bad_value(path + ".max_attempts", "need at least 1 attempt");
}

serve::ServeConfig read_serve(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  serve::ServeConfig config;
  config.service_ms = reader.number("service_ms", config.service_ms);
  config.queue_cap = reader.size_value("queue_cap", config.queue_cap);
  const std::string policy = reader.string("policy", "spill");
  reader.finish();
  if (!(config.service_ms > 0.0)) {
    bad_value(path + ".service_ms", "service time must be positive");
  }
  if (config.queue_cap < 1) bad_value(path + ".queue_cap", "need at least 1 queue slot");
  if (policy != "spill" && policy != "reject") {
    bad_value(path + ".policy", "expected \"spill\" or \"reject\"");
  }
  config.policy = policy == "reject" ? serve::ServeConfig::Policy::kReject
                                     : serve::ServeConfig::Policy::kSpill;
  return config;
}

bool region_pattern_valid(const std::string& pattern) {
  if (pattern.empty()) return false;
  // "*" alone, a literal name, or a prefix followed by a single trailing '*'.
  const std::size_t star = pattern.find('*');
  if (star == std::string::npos) return true;
  return star == pattern.size() - 1;
}

Event read_event(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  Event event;
  const std::string kind = reader.string("kind", "");
  if (kind == "diurnal") {
    event.kind = Event::Kind::kDiurnal;
    event.region = reader.string("region", "*");
    event.period_ms = reader.number("period_ms", event.period_ms);
    event.phase = reader.number("phase", event.phase);
    event.floor = reader.number("floor", event.floor);
    reader.finish();
    if (event.period_ms <= 0.0) bad_value(path + ".period_ms", "period must be positive");
    if (event.phase < 0.0 || event.phase >= 1.0) {
      bad_value(path + ".phase", "phase must lie in [0,1)");
    }
    if (event.floor < 0.0 || event.floor > 1.0) {
      bad_value(path + ".floor", "floor must lie in [0,1]");
    }
  } else if (kind == "flash_crowd") {
    event.kind = Event::Kind::kFlashCrowd;
    event.region = reader.string("region", "*");
    event.start_ms = reader.number("start_ms", event.start_ms);
    event.end_ms = reader.number("end_ms", event.end_ms);
    event.factor = reader.number("factor", event.factor);
    reader.finish();
    if (event.start_ms < 0.0) bad_value(path + ".start_ms", "window must start at t >= 0");
    if (event.end_ms <= event.start_ms) {
      throw ScenarioError(ScenarioError::Kind::kBadSchedule, path + ".end_ms",
                          "window must end after it starts");
    }
    if (!(event.factor > 0.0)) bad_value(path + ".factor", "factor must be positive");
  } else if (kind == "outage") {
    event.kind = Event::Kind::kOutage;
    const bool has_region = reader.has("region");
    const bool has_node = reader.has("node");
    if (has_region && has_node) {
      bad_value(path, "outage takes either a region or a node, not both");
    }
    if (!has_region && !has_node) {
      bad_value(path, "outage needs a region pattern or a node id");
    }
    if (has_node) {
      // Range-checked before it narrows to a NodeId: no data center has an
      // id of 2^32 or more (validate_schedule checks the rest against dcs).
      const std::uint64_t node = reader.unsigned_integer("node", 0);
      if (node > std::numeric_limits<topo::NodeId>::max()) {
        throw ScenarioError(ScenarioError::Kind::kBadReference, path + ".node",
                            "node " + std::to_string(node) + " is not a data center");
      }
      event.node = static_cast<topo::NodeId>(node);
    } else {
      event.region = reader.string("region", "*");
    }
    event.start_ms = reader.number("start_ms", event.start_ms);
    event.end_ms = reader.number("end_ms", event.end_ms);
    reader.finish();
    if (event.start_ms < 0.0) bad_value(path + ".start_ms", "window must start at t >= 0");
    if (event.end_ms <= event.start_ms) {
      throw ScenarioError(ScenarioError::Kind::kBadSchedule, path + ".end_ms",
                          "window must end after it starts");
    }
  } else if (kind == "population") {
    event.kind = Event::Kind::kPopulation;
    event.region = reader.string("region", "*");
    event.at_ms = reader.number("at_ms", event.at_ms);
    event.add = reader.size_value("add", 0);
    event.retire = reader.size_value("retire", 0);
    reader.finish();
    if (event.at_ms < 0.0) bad_value(path + ".at_ms", "events fire at t >= 0");
    if (event.add == 0 && event.retire == 0) {
      bad_value(path, "population event must add or retire at least one client");
    }
  } else if (kind == "group_weight") {
    event.kind = Event::Kind::kGroupWeight;
    event.at_ms = reader.number("at_ms", event.at_ms);
    event.group = reader.size_value("group", 0);
    event.weight = reader.number("weight", event.weight);
    reader.finish();
    if (event.at_ms < 0.0) bad_value(path + ".at_ms", "events fire at t >= 0");
    if (!(event.weight > 0.0)) bad_value(path + ".weight", "weight must be positive");
  } else {
    bad_value(path + ".kind",
              "expected \"diurnal\", \"flash_crowd\", \"outage\", \"population\", or "
              "\"group_weight\"");
  }
  if (!event.node.has_value() && !region_pattern_valid(event.region)) {
    bad_value(path + ".region",
              "region must be \"*\", a region name, or a prefix pattern like \"eu-*\"");
  }
  return event;
}

/// The target key two events of the same kind collide on.
std::string event_target(const Event& event) {
  if (event.node.has_value()) return "node:" + std::to_string(*event.node);
  return "region:" + event.region;
}

void validate_schedule(const ScenarioConfig& config) {
  const double horizon_ms = static_cast<double>(config.epochs) * config.epoch_ms;
  double previous_ms = 0.0;
  for (std::size_t i = 0; i < config.events.size(); ++i) {
    const Event& event = config.events[i];
    const std::string path = "events[" + std::to_string(i) + "]";
    const double effective = event.effective_ms();
    if (effective < previous_ms) {
      throw ScenarioError(ScenarioError::Kind::kBadSchedule, path,
                          "events must be listed in order of their effective time");
    }
    previous_ms = effective;
    if (effective >= horizon_ms) {
      throw ScenarioError(ScenarioError::Kind::kBadSchedule, path,
                          "event takes effect at or after the scenario horizon (" +
                              std::to_string(horizon_ms) + " ms)");
    }
    if (event.kind == Event::Kind::kGroupWeight && event.group >= config.fleet.groups) {
      throw ScenarioError(ScenarioError::Kind::kBadReference, path + ".group",
                          "group " + std::to_string(event.group) +
                              " does not exist (fleet has " +
                              std::to_string(config.fleet.groups) + ")");
    }
    if (event.node.has_value() && *event.node >= config.topology.dcs) {
      throw ScenarioError(ScenarioError::Kind::kBadReference, path + ".node",
                          "node " + std::to_string(*event.node) +
                              " is not a data center (dcs = " +
                              std::to_string(config.topology.dcs) + ")");
    }
    // Same-kind, same-target events must not overlap: two flash crowds on
    // one region or two outages of one data center with intersecting
    // windows is almost certainly an authoring mistake, and "which factor
    // wins" has no obvious answer. Diurnal envelopes are unbounded, so one
    // per target at most.
    for (std::size_t j = 0; j < i; ++j) {
      const Event& other = config.events[j];
      if (other.kind != event.kind || event_target(other) != event_target(event)) continue;
      if (event.kind == Event::Kind::kDiurnal) {
        throw ScenarioError(ScenarioError::Kind::kBadSchedule, path,
                            "a second diurnal envelope for the same target");
      }
      if (event.kind == Event::Kind::kFlashCrowd || event.kind == Event::Kind::kOutage) {
        if (event.start_ms < other.end_ms && other.start_ms < event.end_ms) {
          throw ScenarioError(ScenarioError::Kind::kBadSchedule, path,
                              "window overlaps events[" + std::to_string(j) +
                                  "] on the same target");
        }
      }
    }
  }
}

}  // namespace

ScenarioError::ScenarioError(Kind kind, std::string path, const std::string& message)
    : std::invalid_argument(render(kind, path, message)),
      kind_(kind),
      path_(std::move(path)) {}

double Event::effective_ms() const {
  switch (kind) {
    case Kind::kDiurnal: return 0.0;
    case Kind::kFlashCrowd:
    case Kind::kOutage: return start_ms;
    case Kind::kPopulation:
    case Kind::kGroupWeight: return at_ms;
  }
  return 0.0;
}

ScenarioConfig parse_scenario(const std::string& text) {
  const Json document = JsonParser(text).parse();
  if (document.type != Json::Type::kObject) {
    throw ScenarioError(ScenarioError::Kind::kBadValue, "",
                        "the scenario document must be a JSON object");
  }
  ObjectReader reader(document, "");
  ScenarioConfig config;
  config.name = reader.string("name", "");
  config.description = reader.string("description", "");
  config.seed = reader.unsigned_integer("seed", config.seed);
  config.epochs = reader.size_value("epochs", config.epochs);
  config.epoch_ms = reader.number("epoch_ms", config.epoch_ms);
  if (const Json* section = reader.child("topology")) {
    config.topology = read_topology(*section, "topology");
  }
  if (const Json* section = reader.child("coords")) {
    config.coords = read_coords(*section, "coords");
  }
  if (const Json* section = reader.child("workload")) {
    config.workload = read_workload(*section, "workload");
  }
  if (const Json* section = reader.child("manager")) {
    read_manager(*section, "manager", config.manager);
  }
  if (const Json* section = reader.child("fleet")) {
    config.fleet = read_fleet(*section, "fleet");
  }
  const std::string collector = reader.string("collector", "direct");
  if (const Json* section = reader.child("rpc")) {
    read_rpc(*section, "rpc", config.rpc);
  }
  const std::string routing = reader.string("routing", "coords");
  if (const Json* section = reader.child("serve")) {
    config.serve = read_serve(*section, "serve");
  }
  config.initial_active_fraction =
      reader.number("initial_active_fraction", config.initial_active_fraction);
  if (const Json* section = reader.child("events")) {
    if (section->type != Json::Type::kArray) {
      bad_value("events", "expected an array of event objects");
    }
    for (std::size_t i = 0; i < section->items.size(); ++i) {
      config.events.push_back(
          read_event(section->items[i], "events[" + std::to_string(i) + "]"));
    }
  }
  reader.finish();

  if (config.name.empty()) bad_value("name", "every scenario needs a name");
  if (config.epochs < 1) bad_value("epochs", "need at least 1 epoch");
  if (!(config.epoch_ms > 0.0)) bad_value("epoch_ms", "epoch length must be positive");
  if (collector != "direct" && collector != "rpc") {
    bad_value("collector", "expected \"direct\" or \"rpc\"");
  }
  config.collector = collector == "rpc" ? ScenarioConfig::Collector::kRpc
                                         : ScenarioConfig::Collector::kDirect;
  if (config.collector == ScenarioConfig::Collector::kRpc && config.fleet.groups != 1) {
    bad_value("collector",
              "the rpc collector serializes one wire conversation and supports "
              "single-group fleets only");
  }
  if (routing != "coords" && routing != "true_rtt") {
    bad_value("routing", "expected \"coords\" or \"true_rtt\"");
  }
  config.routing = routing == "true_rtt" ? ScenarioConfig::Routing::kTrueRtt
                                         : ScenarioConfig::Routing::kCoords;
  if (config.serve && config.routing != ScenarioConfig::Routing::kCoords) {
    bad_value("serve",
              "the serving data plane selects replicas in coordinate space and "
              "requires routing \"coords\"");
  }
  if (!(config.initial_active_fraction > 0.0) || config.initial_active_fraction > 1.0) {
    bad_value("initial_active_fraction", "fraction must lie in (0,1]");
  }
  validate_schedule(config);
  return config;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str());
}

}  // namespace geored::scenario
