// Minimal JSON reader and number formatting for the e2e benchmark: enough to
// read BENCHMARK.json and the results files rsnn_e2e writes, nothing more.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace rsnn::e2e {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;                             ///< kArray
  std::vector<std::pair<std::string, Json>> members;  ///< kObject, in order

  /// Member `key` of an object, nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
};

/// Parse one JSON document. Returns a one-line diagnostic, empty on success.
std::string parse_json(const std::string& text, Json* out);

/// Read a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string* out);

/// `value` quoted and escaped as a JSON string.
std::string json_quote(const std::string& value);

/// A measured double with every significant digit (round-trips exactly).
std::string json_number(double value);

}  // namespace rsnn::e2e
