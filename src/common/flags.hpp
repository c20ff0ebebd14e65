// Declarative command-line flag tables. A front end describes each flag once
// — name, type, range, default, help — and FlagSet derives everything else
// from that single source of truth: `--key value` parsing with friendly
// one-line diagnostics (never exceptions — front ends print and exit),
// range-checked typed accessors, and generated usage text, so help output
// cannot drift from what the parser actually accepts.
//
// Types:
//   kCount  — integer with an inclusive [min, max] range. Rejects the inputs
//             std::stoul would silently wrap ("--queue-depth -1" must not
//             unbound a bounded queue).
//   kNumber — double with an inclusive [min, max] range (durations, ratios,
//             clock rates).
//   kText   — free-form string; domain validation (policy names, partition
//             strategies) stays with the code that owns the domain.
//   kToggle — boolean written as 0/1 (also accepts true/false/on/off).
//
// Tables are plain std::vector<FlagSpec>, so front ends compose them: the
// rsnn_serve daemon appends the shared serving-pool table to its own flags,
// and rsnn_client's infer command the shared per-request table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rsnn::flags {

enum class FlagType { kCount, kNumber, kText, kToggle };

/// Practically-unbounded range limit; the default max for counts/numbers.
inline constexpr double kUnbounded = 1e306;

/// One flag's declaration. Aggregate — tables are brace-initialized, with
/// designated initializers for the optional fields.
struct FlagSpec {
  /// Flag name without the leading dashes ("queue-depth" for --queue-depth).
  std::string name;
  FlagType type = FlagType::kText;
  /// Default value as text; must itself satisfy the type/range constraints.
  std::string fallback;
  /// One-line help text (no trailing period, no default — usage() appends
  /// the default automatically).
  std::string help;
  /// Inclusive range for kCount/kNumber.
  double min_value = 0.0;
  double max_value = kUnbounded;
  /// Metavariable shown in usage ("N", "MS", "PATH"); derived from the type
  /// when empty.
  std::string value_name;
};

/// A parsed flag table: construct from specs, parse() once, then read typed
/// values. Accessors throw ContractViolation only on programming errors
/// (asking for a flag the table does not declare, or with the wrong type);
/// user input errors all surface through parse()'s return value.
class FlagSet {
 public:
  explicit FlagSet(std::vector<FlagSpec> specs);

  /// Parse `--key value` pairs from argv[first..argc). Unknown flags,
  /// missing values, malformed numbers and out-of-range values produce a
  /// friendly one-line diagnostic (returned; empty on success). May be
  /// called once per FlagSet.
  std::string parse(int argc, char** argv, int first);

  /// Parse from an already-tokenized vector (tests, config lines).
  std::string parse(const std::vector<std::string>& tokens);

  /// True when the flag was given explicitly (not defaulted).
  bool is_set(const std::string& name) const;

  /// Typed accessors; the value is the explicit one when given, else the
  /// spec's fallback. Range-validated at parse time.
  std::int64_t count(const std::string& name) const;
  double number(const std::string& name) const;
  const std::string& text(const std::string& name) const;
  bool toggle(const std::string& name) const;

  /// Generated usage lines, one flag per line, indented by `indent` spaces:
  ///   --queue-depth N   bounded admission queue capacity (default 64)
  /// Ranges tighter than [0, unbounded) are spelled out.
  std::string usage(int indent = 4) const;

  const std::vector<FlagSpec>& specs() const { return specs_; }

 private:
  const FlagSpec& spec(const std::string& name, FlagType type) const;

  std::vector<FlagSpec> specs_;
  std::vector<std::string> values_;  // parallel to specs_
  std::vector<bool> given_;          // parallel to specs_
};

/// Table-building helpers — the idiomatic way to declare a flag, keeping
/// tables terse without partially-initialized aggregates.
FlagSpec count_flag(std::string name, std::string fallback, std::string help,
                    double min_value = 0.0, double max_value = kUnbounded);
FlagSpec number_flag(std::string name, std::string fallback, std::string help,
                     double min_value = 0.0, double max_value = kUnbounded,
                     std::string value_name = "X");
FlagSpec text_flag(std::string name, std::string fallback, std::string help,
                   std::string value_name = "VALUE");
FlagSpec toggle_flag(std::string name, std::string fallback,
                     std::string help);

/// Validate `text` against one spec (type + range). Empty on success, else
/// the friendly diagnostic. Exposed for config-file front ends.
std::string validate_flag_value(const FlagSpec& spec, const std::string& text);

/// Concatenate flag tables (command-specific + shared serving table).
std::vector<FlagSpec> merge_flags(std::vector<FlagSpec> base,
                                  const std::vector<FlagSpec>& extra);

}  // namespace rsnn::flags
