// The benchmark's own counts over the rows a workload fed the program.
//
// Every check of a program output is made against this class, never
// against a saved copy of an earlier output. It interns the raw value
// strings itself and counts with its own hash maps, so it shares no
// counting, dictionary or estimator code with the library it checks.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/portable_label.h"
#include "util/status.h"

namespace perfbench {

using Terms = std::vector<std::pair<std::string, std::string>>;

/// What a label must satisfy beyond agreeing with the oracle's counts.
struct LabelExpectation {
  int64_t bound = 0;
  /// Attributes of the evaluation pattern set; empty = P_A (all).
  std::vector<int> focus;
  /// Max absolute error the program reported for the label, and how far
  /// the recomputed value may lie from it (0.5 for a figure the CLI
  /// printed rounded to a whole number; a rounding slack otherwise).
  double reported_max_abs = 0.0;
  double max_abs_tolerance = 0.0;
  /// |P| the program reported; -1 when it reported none.
  int64_t reported_patterns = -1;
};

class Oracle {
 public:
  explicit Oracle(std::vector<std::string> attribute_names);

  /// Parses a CSV file with a header line (RFC 4180 quoting).
  static pcbl::Result<Oracle> FromCsvFile(const std::string& path);

  /// Adds one row of raw value strings. The generated data holds no
  /// NULLs; an empty field is rejected because the oracle does not model
  /// the program's NULL rules.
  pcbl::Status AddRow(const std::vector<std::string_view>& values);

  int64_t rows() const { return rows_; }
  int num_attributes() const { return static_cast<int>(names_.size()); }
  /// Index of an attribute name, or -1.
  int FindAttribute(std::string_view name) const;
  /// Row r's value strings.
  std::vector<std::string> RowValues(int64_t r) const;
  /// Number of full patterns (|P_A|).
  int64_t NumFullPatterns() const {
    return static_cast<int64_t>(full_counts_.size());
  }

  /// c_D(p). Unknown attributes are an error; unknown values count 0.
  pcbl::Result<int64_t> Count(const Terms& pattern) const;
  /// Distinct value pairs of attributes a and b.
  int64_t DistinctPairs(int a, int b) const;

  /// Empty when `label` is a correct label of the current rows under
  /// `expect`; otherwise the first mismatch found.
  std::string CheckLabel(const pcbl::PortableLabel& label,
                         const LabelExpectation& expect) const;

  /// Empty when `reported` is c_D(pattern) and `estimate` is `label`'s
  /// Definition 2.11 estimate of the pattern (both as the program
  /// answered a true count paired with a label); otherwise the mismatch.
  std::string CheckCount(const Terms& pattern, int64_t reported,
                         const pcbl::PortableLabel& label,
                         std::optional<double> estimate) const;

  /// Definition 2.11's estimate of `pattern` from the label's contents.
  static pcbl::Result<double> Estimate(const pcbl::PortableLabel& label,
                                       const Terms& pattern);

 private:
  // The distinct value combinations over `attrs` with their counts; a
  // combination's codes are packed into one 64-bit key for lookups.
  struct Groups {
    std::vector<int> attrs;
    std::vector<int> shifts;
    std::vector<uint32_t> codes;  // attrs.size() per group
    std::vector<int64_t> counts;
    std::unordered_map<uint64_t, size_t> index;

    uint64_t Key(const uint32_t* group_codes) const;
  };

  // Group-by over `attrs` (ascending) from the full-pattern counts; an
  // error when the attributes' codes do not fit one 64-bit key.
  pcbl::Result<Groups> GroupBy(const std::vector<int>& attrs) const;
  std::string CheckMaxAbs(const std::vector<int>& label_attrs,
                          const LabelExpectation& expect) const;

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using ValueIndex =
      std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>;

  std::vector<std::string> names_;
  std::vector<ValueIndex> index_;
  std::vector<std::vector<std::string>> values_;
  std::vector<std::vector<int64_t>> value_counts_;
  std::vector<uint32_t> codes_;  // row-major
  int64_t rows_ = 0;
  // Full patterns: a row's codes as bytes -> position in the flat arrays.
  std::unordered_map<std::string, size_t> full_index_;
  std::vector<uint32_t> full_codes_;  // num_attributes() per pattern
  std::vector<int64_t> full_counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
