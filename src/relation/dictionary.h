// Per-attribute value dictionary: bijective mapping string <-> ValueId.
#ifndef PCBL_RELATION_DICTIONARY_H_
#define PCBL_RELATION_DICTIONARY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relation/value.h"
#include "util/status.h"

namespace pcbl {

/// Maps the distinct string values of one attribute to dense ValueIds
/// [0, size()). Ids are assigned in first-seen order and are stable.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the id for `value`, interning it if previously unseen.
  ValueId Intern(std::string_view value);

  /// Returns the id for `value`, or kNullValue when unknown (does not
  /// modify the dictionary).
  ValueId Lookup(std::string_view value) const;

  /// True when `value` is interned.
  bool Contains(std::string_view value) const {
    return Lookup(value) != kNullValue;
  }

  /// The string for a (valid, non-null) id.
  const std::string& GetString(ValueId id) const;

  /// Number of distinct interned values.
  ValueId size() const { return static_cast<ValueId>(values_.size()); }

  /// All interned values, indexed by id.
  const std::vector<std::string>& values() const { return values_; }

 private:
  // Hashes std::string and std::string_view alike, so Intern and Lookup
  // probe with the caller's view instead of building a std::string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> values_;
  std::unordered_map<std::string, ValueId, ViewHash, std::equal_to<>> index_;
};

}  // namespace pcbl

#endif  // PCBL_RELATION_DICTIONARY_H_
