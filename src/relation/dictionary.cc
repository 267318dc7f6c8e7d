#include "relation/dictionary.h"

#include "util/logging.h"

namespace pcbl {

ValueId Dictionary::Intern(std::string_view value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  ValueId id = static_cast<ValueId>(values_.size());
  PCBL_CHECK(id != kNullValue) << "dictionary overflow";
  values_.emplace_back(value);
  index_.emplace(values_.back(), id);
  return id;
}

ValueId Dictionary::Lookup(std::string_view value) const {
  auto it = index_.find(value);
  if (it == index_.end()) return kNullValue;
  return it->second;
}

const std::string& Dictionary::GetString(ValueId id) const {
  PCBL_CHECK(id < values_.size()) << "invalid dictionary id " << id;
  return values_[id];
}

}  // namespace pcbl
