#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

void AppendCode(uint32_t code, std::string* key) {
  char bytes[sizeof(code)];
  std::memcpy(bytes, &code, sizeof(code));
  key->append(bytes, sizeof(code));
}

// Bits that hold every code of a domain of `size` values.
int CodeBits(size_t size) {
  int bits = 1;
  while ((size_t{1} << bits) < size) ++bits;
  return bits;
}

// Splits CSV text into records of fields (RFC 4180: quoted fields may hold
// separators, doubled quotes and line breaks). Calls `emit` per record.
template <typename Emit>
pcbl::Status ParseCsv(std::string_view text, Emit emit) {
  std::vector<std::string> fields;
  std::string field;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    fields.clear();
    bool end_of_record = false;
    while (!end_of_record) {
      field.clear();
      if (i < n && text[i] == '"') {
        ++i;
        while (true) {
          if (i >= n) return pcbl::InvalidArgumentError("unterminated quote");
          if (text[i] == '"') {
            if (i + 1 < n && text[i + 1] == '"') {
              field.push_back('"');
              i += 2;
              continue;
            }
            ++i;
            break;
          }
          field.push_back(text[i++]);
        }
      } else {
        while (i < n && text[i] != ',' && text[i] != '\n' && text[i] != '\r') {
          field.push_back(text[i++]);
        }
      }
      fields.push_back(field);
      if (i < n && text[i] == ',') {
        ++i;
      } else {
        if (i < n && text[i] == '\r') ++i;
        if (i < n && text[i] == '\n') ++i;
        end_of_record = true;
      }
    }
    PCBL_RETURN_IF_ERROR(emit(fields));
  }
  return pcbl::Status::Ok();
}

}  // namespace

Oracle::Oracle(std::vector<std::string> attribute_names)
    : names_(std::move(attribute_names)),
      index_(names_.size()),
      values_(names_.size()),
      value_counts_(names_.size()) {}

pcbl::Result<Oracle> Oracle::FromCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return pcbl::IOError("cannot open " + path);
  std::string text(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  if (!in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
    return pcbl::IOError("cannot read " + path);
  }
  std::vector<Oracle> made;
  std::vector<std::string_view> views;
  pcbl::Status parsed =
      ParseCsv(text, [&](const std::vector<std::string>& fields) {
        if (made.empty()) {
          made.emplace_back(fields);
          return pcbl::Status::Ok();
        }
        views.assign(fields.begin(), fields.end());
        return made.front().AddRow(views);
      });
  if (!parsed.ok()) return parsed;
  if (made.empty()) return pcbl::InvalidArgumentError(path + " is empty");
  return std::move(made.front());
}


pcbl::Status Oracle::AddRow(const std::vector<std::string_view>& values) {
  if (values.size() != names_.size()) {
    return pcbl::InvalidArgumentError(
        "row " + std::to_string(rows_) + " has " +
        std::to_string(values.size()) + " fields, expected " +
        std::to_string(names_.size()));
  }
  std::string key;
  key.reserve(names_.size() * sizeof(uint32_t));
  const size_t row_start = codes_.size();
  for (size_t a = 0; a < values.size(); ++a) {
    if (values[a].empty()) {
      return pcbl::InvalidArgumentError("row " + std::to_string(rows_) +
                                        " holds an empty field");
    }
    auto it = index_[a].find(values[a]);
    if (it == index_[a].end()) {
      it = index_[a]
               .emplace(std::string(values[a]),
                        static_cast<uint32_t>(values_[a].size()))
               .first;
      values_[a].emplace_back(values[a]);
      value_counts_[a].push_back(0);
    }
    ++value_counts_[a][it->second];
    codes_.push_back(it->second);
    AppendCode(it->second, &key);
  }
  auto [slot, inserted] = full_index_.try_emplace(key, full_counts_.size());
  if (inserted) {
    full_codes_.insert(full_codes_.end(), codes_.begin() + static_cast<std::ptrdiff_t>(row_start),
                       codes_.end());
    full_counts_.push_back(0);
  }
  ++full_counts_[slot->second];
  ++rows_;
  return pcbl::Status::Ok();
}

int Oracle::FindAttribute(std::string_view name) const {
  for (size_t a = 0; a < names_.size(); ++a) {
    if (names_[a] == name) return static_cast<int>(a);
  }
  return -1;
}

std::vector<std::string> Oracle::RowValues(int64_t r) const {
  std::vector<std::string> out;
  const size_t width = names_.size();
  for (size_t a = 0; a < width; ++a) {
    out.push_back(values_[a][codes_[static_cast<size_t>(r) * width + a]]);
  }
  return out;
}

pcbl::Result<int64_t> Oracle::Count(const Terms& pattern) const {
  std::vector<std::pair<size_t, uint32_t>> terms;
  for (const auto& [name, value] : pattern) {
    const int attr = FindAttribute(name);
    if (attr < 0) return pcbl::NotFoundError("unknown attribute " + name);
    auto it = index_[static_cast<size_t>(attr)].find(value);
    if (it == index_[static_cast<size_t>(attr)].end()) return int64_t{0};
    terms.emplace_back(static_cast<size_t>(attr), it->second);
  }
  const size_t width = names_.size();
  int64_t total = 0;
  for (size_t p = 0; p < full_counts_.size(); ++p) {
    const uint32_t* codes = &full_codes_[p * width];
    bool match = true;
    for (const auto& [attr, code] : terms) match = match && codes[attr] == code;
    if (match) total += full_counts_[p];
  }
  return total;
}

int64_t Oracle::DistinctPairs(int a, int b) const {
  const size_t width = names_.size();
  const size_t domain_b = values_[static_cast<size_t>(b)].size();
  std::vector<bool> seen(values_[static_cast<size_t>(a)].size() * domain_b, false);
  int64_t distinct = 0;
  for (size_t p = 0; p < full_counts_.size(); ++p) {
    const uint32_t* codes = &full_codes_[p * width];
    const size_t cell = codes[a] * domain_b + codes[b];
    if (!seen[cell]) {
      seen[cell] = true;
      ++distinct;
    }
  }
  return distinct;
}

uint64_t Oracle::Groups::Key(const uint32_t* group_codes) const {
  uint64_t key = 0;
  for (size_t j = 0; j < attrs.size(); ++j) {
    key |= uint64_t{group_codes[j]} << shifts[j];
  }
  return key;
}

pcbl::Result<Oracle::Groups> Oracle::GroupBy(const std::vector<int>& attrs) const {
  Groups groups;
  groups.attrs = attrs;
  int bits = 0;
  for (int a : attrs) {
    groups.shifts.push_back(bits);
    bits += CodeBits(values_[static_cast<size_t>(a)].size());
  }
  if (bits > 64) {
    return pcbl::OutOfRangeError("attribute set too wide for a 64-bit key");
  }
  const size_t width = names_.size();
  std::vector<uint32_t> projected(attrs.size());
  for (size_t p = 0; p < full_counts_.size(); ++p) {
    const uint32_t* codes = &full_codes_[p * width];
    for (size_t j = 0; j < attrs.size(); ++j) {
      projected[j] = codes[attrs[j]];
    }
    auto [it, inserted] =
        groups.index.try_emplace(groups.Key(projected.data()), groups.counts.size());
    if (inserted) {
      groups.codes.insert(groups.codes.end(), projected.begin(), projected.end());
      groups.counts.push_back(0);
    }
    groups.counts[it->second] += full_counts_[p];
  }
  return groups;
}

std::string Oracle::CheckLabel(const pcbl::PortableLabel& label,
                               const LabelExpectation& expect) const {
  if (label.total_rows != rows_) {
    return "label total_rows " + std::to_string(label.total_rows) +
           " != rows " + std::to_string(rows_);
  }
  if (label.attribute_names != names_) return "label attribute names differ";
  if (label.size() > expect.bound) {
    return "label |PC| " + std::to_string(label.size()) + " exceeds bound " +
           std::to_string(expect.bound);
  }
  // VC: exactly the values that occur, each with its count.
  if (label.value_counts.size() != names_.size()) return "VC width differs";
  for (size_t a = 0; a < names_.size(); ++a) {
    int64_t occurring = 0;
    for (int64_t c : value_counts_[a]) occurring += c > 0 ? 1 : 0;
    if (static_cast<int64_t>(label.value_counts[a].size()) != occurring) {
      return "VC of " + names_[a] + " lists " +
             std::to_string(label.value_counts[a].size()) +
             " values, data has " + std::to_string(occurring);
    }
    std::vector<bool> seen(values_[a].size(), false);
    for (const auto& [value, count] : label.value_counts[a]) {
      auto it = index_[a].find(value);
      if (it == index_[a].end()) {
        return "VC of " + names_[a] + " lists a value absent from the data";
      }
      const int64_t want = value_counts_[a][it->second];
      if (count != want || seen[it->second]) {
        return "VC count of " + names_[a] + "=" + value + " is " +
               std::to_string(count) + ", data has " + std::to_string(want);
      }
      seen[it->second] = true;
    }
  }
  // PC: exactly the groups over S, each with its count.
  const std::vector<int>& s = label.label_attributes;
  for (size_t j = 0; j < s.size(); ++j) {
    if (s[j] < 0 || s[j] >= num_attributes() || (j > 0 && s[j] <= s[j - 1])) {
      return "label attribute list is not ascending and in range";
    }
  }
  if (s.empty()) {
    if (label.size() != 0) return "label without attributes holds patterns";
    return CheckMaxAbs(s, expect);
  }
  auto groups = GroupBy(s);
  if (!groups.ok()) return groups.status().ToString();
  if (static_cast<int64_t>(groups->counts.size()) != label.size()) {
    return "PC holds " + std::to_string(label.size()) +
           " patterns, data has " + std::to_string(groups->counts.size()) +
           " groups over S";
  }
  std::vector<bool> seen(groups->counts.size(), false);
  std::vector<uint32_t> codes(s.size());
  for (const auto& [values, count] : label.pattern_counts) {
    if (values.size() != s.size()) return "PC entry width differs from |S|";
    for (size_t j = 0; j < s.size(); ++j) {
      const ValueIndex& index = index_[static_cast<size_t>(s[j])];
      auto it = index.find(values[j]);
      if (it == index.end()) return "PC entry names a value absent from the data";
      codes[j] = it->second;
    }
    auto g = groups->index.find(groups->Key(codes.data()));
    if (g == groups->index.end()) return "PC entry names a combination absent from the data";
    const int64_t want = groups->counts[g->second];
    if (count != want || seen[g->second]) {
      return "PC count " + std::to_string(count) + " != data count " +
             std::to_string(want);
    }
    seen[g->second] = true;
  }
  return CheckMaxAbs(s, expect);
}

// Recomputes max_p |c(p) - Est(p)| over the evaluation set F (P_A when no
// focus): Est(p) is c(p restricted to S ∩ F), or |D| when S ∩ F is empty,
// times c(p_a) / |D| for each attribute a of F outside S (Definition
// 2.11). The counts are the oracle's; CheckLabel has already shown the
// label's PC and VC equal them.
std::string Oracle::CheckMaxAbs(const std::vector<int>& label_attrs,
                                const LabelExpectation& expect) const {
  const size_t width = names_.size();
  std::vector<int> eval = expect.focus;
  if (eval.empty()) {
    for (int a = 0; a < num_attributes(); ++a) eval.push_back(a);
  }
  std::vector<bool> in_s(width, false);
  for (int a : label_attrs) in_s[static_cast<size_t>(a)] = true;
  std::vector<int> shared;      // S ∩ F
  std::vector<size_t> shared_pos;  // their positions within F
  for (size_t j = 0; j < eval.size(); ++j) {
    if (in_s[static_cast<size_t>(eval[j])]) {
      shared.push_back(eval[j]);
      shared_pos.push_back(j);
    }
  }
  auto base = GroupBy(shared);
  if (!base.ok()) return base.status().ToString();
  // The evaluation patterns: the full patterns themselves for P_A.
  const uint32_t* group_codes = full_codes_.data();
  const int64_t* group_counts = full_counts_.data();
  size_t num_groups = full_counts_.size();
  pcbl::Result<Groups> focus_groups = Groups{};
  if (eval.size() != width) {
    focus_groups = GroupBy(eval);
    if (!focus_groups.ok()) return focus_groups.status().ToString();
    group_codes = focus_groups->codes.data();
    group_counts = focus_groups->counts.data();
    num_groups = focus_groups->counts.size();
  }
  const double rows = static_cast<double>(rows_);
  std::vector<uint32_t> projected(shared.size());
  double max_abs = 0.0;
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t* codes = group_codes + g * eval.size();
    double est = rows;
    if (!shared.empty()) {
      for (size_t j = 0; j < shared.size(); ++j) projected[j] = codes[shared_pos[j]];
      auto it = base->index.find(base->Key(projected.data()));
      est = it == base->index.end() ? 0.0 : static_cast<double>(base->counts[it->second]);
    }
    for (size_t j = 0; j < eval.size(); ++j) {
      const auto a = static_cast<size_t>(eval[j]);
      if (in_s[a]) continue;
      // Each attribute's non-NULL total is |D|: the data holds no NULLs.
      est *= static_cast<double>(value_counts_[a][codes[j]]) / rows;
    }
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(group_counts[g]) - est));
  }
  if (expect.reported_patterns >= 0 &&
      expect.reported_patterns != static_cast<int64_t>(num_groups)) {
    return "program evaluated |P| = " +
           std::to_string(expect.reported_patterns) + ", data has " +
           std::to_string(num_groups);
  }
  if (std::fabs(max_abs - expect.reported_max_abs) > expect.max_abs_tolerance) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "max abs error " << expect.reported_max_abs
        << " reported, recomputed " << max_abs;
    return msg.str();
  }
  return "";
}

std::string Oracle::CheckCount(const Terms& pattern, int64_t reported,
                               const pcbl::PortableLabel& label,
                               std::optional<double> estimate) const {
  auto want = Count(pattern);
  if (!want.ok()) return want.status().ToString();
  if (*want != reported) {
    return "true count " + std::to_string(reported) + " != data count " +
           std::to_string(*want);
  }
  auto est = Estimate(label, pattern);
  if (!est.ok()) return est.status().ToString();
  if (!estimate.has_value() ||
      std::fabs(*est - *estimate) > 1e-9 * std::max(1.0, *est)) {
    return "label estimate differs from Definition 2.11";
  }
  return "";
}

pcbl::Result<double> Oracle::Estimate(const pcbl::PortableLabel& label,
                                      const Terms& pattern) {
  auto attr_of = [&](const std::string& name) {
    for (size_t a = 0; a < label.attribute_names.size(); ++a) {
      if (label.attribute_names[a] == name) return static_cast<int>(a);
    }
    return -1;
  };
  // Terms on S select the base count c(p|S); the others scale it by
  // their value's frequency (independence outside S).
  std::vector<std::pair<size_t, const std::string*>> on_s;
  std::vector<std::pair<int, const std::string*>> off_s;
  for (const auto& [name, value] : pattern) {
    const int attr = attr_of(name);
    if (attr < 0) return pcbl::NotFoundError("unknown attribute " + name);
    const auto& s = label.label_attributes;
    const auto it = std::find(s.begin(), s.end(), attr);
    if (it != s.end()) {
      on_s.emplace_back(static_cast<size_t>(it - s.begin()), &value);
    } else {
      off_s.emplace_back(attr, &value);
    }
  }
  double est = static_cast<double>(label.total_rows);
  if (!on_s.empty()) {
    int64_t base = 0;
    for (const auto& [values, count] : label.pattern_counts) {
      bool match = true;
      for (const auto& [pos, value] : on_s) match = match && values[pos] == *value;
      if (match) base += count;
    }
    est = static_cast<double>(base);
  }
  for (const auto& [attr, value] : off_s) {
    int64_t count = 0;
    int64_t total = 0;
    for (const auto& [v, c] : label.value_counts[static_cast<size_t>(attr)]) {
      total += c;
      if (v == *value) count = c;
    }
    if (total == 0) return 0.0;
    est *= static_cast<double>(count) / static_cast<double>(total);
  }
  return est;
}

}  // namespace perfbench
