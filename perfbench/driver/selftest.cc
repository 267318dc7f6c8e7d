// selftest: the checkers must accept the program's real outputs and
// reject each kind of wrong one — a wrong pattern or value count, an
// over-bound label, a wrong reported error, a wrong true count and a
// wrong estimate.
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "driver.h"
#include "oracle.h"
#include "pattern/service_registry.h"

namespace perfbench {

int CmdSelftest(const Flags&) {
  Report report;
  auto table = MakeDataset("compas", 3000, 11);
  if (!table.ok()) {
    std::fprintf(stderr, "selftest: %s\n", table.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> names;
  for (int a = 0; a < table->num_attributes(); ++a) {
    names.push_back(table->schema().name(a));
  }
  Oracle oracle(names);
  std::vector<std::string> row(names.size());
  std::vector<std::string_view> views(names.size());
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    for (size_t a = 0; a < names.size(); ++a) {
      row[a] = table->ValueString(r, static_cast<int>(a));
      views[a] = row[a];
    }
    if (pcbl::Status s = oracle.AddRow(views); !s.ok()) {
      std::fprintf(stderr, "selftest: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  auto dataset = pcbl::api::Dataset::FromTable(std::move(*table));
  if (!dataset.ok()) return 1;
  auto session = pcbl::api::Session::Open(*dataset);
  if (!session.ok()) return 1;
  pcbl::api::QuerySpec search_spec = pcbl::api::QuerySpec::LabelSearch(40);
  search_spec.num_threads = 2;
  const pcbl::api::QueryResult search = (*session)->Run(search_spec);
  pcbl::api::QuerySpec focus_spec = pcbl::api::QuerySpec::LabelSearch(30);
  focus_spec.focus.Set(0);
  focus_spec.focus.Set(2);
  const pcbl::api::QueryResult focused = (*session)->Run(focus_spec);
  if (!search.status.ok() || !focused.status.ok()) return 1;
  const pcbl::PortableLabel label =
      pcbl::MakePortable(search.search.label, dataset->table());
  const pcbl::PortableLabel focus_label =
      pcbl::MakePortable(focused.search.label, dataset->table());

  LabelExpectation expect;
  expect.bound = 40;
  expect.reported_max_abs = search.search.error.max_abs;
  expect.max_abs_tolerance = 1e-6 * std::max(1.0, expect.reported_max_abs);
  expect.reported_patterns = search.search.error.total;
  LabelExpectation focus_expect = expect;
  focus_expect.bound = 30;
  focus_expect.focus = {0, 2};
  focus_expect.reported_max_abs = focused.search.error.max_abs;
  focus_expect.reported_patterns = focused.search.error.total;

  const Terms pattern = {{names[0], oracle.RowValues(5)[0]},
                         {names[3], oracle.RowValues(5)[3]}};
  pcbl::api::QuerySpec count_spec = pcbl::api::QuerySpec::TrueCount(pattern);
  count_spec.label = std::make_shared<const pcbl::PortableLabel>(label);
  const pcbl::api::QueryResult count = (*session)->Run(count_spec);
  if (!count.status.ok()) return 1;

  // Each case: a name, whether the checker must accept, and the check.
  struct Case {
    std::string name;
    bool accept;
    std::function<std::string()> check;
  };
  const std::vector<Case> cases = {
      {"real label", true, [&] { return oracle.CheckLabel(label, expect); }},
      {"real focus label", true,
       [&] { return oracle.CheckLabel(focus_label, focus_expect); }},
      {"wrong pattern count", false,
       [&] {
         pcbl::PortableLabel bad = label;
         bad.pattern_counts.front().second += 1;
         return oracle.CheckLabel(bad, expect);
       }},
      {"wrong value count", false,
       [&] {
         pcbl::PortableLabel bad = label;
         bad.value_counts.back().front().second -= 1;
         return oracle.CheckLabel(bad, expect);
       }},
      {"over-bound label", false,
       [&] {
         LabelExpectation tight = expect;
         tight.bound = label.size() - 1;
         return oracle.CheckLabel(label, tight);
       }},
      {"wrong total rows", false,
       [&] {
         pcbl::PortableLabel bad = label;
         bad.total_rows += 1;
         return oracle.CheckLabel(bad, expect);
       }},
      {"wrong reported error", false,
       [&] {
         LabelExpectation off = expect;
         off.reported_max_abs += 1.0;
         return oracle.CheckLabel(label, off);
       }},
      {"real true count", true,
       [&] {
         return oracle.CheckCount(pattern, count.true_count, label,
                                  count.estimate);
       }},
      {"wrong true count", false,
       [&] {
         return oracle.CheckCount(pattern, count.true_count + 1, label,
                                  count.estimate);
       }},
      {"wrong estimate", false,
       [&] {
         return oracle.CheckCount(pattern, count.true_count, label,
                                  *count.estimate * 1.01 + 1.0);
       }},
  };
  for (const Case& c : cases) {
    ++report.attempted;
    const std::string problem = c.check();
    const bool accepted = problem.empty();
    std::printf("%-22s %s%s%s\n", c.name.c_str(),
                accepted ? "accepted" : "rejected",
                accepted ? "" : ": ", problem.c_str());
    if (accepted != c.accept) {
      ++report.failed;
      report.Mismatch(c.name + (c.accept ? " was rejected" : " was accepted"));
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct ? 0 : 1;
}

}  // namespace perfbench
