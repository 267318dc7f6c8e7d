// Build workloads: input generation, the label checker, and the traced
// build. The untraced builds are `pcbl build` processes that run.py
// starts and times itself.
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/portable_label.h"
#include "core/search.h"
#include "driver.h"
#include "oracle.h"
#include "pattern/full_pattern_index.h"
#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "relation/stats.h"
#include "trace.h"

namespace perfbench {

int CmdGen(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const std::string out = flags.Get("out");
  Report report;
  auto start = Clock::now();
  auto table = MakeDataset(dataset, flags.GetInt("rows"),
                           static_cast<uint64_t>(flags.GetInt("seed")));
  if (!table.ok()) {
    std::fprintf(stderr, "gen: %s\n", table.status().ToString().c_str());
    return 1;
  }
  report.values["synth_s"] = SecondsSince(start);
  start = Clock::now();
  if (pcbl::Status s = pcbl::WriteCsvFile(*table, out); !s.ok()) {
    std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
    return 1;
  }
  report.values["write_s"] = SecondsSince(start);
  report.values["csv_mb"] = FileMb(out);
  report.values["rows"] = static_cast<double>(table->num_rows());
  report.values["attributes"] = table->num_attributes();
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

// Each --label is PATH:REPORTED_MAX_ABS:REPORTED_PATTERNS:TOLERANCE.
int CmdCheckBuild(const Flags& flags) {
  Report report;
  auto oracle = Oracle::FromCsvFile(flags.Get("csv"));
  if (!oracle.ok()) {
    std::fprintf(stderr, "check-build: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  for (const std::string& spec : flags.GetAll("label")) {
    ++report.attempted;
    const size_t c3 = spec.rfind(':');
    const size_t c2 = spec.rfind(':', c3 - 1);
    const size_t c1 = spec.rfind(':', c2 - 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos) {
      std::fprintf(stderr, "check-build: bad --label %s\n", spec.c_str());
      return 2;
    }
    const std::string path = spec.substr(0, c1);
    auto label = pcbl::LoadLabel(path);
    if (!label.ok()) {
      report.Mismatch(path + ": " + label.status().ToString());
      continue;
    }
    LabelExpectation expect;
    expect.bound = flags.GetInt("bound");
    expect.reported_max_abs = std::stod(spec.substr(c1 + 1, c2 - c1 - 1));
    expect.reported_patterns = std::stoll(spec.substr(c2 + 1, c3 - c2 - 1));
    expect.max_abs_tolerance = std::stod(spec.substr(c3 + 1));
    const std::string problem = oracle->CheckLabel(*label, expect);
    if (!problem.empty()) report.Mismatch(path + ": " + problem);
  }
  report.values["rows"] = static_cast<double>(oracle->rows());
  report.values["full_patterns"] =
      static_cast<double>(oracle->NumFullPatterns());
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

// The library calls `pcbl build` makes, in its order, each in a span:
// ingest, fingerprint and service acquire (api::Dataset::FromCsvFile),
// VC and P_A (the session's first-query sync), the top-down search, and
// the portable label's construction, encoding and write.
int CmdTraceBuild(const Flags& flags) {
  const std::string csv = flags.Get("csv");
  const std::string out = flags.Get("out");
  Tracer tracer(true);
  Report report;
  const auto start = Clock::now();
  const int build = tracer.Begin("cli.build", 0);

  int span = tracer.Begin("relation.ReadCsvFile", 0);
  auto table = pcbl::ReadCsvFile(csv);
  tracer.End(span);
  if (!table.ok()) {
    std::fprintf(stderr, "trace-build: %s\n", table.status().ToString().c_str());
    return 1;
  }
  auto shared = std::make_shared<const pcbl::Table>(std::move(*table));

  span = tracer.Begin("pattern.FingerprintTable", 0);
  const pcbl::TableFingerprint fingerprint = pcbl::FingerprintTable(*shared);
  tracer.End(span);
  (void)fingerprint;
  span = tracer.Begin("pattern.ServiceRegistry::Acquire", 0);
  std::shared_ptr<pcbl::CountingService> service =
      pcbl::ServiceRegistry::Global().Acquire(shared);
  tracer.End(span);

  span = tracer.Begin("relation.ValueCounts::Compute", 0);
  auto vc = std::make_shared<const pcbl::ValueCounts>(
      pcbl::ValueCounts::Compute(*shared));
  tracer.End(span);
  span = tracer.Begin("pattern.FullPatternIndex::Build", 0);
  auto fpi = std::make_shared<const pcbl::FullPatternIndex>(
      pcbl::FullPatternIndex::Build(*shared));
  tracer.End(span);

  pcbl::SearchOptions options;
  options.size_bound = flags.GetInt("bound");
  options.num_threads = static_cast<int>(flags.GetInt("threads"));
  span = tracer.Begin("core.LabelSearch::TopDown", 0);
  pcbl::LabelSearch search(*shared, vc, fpi, service);
  const pcbl::SearchResult result = search.TopDown(options);
  tracer.End(span);

  // `pcbl build` names the label after the CSV file.
  const std::string name = csv.substr(csv.find_last_of('/') + 1);
  span = tracer.Begin("core.MakePortable", 0);
  const pcbl::PortableLabel portable =
      pcbl::MakePortable(result.label, *shared, name);
  tracer.End(span);
  span = tracer.Begin("core.ToBinary", 0);
  const std::string bytes = pcbl::ToBinary(portable);
  tracer.End(span);
  span = tracer.Begin("core.WriteLabelFile", 0);
  {
    std::ofstream file(out, std::ios::binary);
    file << bytes;
    if (!file) {
      std::fprintf(stderr, "trace-build: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  tracer.End(span);
  tracer.End(build);
  report.values["traced_wall_s"] = SecondsSince(start);

  const double csv_mb = FileMb(csv);
  const double ingest_s = tracer.TotalSeconds("relation.ReadCsvFile");
  report.values["relation.ingest_s"] = ingest_s;
  report.values["relation.ingest_mb_per_s"] = csv_mb / ingest_s;
  report.values["pattern.fingerprint_s"] =
      tracer.TotalSeconds("pattern.FingerprintTable");
  report.values["pattern.vc_pa_s"] =
      tracer.TotalSeconds("relation.ValueCounts::Compute") +
      tracer.TotalSeconds("pattern.FullPatternIndex::Build");
  report.values["core.search_s"] =
      tracer.TotalSeconds("core.LabelSearch::TopDown");
  report.values["core.label_encode_ms"] =
      1e3 * (tracer.TotalSeconds("core.MakePortable") +
             tracer.TotalSeconds("core.ToBinary"));
  report.values["core.subsets_examined"] =
      static_cast<double>(result.stats.subsets_examined);
  const pcbl::CountingEngineStats engine = service->StatsSnapshot();
  report.values["engine.full_scans"] = static_cast<double>(engine.full_scans);
  report.values["engine.rollups"] = static_cast<double>(engine.rollups);
  report.values["engine.cache_hits"] = static_cast<double>(engine.cache_hits);
  report.values["label.max_abs"] = result.error.max_abs;
  report.values["label.patterns"] = static_cast<double>(result.error.total);
  report.values["label.size"] = static_cast<double>(portable.size());
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    report.values["self." + layer + "_s"] = seconds;
  }
  report.values["trace.spans_s"] = tracer.TotalSeconds("cli.build");
  report.attempted = 1;
  if (pcbl::Status s = tracer.WriteJson(flags.Get("trace-out")); !s.ok()) {
    std::fprintf(stderr, "trace-build: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace perfbench
