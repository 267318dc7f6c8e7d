// append_mixed: one api::Session over a bluenile table, one client.
//
// Set-up generates the rows to append (the same generator under another
// seed) and the base table, opens the dataset and a session, and runs the
// first search (the session's VC/P_A sync and the engine's first scans).
// The timed phase appends the rows in seeded batches; each batch is
// followed by a label search not sent before and by true counts paired
// with the new label's estimate. Every reply is checked afterwards
// against the oracle fed the same rows in the same order.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/artifact.h"
#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "core/portable_label.h"
#include "driver.h"
#include "oracle.h"
#include "pattern/service_registry.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr int kThreads = 2;
// Rows per appended batch, uniform in [kBatchMin, kBatchMax], and true
// counts after each batch's search. No traffic is recorded for this
// repository, so these are chosen, not measured; README gives the reason
// for each.
constexpr int64_t kBatchMin = 200;
constexpr int64_t kBatchMax = 2000;
constexpr int kCountsPerRound = 6;

using Rows = std::vector<std::vector<std::string>>;

struct Round {
  // Rows [begin, end) of the table of rows to append.
  int64_t begin = 0;
  int64_t end = 0;
  int64_t bound = 0;
  std::vector<int> focus;
  std::vector<Terms> counts;
};

// What the checks and metrics need of a round's replies. The replies
// themselves are dropped, so the benchmark holds little when the peak
// resident set is read.
struct CountReply {
  int64_t true_count = 0;
  std::optional<double> estimate;
};

struct RoundOutcome {
  double append_ms = 0.0;
  double search_ms = 0.0;
  std::vector<double> count_ms;
  bool ok = true;
  int64_t total_rows = 0;
  double max_abs = 0.0;
  int64_t patterns = 0;
  double search_seconds = 0.0;
  int64_t subsets_examined = 0;
  std::shared_ptr<const pcbl::PortableLabel> label;
  std::vector<CountReply> counts;
};

// Rows [begin, end) of `table` as strings, into `rows`.
void RowStrings(const pcbl::Table& table, int64_t begin, int64_t end,
                Rows* rows) {
  rows->resize(static_cast<size_t>(end - begin));
  for (int64_t r = begin; r < end; ++r) {
    std::vector<std::string>& row = (*rows)[static_cast<size_t>(r - begin)];
    row.resize(static_cast<size_t>(table.num_attributes()));
    for (int a = 0; a < table.num_attributes(); ++a) {
      row[static_cast<size_t>(a)] = table.ValueString(r, a);
    }
  }
}

pcbl::api::QuerySpec SearchSpec(int64_t bound, const std::vector<int>& focus) {
  pcbl::api::QuerySpec spec = pcbl::api::QuerySpec::LabelSearch(bound);
  for (int a : focus) spec.focus.Set(a);
  spec.num_threads = kThreads;
  return spec;
}

struct Setup {
  std::unique_ptr<pcbl::api::Session> session;
  std::shared_ptr<const pcbl::Table> base;
  // The rows to append, generated whole; each round's batch is turned
  // into strings just before it is appended.
  std::unique_ptr<const pcbl::Table> appended;
  // Resident growth over generating `appended`: the benchmark's own data.
  double appended_mb = 0.0;
};

// The batch sizes, fixed by the seed.
std::vector<int64_t> BatchSizes(uint64_t seed, int64_t rounds) {
  std::mt19937_64 rng(seed ^ 0xba7c4ULL);
  std::vector<int64_t> sizes;
  for (int64_t k = 0; k < rounds; ++k) {
    sizes.push_back(kBatchMin + static_cast<int64_t>(
                                    rng() % static_cast<uint64_t>(kBatchMax - kBatchMin + 1)));
  }
  return sizes;
}

// The rounds, fixed by the seed: batch ranges, search specs (no spec
// repeats), and count patterns drawn from the rows committed by then.
std::vector<Round> MakeRounds(uint64_t seed, const pcbl::Table& base,
                              const pcbl::Table& appended,
                              const std::vector<int64_t>& sizes) {
  std::mt19937_64 rng(seed ^ 0xa99e2dULL);
  const int width = base.num_attributes();
  std::vector<Round> out;
  int64_t next = 0;
  std::vector<std::pair<int64_t, std::vector<int>>> sent;
  for (size_t k = 0; k < sizes.size(); ++k) {
    Round round;
    round.begin = next;
    round.end = next + sizes[k];
    next = round.end;
    // Bounds cycle through four equal strata of [20, 200]; every third
    // cycle ranks against a focus set instead of P_A.
    const int64_t j = static_cast<int64_t>(k % 4);
    bool focused = (k / 4) % 3 == 2;
    for (int attempt = 0;; ++attempt) {
      round.bound = 20 + 181 * j / 4 +
                    static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                             181 * (j + 1) / 4 - 181 * j / 4));
      // Every P_A spec of this stratum may be used up in a long run.
      if (attempt == 100) focused = true;
      round.focus.clear();
      if (focused) {
        std::vector<int> all(static_cast<size_t>(width));
        for (int a = 0; a < width; ++a) all[static_cast<size_t>(a)] = a;
        std::shuffle(all.begin(), all.end(), rng);
        all.resize(2 + rng() % 2);
        std::sort(all.begin(), all.end());
        round.focus = all;
      }
      if (std::find(sent.begin(), sent.end(),
                    std::make_pair(round.bound, round.focus)) == sent.end()) {
        break;
      }
    }
    sent.emplace_back(round.bound, round.focus);
    const int64_t committed = base.num_rows() + next;
    for (int c = 0; c < kCountsPerRound; ++c) {
      const int64_t row = static_cast<int64_t>(rng() % static_cast<uint64_t>(committed));
      std::vector<int> attrs(static_cast<size_t>(width));
      for (int a = 0; a < width; ++a) attrs[static_cast<size_t>(a)] = a;
      std::shuffle(attrs.begin(), attrs.end(), rng);
      attrs.resize(2 + rng() % 2);
      Terms terms;
      for (int a : attrs) {
        const std::string value =
            row < base.num_rows() ? base.ValueString(row, a)
                                  : appended.ValueString(row - base.num_rows(), a);
        terms.emplace_back(base.schema().name(a), value);
      }
      round.counts.push_back(std::move(terms));
    }
    out.push_back(std::move(round));
  }
  return out;
}

// Generates the rows to append (first, so that the resident growth over
// it is their own size) and the base table, opens the dataset and a
// session, and runs the session's first search.
pcbl::Status SetUp(const Flags& flags, int64_t appended_rows, Tracer& tracer,
                   Setup* s) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const double rss_before = RssMb();
  int span = tracer.Begin("workload.Make");
  auto appended = MakeDataset("bluenile", appended_rows, seed + 7919);
  s->appended_mb = RssMb() - rss_before;
  auto base = MakeDataset("bluenile", flags.GetInt("rows"), seed);
  tracer.End(span);
  if (!base.ok()) return base.status();
  if (!appended.ok()) return appended.status();
  s->appended = std::make_unique<const pcbl::Table>(std::move(*appended));
  s->base = std::make_shared<const pcbl::Table>(std::move(*base));
  span = tracer.Begin("api.Dataset::FromTable");
  auto dataset = pcbl::api::Dataset::FromTable(s->base);
  tracer.End(span);
  if (!dataset.ok()) return dataset.status();
  pcbl::api::SessionOptions options;
  options.num_threads = kThreads;
  span = tracer.Begin("api.Session::Open");
  auto session = pcbl::api::Session::Open(*dataset, options);
  tracer.End(span);
  if (!session.ok()) return session.status();
  s->session = std::move(*session);
  span = tracer.Begin("api.Session::Run");
  const pcbl::api::QueryResult warm = s->session->Run(SearchSpec(100, {}));
  tracer.End(span);
  return warm.status;
}

}  // namespace

int CmdAppend(const Flags& flags) {
  const bool traced = flags.GetInt("trace") != 0;
  Tracer tracer(traced);
  Report report;
  AddKernelIsa(&report);

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const std::vector<int64_t> sizes = BatchSizes(seed, flags.GetInt("rounds"));
  int64_t appended_rows = 0;
  for (int64_t size : sizes) appended_rows += size;

  std::vector<double>& setup_s = report.samples["setup_s"];
  auto setup = std::make_unique<Setup>();
  const int64_t setups = flags.GetInt("setups");
  for (int64_t k = 0; k < setups; ++k) {
    setup.reset();
    pcbl::ServiceRegistry::Global().Clear();
    setup = std::make_unique<Setup>();
    const auto start = Clock::now();
    if (pcbl::Status st = SetUp(flags, appended_rows, tracer, setup.get());
        !st.ok()) {
      std::fprintf(stderr, "append set-up: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
    // The first set-up runs on a fresh heap, so its growth is the table's.
    if (k == 0) report.values["appended_table_mb"] = setup->appended_mb;
  }
  const std::vector<Round> rounds =
      MakeRounds(seed, *setup->base, *setup->appended, sizes);
  pcbl::api::Session& session = *setup->session;
  const std::shared_ptr<pcbl::CountingService>& service =
      session.dataset().service();
  const pcbl::CountingEngineStats engine_before = service->StatsSnapshot();
  const pcbl::ResultTierStats tier_before = service->result_tier_stats();

  // --- timed phase ------------------------------------------------------
  // Turning a batch into strings is the benchmark's work: it is timed
  // apart and left out of the phase.
  std::vector<RoundOutcome> outcomes(rounds.size());
  Rows batch;
  double batch_prep_s = 0.0;
  const double spans_before = tracer.RootSeconds();
  const auto phase_start = Clock::now();
  for (size_t k = 0; k < rounds.size(); ++k) {
    const Round& round = rounds[k];
    RoundOutcome& o = outcomes[k];
    const int64_t request = static_cast<int64_t>(k);
    auto start = Clock::now();
    RowStrings(*setup->appended, round.begin, round.end, &batch);
    batch_prep_s += SecondsSince(start);
    start = Clock::now();
    int span = tracer.Begin("api.Session::AppendRows", request);
    const pcbl::Status appended = session.AppendRows(batch);
    tracer.End(span);
    o.append_ms = 1e3 * SecondsSince(start);
    ++report.attempted;
    if (!appended.ok()) {
      ++report.failed;
      report.Mismatch("append " + std::to_string(k) + ": " + appended.ToString());
      o.ok = false;
    }
    start = Clock::now();
    span = tracer.Begin("api.Session::Run", request);
    const pcbl::api::QueryResult search =
        session.Run(SearchSpec(round.bound, round.focus));
    tracer.End(span);
    o.search_ms = 1e3 * SecondsSince(start);
    ++report.attempted;
    if (!search.status.ok()) {
      ++report.failed;
      report.Mismatch("search " + std::to_string(k) + ": " + search.status.ToString());
      o.ok = false;
    }
    o.total_rows = search.total_rows;
    o.max_abs = search.search.error.max_abs;
    o.patterns = search.search.error.total;
    o.search_seconds = search.search.stats.total_seconds;
    o.subsets_examined = search.search.stats.subsets_examined;
    o.label = std::make_shared<const pcbl::PortableLabel>(pcbl::MakePortable(
        search.search.label, session.dataset().table(), "append"));
    for (const Terms& terms : round.counts) {
      pcbl::api::QuerySpec spec = pcbl::api::QuerySpec::TrueCount(terms);
      spec.label = o.label;
      spec.num_threads = kThreads;
      start = Clock::now();
      span = tracer.Begin("api.Session::Run", request);
      const pcbl::api::QueryResult count = session.Run(spec);
      tracer.End(span);
      o.count_ms.push_back(1e3 * SecondsSince(start));
      ++report.attempted;
      if (!count.status.ok()) {
        ++report.failed;
        report.Mismatch("count in round " + std::to_string(k) + ": " +
                        count.status.ToString());
        o.ok = false;
      }
      o.counts.push_back({count.true_count, count.estimate});
    }
  }
  const double phase_s = SecondsSince(phase_start) - batch_prep_s;
  batch.clear();
  report.values["phase_s"] = phase_s;
  report.values["batch_prep_s"] = batch_prep_s;
  report.values["trace.covered_s"] = tracer.RootSeconds() - spans_before;
  report.values["peak_rss_mb"] = PeakRssMb();

  // The labels held for the checks, measured by their encoded size.
  double labels_bytes = 0.0;
  for (const RoundOutcome& o : outcomes) {
    labels_bytes += static_cast<double>(pcbl::ToBinary(*o.label).size());
  }
  report.values["replies_mb"] = labels_bytes / 1e6;

  std::vector<double>& op_ms = report.samples["op_ms"];
  std::vector<double>& search_ms = report.samples["search_ms"];
  std::vector<double>& count_ms = report.samples["count_ms"];
  std::vector<double>& append_ms = report.samples["append.commit_ms"];
  double append_total_s = 0.0;
  double search_seconds = 0.0;
  int64_t subsets = 0;
  for (const RoundOutcome& o : outcomes) {
    append_ms.push_back(o.append_ms);
    search_ms.push_back(o.search_ms);
    op_ms.push_back(o.append_ms);
    op_ms.push_back(o.search_ms);
    for (double ms : o.count_ms) {
      op_ms.push_back(ms);
      count_ms.push_back(ms);
    }
    append_total_s += o.append_ms / 1e3;
    search_seconds += o.search_seconds;
    subsets += o.subsets_examined;
  }
  report.values["append_rows_per_s"] =
      static_cast<double>(appended_rows) / append_total_s;

  if (traced) {
    const pcbl::CountingEngineStats engine = service->StatsSnapshot();
    const pcbl::ResultTierStats tier = service->result_tier_stats();
    report.values["append.rows_per_s"] = report.values["append_rows_per_s"];
    report.values["engine.patched_entries"] =
        static_cast<double>(engine.patched_entries - engine_before.patched_entries);
    report.values["engine.invalidations"] =
        static_cast<double>(engine.invalidations - engine_before.invalidations);
    report.values["engine.full_scans"] =
        static_cast<double>(engine.full_scans - engine_before.full_scans);
    report.values["engine.rollups"] =
        static_cast<double>(engine.rollups - engine_before.rollups);
    report.values["engine.cache_hits"] =
        static_cast<double>(engine.cache_hits - engine_before.cache_hits);
    report.values["api.result_hits"] =
        static_cast<double>(tier.hits - tier_before.hits);
    report.values["api.result_misses"] =
        static_cast<double>(tier.misses - tier_before.misses);
    report.values["core.search_s"] = search_seconds;
    report.values["core.subsets_examined"] = static_cast<double>(subsets);
    // The first query of a fresh session over the grown, warm dataset:
    // it syncs VC and P_A over base and appended rows.
    std::vector<double>& first_ms = report.samples["api.session_first_query_ms"];
    for (int k = 0; k < 3; ++k) {
      pcbl::api::SessionOptions options;
      options.num_threads = kThreads;
      const auto start = Clock::now();
      Tracer::Scope span(tracer, "api.Session::Run");
      auto fresh = pcbl::api::Session::Open(session.dataset(), options);
      if (!fresh.ok() || !(*fresh)->Run(SearchSpec(201 + k, {})).status.ok()) {
        report.Mismatch("fresh-session query failed");
      }
      first_ms.push_back(1e3 * SecondsSince(start));
    }
    std::vector<double>& estimate_us = report.samples["api.estimate_us"];
    for (size_t k = 0; k < outcomes.size(); ++k) {
      const pcbl::api::LabelArtifact artifact(*outcomes[k].label);
      for (const Terms& terms : rounds[k].counts) {
        const auto start = Clock::now();
        Tracer::Scope span(tracer, "api.LabelArtifact::EstimateCount");
        if (!artifact.EstimateCount(terms).ok()) {
          report.Mismatch("label-only estimate failed");
        }
        estimate_us.push_back(1e6 * SecondsSince(start));
      }
    }
    report.values["workload.synth_s"] =
        tracer.TotalSeconds("workload.Make") / static_cast<double>(setups);
    for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
      report.values["self." + layer + "_s"] = seconds;
    }
    if (pcbl::Status st = tracer.WriteJson(flags.Get("trace-out")); !st.ok()) {
      std::fprintf(stderr, "append: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Replay the same rows into the oracle, checking each round's replies
  // against the rows committed when they were answered.
  const pcbl::Table& base = *setup->base;
  Oracle oracle([&] {
    std::vector<std::string> names;
    for (int a = 0; a < base.num_attributes(); ++a) {
      names.push_back(base.schema().name(a));
    }
    return names;
  }());
  std::vector<std::string> row(static_cast<size_t>(base.num_attributes()));
  std::vector<std::string_view> views(row.size());
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    for (int a = 0; a < base.num_attributes(); ++a) {
      row[static_cast<size_t>(a)] = base.ValueString(r, a);
      views[static_cast<size_t>(a)] = row[static_cast<size_t>(a)];
    }
    if (pcbl::Status st = oracle.AddRow(views); !st.ok()) {
      report.Mismatch("oracle: " + st.ToString());
      break;
    }
  }
  const pcbl::Table& appended = *setup->appended;
  for (size_t k = 0; k < outcomes.size(); ++k) {
    const Round& round = rounds[k];
    const RoundOutcome& o = outcomes[k];
    for (int64_t r = round.begin; r < round.end; ++r) {
      for (int a = 0; a < appended.num_attributes(); ++a) {
        row[static_cast<size_t>(a)] = appended.ValueString(r, a);
        views[static_cast<size_t>(a)] = row[static_cast<size_t>(a)];
      }
      if (pcbl::Status st = oracle.AddRow(views); !st.ok()) {
        report.Mismatch("oracle: " + st.ToString());
      }
    }
    if (!o.ok) continue;
    const std::string where = "round " + std::to_string(k) + ": ";
    if (o.total_rows != oracle.rows()) {
      report.Mismatch(where + "search total_rows differs from the data");
    }
    LabelExpectation expect;
    expect.bound = round.bound;
    expect.focus = round.focus;
    expect.reported_max_abs = o.max_abs;
    expect.max_abs_tolerance = 1e-6 * std::max(1.0, expect.reported_max_abs);
    expect.reported_patterns = o.patterns;
    const std::string problem = oracle.CheckLabel(*o.label, expect);
    if (!problem.empty()) report.Mismatch(where + problem);
    for (size_t c = 0; c < round.counts.size(); ++c) {
      const std::string count_problem = oracle.CheckCount(
          round.counts[c], o.counts[c].true_count, *o.label,
          o.counts[c].estimate);
      if (!count_problem.empty()) report.Mismatch(where + count_problem);
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace perfbench
