// serve_mixed: `pcbl serve` in process on a unix socket, driven by one
// client in a closed loop over a fixed, seeded request sequence.
//
// Set-up generates bluenile and compas, writes them as CSV, loads them
// through the catalog's CSV path, starts the server and warms each
// dataset's engine with one search. The timed phase then sends the
// request plan: true counts paired with a label estimate, label searches
// not sent before (result-tier misses on a warm engine), repeats of
// earlier searches (result-tier hits) and profiles, over four tenants,
// a share of them on fresh connections. Every reply is checked against
// the oracle after the timed phase.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "api/artifact.h"
#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "driver.h"
#include "oracle.h"
#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr int kTenants = 4;
constexpr int kThreads = 2;
const char* const kDatasets[2] = {"bluenile", "compas"};

enum class Kind { kCount, kSearchNew, kSearchRepeat, kProfile };

struct Request {
  Kind kind = Kind::kCount;
  int dataset = 0;
  int tenant = 0;
  bool fresh_connection = false;
  // kSearchNew: the spec's bound and focus; kSearchRepeat: the index of
  // the request it repeats.
  int64_t bound = 0;
  std::vector<int> focus;
  int64_t repeats = -1;
  Terms pattern;  // kCount
};

struct Outcome {
  bool ok = false;
  double ms = 0.0;
  pcbl::server::wire::WireQueryResult reply;
  // kCount: the label whose estimate was asked for.
  std::shared_ptr<const pcbl::PortableLabel> label;
};

std::vector<int> RandomAttrs(std::mt19937_64& rng, int width, int count) {
  std::vector<int> all(static_cast<size_t>(width));
  for (int a = 0; a < width; ++a) all[static_cast<size_t>(a)] = a;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(static_cast<size_t>(count));
  std::sort(all.begin(), all.end());
  return all;
}

// One block of the request plan: per dataset (bluenile, compas), how many
// requests of each kind. Every block has the same make-up, so the mix
// does not vary with the seed; the seed picks the order, the patterns and
// the search specs. Compas has more new searches than bluenile so that
// their median lies inside one dataset's latencies, not between them.
struct BlockShare {
  Kind kind;
  int per_dataset[2];
};
constexpr BlockShare kBlock[] = {{Kind::kCount, {9, 9}},
                                 {Kind::kSearchNew, {2, 4}},
                                 {Kind::kSearchRepeat, {7, 7}},
                                 {Kind::kProfile, {1, 1}}};
constexpr int kBlockRequests = 40;
constexpr int kFreshPerBlock = 2;

// The whole request sequence, fixed by the seed before timing starts: a
// whole number of blocks. The k new searches of a dataset in a block take
// their bounds from k equal strata of [20, 200], and alternate between
// P_A and a focus set, so each block sizes the same spread of labels.
// Focus sets are attribute pairs taken in turn from a seeded order of
// every pair, so that every run ranks against nearly the same pairs: the
// cost of a focused search depends on its pair, and pairs drawn at random
// moved search_p50_ms by up to 40% from one seed to another.
std::vector<Request> MakePlan(uint64_t seed, int64_t requests,
                              const pcbl::Table* tables[2]) {
  std::mt19937_64 rng(seed ^ 0x5e12e5e12eULL);
  std::vector<Request> plan;
  std::set<std::tuple<int, int64_t, std::vector<int>>> sent;
  std::vector<int64_t> new_searches[2];
  std::vector<std::vector<int>> pairs[2];
  size_t next_pair[2] = {0, 0};
  for (int d = 0; d < 2; ++d) {
    const int width = tables[d]->num_attributes();
    for (int a = 0; a < width; ++a) {
      for (int c = a + 1; c < width; ++c) pairs[d].push_back({a, c});
    }
    std::shuffle(pairs[d].begin(), pairs[d].end(), rng);
  }
  const int64_t blocks = std::max<int64_t>(1, requests / kBlockRequests);
  for (int64_t b = 0; b < blocks; ++b) {
    std::vector<std::pair<Kind, int>> slots;
    for (const BlockShare& share : kBlock) {
      for (int d = 0; d < 2; ++d) {
        for (int k = 0; k < share.per_dataset[d]; ++k) {
          slots.emplace_back(share.kind, d);
        }
      }
    }
    std::shuffle(slots.begin(), slots.end(), rng);
    if (b == 0) {
      // Repeats need an earlier search of their dataset.
      std::stable_partition(slots.begin(), slots.end(), [](const auto& s) {
        return s.first == Kind::kSearchNew;
      });
    }
    std::vector<bool> fresh(slots.size(), false);
    for (int f = 0; f < kFreshPerBlock; ++f) fresh[rng() % slots.size()] = true;
    int stratum[2] = {0, 0};
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      const int64_t i = static_cast<int64_t>(plan.size());
      Request r;
      r.kind = slots[slot].first;
      r.dataset = slots[slot].second;
      r.tenant = static_cast<int>(i % kTenants);
      r.fresh_connection = fresh[slot];
      const pcbl::Table& table = *tables[r.dataset];
      if (r.kind == Kind::kCount) {
        const int64_t row =
            static_cast<int64_t>(rng() % static_cast<uint64_t>(table.num_rows()));
        for (int a : RandomAttrs(rng, table.num_attributes(),
                                 2 + static_cast<int>(rng() % 2))) {
          r.pattern.emplace_back(table.schema().name(a),
                                 table.ValueString(row, a));
        }
      } else if (r.kind == Kind::kSearchNew) {
        const int strata = kBlock[1].per_dataset[r.dataset];
        const int j = stratum[r.dataset]++;
        const int64_t lo = 20 + 181 * j / strata;
        const int64_t width = 181 * (j + 1) / strata - 181 * j / strata;
        bool focused = (j + b) % 2 == 1;
        for (int attempt = 0;; ++attempt) {
          r.bound = lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(width));
          // Every P_A spec of this stratum may be used up in a long run.
          if (attempt == 100) focused = true;
          r.focus.clear();
          if (focused) {
            const auto& cycle = pairs[r.dataset];
            r.focus = cycle[next_pair[r.dataset]++ % cycle.size()];
          }
          if (sent.emplace(r.dataset, r.bound, r.focus).second) break;
        }
        new_searches[r.dataset].push_back(i);
      } else if (r.kind == Kind::kSearchRepeat) {
        const auto& earlier = new_searches[r.dataset];
        r.repeats = earlier[rng() % earlier.size()];
        r.bound = plan[static_cast<size_t>(r.repeats)].bound;
        r.focus = plan[static_cast<size_t>(r.repeats)].focus;
      }
      plan.push_back(std::move(r));
    }
  }
  return plan;
}

pcbl::api::QuerySpec SearchSpec(int64_t bound, const std::vector<int>& focus) {
  pcbl::api::QuerySpec spec = pcbl::api::QuerySpec::LabelSearch(bound);
  for (int a : focus) spec.focus.Set(a);
  spec.num_threads = kThreads;
  return spec;
}

// One set-up: inputs, catalog, server, warm engines. Owns what the timed
// phase uses.
struct Deployment {
  std::unique_ptr<pcbl::server::Catalog> catalog;
  std::unique_ptr<pcbl::server::Server> server;
  std::string csv_paths[2];
  std::shared_ptr<const pcbl::PortableLabel> warm_labels[2];

  ~Deployment() {
    if (server) server->Stop();
  }
};

pcbl::Status SetUp(const Flags& flags, Tracer& tracer, Deployment* d) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int64_t rows[2] = {flags.GetInt("bluenile-rows"),
                           flags.GetInt("compas-rows")};
  const std::string work = flags.Get("work");
  d->catalog = std::make_unique<pcbl::server::Catalog>();
  for (int i = 0; i < 2; ++i) {
    d->csv_paths[i] = work + "/serve_" + kDatasets[i] + ".csv";
    int span = tracer.Begin("workload.Make");
    auto generated = MakeDataset(kDatasets[i], rows[i], seed + i);
    tracer.End(span);
    if (!generated.ok()) return generated.status();
    span = tracer.Begin("relation.WriteCsvFile");
    const pcbl::Status written = pcbl::WriteCsvFile(*generated, d->csv_paths[i]);
    tracer.End(span);
    PCBL_RETURN_IF_ERROR(written);
    if (!tracer.enabled()) {
      PCBL_RETURN_IF_ERROR(
          d->catalog->AddFromCsvFile(kDatasets[i], d->csv_paths[i]));
      continue;
    }
    // Catalog::AddFromCsvFile's two steps, each in its own span.
    span = tracer.Begin("relation.ReadCsvFile");
    auto table = pcbl::ReadCsvFile(d->csv_paths[i]);
    tracer.End(span);
    if (!table.ok()) return table.status();
    span = tracer.Begin("api.Dataset::FromTable");
    auto dataset = pcbl::api::Dataset::FromTable(std::move(*table));
    tracer.End(span);
    if (!dataset.ok()) return dataset.status();
    PCBL_RETURN_IF_ERROR(d->catalog->Add(kDatasets[i], std::move(*dataset)));
  }
  pcbl::server::ServerOptions options;
  options.address = "unix:" + flags.Get("socket");
  d->server = std::make_unique<pcbl::server::Server>(d->catalog.get(), options);
  PCBL_RETURN_IF_ERROR(d->server->Start());
  PCBL_ASSIGN_OR_RETURN(pcbl::server::Client client,
                        pcbl::server::Client::Connect(d->server->bound_address()));
  for (int i = 0; i < 2; ++i) {
    Tracer::Scope span(tracer, "server.Client::Query");
    PCBL_ASSIGN_OR_RETURN(pcbl::server::wire::WireQueryResult reply,
                          client.Query("warmup", kDatasets[i], SearchSpec(100, {})));
    if (!reply.status.ok()) return reply.status;
    d->warm_labels[i] =
        std::make_shared<const pcbl::PortableLabel>(reply.search.label);
  }
  return pcbl::Status::Ok();
}

pcbl::ServiceRegistryStats RegistryStats(pcbl::server::Client& client) {
  auto stats = client.Stats();
  return stats.ok() ? stats->registry : pcbl::ServiceRegistryStats{};
}

pcbl::CountingEngineStats EngineStats(const pcbl::server::Catalog& catalog) {
  pcbl::CountingEngineStats sum;
  for (const char* name : kDatasets) {
    auto dataset = catalog.Lookup(name);
    if (!dataset.ok()) continue;
    const pcbl::CountingEngineStats s = dataset->service()->StatsSnapshot();
    sum.full_scans += s.full_scans;
    sum.rollups += s.rollups;
    sum.cache_hits += s.cache_hits;
  }
  return sum;
}

bool SameSearchReply(const pcbl::server::wire::WireQueryResult& a,
                     const pcbl::server::wire::WireQueryResult& b) {
  return a.total_rows == b.total_rows &&
         a.search.best_attrs_bits == b.search.best_attrs_bits &&
         a.search.error.max_abs == b.search.error.max_abs &&
         a.search.error.total == b.search.error.total &&
         pcbl::ToBinary(a.search.label) == pcbl::ToBinary(b.search.label);
}

// Checks every reply against the oracle and the first sending of a
// repeated request.
void CheckReplies(const std::vector<Request>& plan,
                  const std::vector<Outcome>& outcomes,
                  const Oracle* oracles[2], Report* report) {
  std::vector<std::vector<int64_t>> pair_sizes(2);
  for (int d = 0; d < 2; ++d) {
    const int n = oracles[d]->num_attributes();
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        pair_sizes[static_cast<size_t>(d)].push_back(oracles[d]->DistinctPairs(a, b));
      }
    }
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    const Request& r = plan[i];
    const Outcome& o = outcomes[i];
    if (!o.ok) continue;
    const Oracle& oracle = *oracles[r.dataset];
    const std::string where = "request " + std::to_string(i) + ": ";
    if (o.reply.total_rows != oracle.rows()) {
      report->Mismatch(where + "total_rows differs from the data");
      continue;
    }
    switch (r.kind) {
      case Kind::kCount: {
        const std::string problem = oracle.CheckCount(
            r.pattern, o.reply.true_count, *o.label, o.reply.estimate);
        if (!problem.empty()) report->Mismatch(where + problem);
        break;
      }
      case Kind::kSearchNew: {
        LabelExpectation expect;
        expect.bound = r.bound;
        expect.focus = r.focus;
        expect.reported_max_abs = o.reply.search.error.max_abs;
        expect.max_abs_tolerance = 1e-6 * std::max(1.0, expect.reported_max_abs);
        expect.reported_patterns = o.reply.search.error.total;
        const std::string problem = oracle.CheckLabel(o.reply.search.label, expect);
        if (!problem.empty()) report->Mismatch(where + problem);
        break;
      }
      case Kind::kSearchRepeat: {
        const Outcome& first = outcomes[static_cast<size_t>(r.repeats)];
        if (first.ok && !SameSearchReply(first.reply, o.reply)) {
          report->Mismatch(where + "repeat differs from its first sending");
        }
        break;
      }
      case Kind::kProfile: {
        const auto& want = pair_sizes[static_cast<size_t>(r.dataset)];
        bool same = want.size() == o.reply.pairs.size();
        for (size_t p = 0; same && p < want.size(); ++p) {
          same = want[p] == o.reply.pairs[p].size;
        }
        if (!same) report->Mismatch(where + "profile pair sizes differ");
        break;
      }
    }
  }
}

}  // namespace

int CmdServe(const Flags& flags) {
  const bool traced = flags.GetInt("trace") != 0;
  Tracer tracer(traced);
  Report report;
  AddKernelIsa(&report);

  // Set up several times; the last deployment serves the timed phase.
  std::vector<double>& setup_s = report.samples["setup_s"];
  auto deployment = std::make_unique<Deployment>();
  const int64_t setups = flags.GetInt("setups");
  for (int64_t k = 0; k < setups; ++k) {
    deployment.reset();
    pcbl::ServiceRegistry::Global().Clear();
    deployment = std::make_unique<Deployment>();
    const auto start = Clock::now();
    if (pcbl::Status s = SetUp(flags, tracer, deployment.get()); !s.ok()) {
      std::fprintf(stderr, "serve set-up: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
  }
  Deployment& d = *deployment;

  // The plan draws its count patterns from the served tables; the
  // oracles are built from the CSVs only after the timed phase, so the
  // peak resident set holds none of the benchmark's copies of the rows.
  std::shared_ptr<const pcbl::Table> served[2];
  const pcbl::Table* tables[2];
  for (int i = 0; i < 2; ++i) {
    auto dataset = d.catalog->Lookup(kDatasets[i]);
    if (!dataset.ok()) {
      std::fprintf(stderr, "serve: %s\n", dataset.status().ToString().c_str());
      return 1;
    }
    served[i] = dataset->shared_table();
    tables[i] = served[i].get();
  }
  const double rss_before_plan = RssMb();
  const std::vector<Request> plan = MakePlan(
      static_cast<uint64_t>(flags.GetInt("seed")), flags.GetInt("requests"),
      tables);
  report.values["plan_mb"] = RssMb() - rss_before_plan;

  const std::string address = d.server->bound_address();
  auto client = pcbl::server::Client::Connect(address);
  if (!client.ok()) {
    std::fprintf(stderr, "serve: %s\n", client.status().ToString().c_str());
    return 1;
  }
  const pcbl::ServiceRegistryStats registry_before = RegistryStats(*client);
  const pcbl::CountingEngineStats engine_before = EngineStats(*d.catalog);

  // --- timed phase ------------------------------------------------------
  std::vector<Outcome> outcomes(plan.size());
  std::shared_ptr<const pcbl::PortableLabel> latest[2] = {d.warm_labels[0],
                                                          d.warm_labels[1]};
  const double spans_before = tracer.RootSeconds();
  const auto phase_start = Clock::now();
  for (size_t i = 0; i < plan.size(); ++i) {
    const Request& r = plan[i];
    Outcome& o = outcomes[i];
    pcbl::api::QuerySpec spec;
    switch (r.kind) {
      case Kind::kCount:
        spec = pcbl::api::QuerySpec::TrueCount(r.pattern);
        spec.label = latest[r.dataset];
        spec.num_threads = kThreads;
        o.label = spec.label;
        break;
      case Kind::kSearchNew:
      case Kind::kSearchRepeat:
        spec = SearchSpec(r.bound, r.focus);
        break;
      case Kind::kProfile:
        spec = pcbl::api::QuerySpec::Profile();
        spec.num_threads = kThreads;
        break;
    }
    const std::string tenant = "tenant-" + std::to_string(r.tenant);
    const auto start = Clock::now();
    pcbl::Result<pcbl::server::wire::WireQueryResult> reply =
        pcbl::UnavailableError("not sent");
    if (r.fresh_connection) {
      Tracer::Scope span(tracer, "server.Client::Connect",
                         static_cast<int64_t>(i));
      auto fresh = pcbl::server::Client::Connect(address);
      if (fresh.ok()) {
        Tracer::Scope query(tracer, "server.Client::Query",
                            static_cast<int64_t>(i));
        reply = fresh->Query(tenant, kDatasets[r.dataset], spec);
      } else {
        reply = fresh.status();
      }
    } else {
      Tracer::Scope span(tracer, "server.Client::Query", static_cast<int64_t>(i));
      reply = client->Query(tenant, kDatasets[r.dataset], spec);
    }
    o.ms = 1e3 * SecondsSince(start);
    o.ok = reply.ok() && reply->status.ok();
    if (!o.ok) {
      ++report.failed;
      report.Mismatch("request " + std::to_string(i) + " failed: " +
                      (reply.ok() ? reply->status.ToString()
                                  : reply.status().ToString()));
      continue;
    }
    o.reply = std::move(*reply);
    if (r.kind == Kind::kSearchNew) {
      latest[r.dataset] =
          std::make_shared<const pcbl::PortableLabel>(o.reply.search.label);
    }
  }
  const double phase_s = SecondsSince(phase_start);
  report.values["phase_s"] = phase_s;
  report.values["trace.covered_s"] = tracer.RootSeconds() - spans_before;
  report.values["peak_rss_mb"] = PeakRssMb();
  report.attempted = static_cast<int64_t>(plan.size());

  // The replies held for the checks: their labels, encoded, measure them.
  double replies_bytes = 0.0;
  for (const Outcome& o : outcomes) {
    if (o.ok && !o.reply.search.label.pattern_counts.empty()) {
      replies_bytes += static_cast<double>(pcbl::ToBinary(o.reply.search.label).size());
    }
  }
  report.values["replies_mb"] = replies_bytes / 1e6;

  std::vector<double>& op_ms = report.samples["op_ms"];
  std::vector<double>& search_ms = report.samples["search_ms"];
  std::vector<double>& count_ms = report.samples["count_ms"];
  double search_seconds = 0.0;
  int64_t subsets = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (!outcomes[i].ok) continue;
    op_ms.push_back(outcomes[i].ms);
    if (plan[i].kind == Kind::kSearchNew) {
      search_ms.push_back(outcomes[i].ms);
      report.samples[std::string("search_ms.") + kDatasets[plan[i].dataset]]
          .push_back(outcomes[i].ms);
      search_seconds += outcomes[i].reply.search.stats.total_seconds;
      subsets += outcomes[i].reply.search.stats.subsets_examined;
    }
    if (plan[i].kind == Kind::kCount) count_ms.push_back(outcomes[i].ms);
  }

  if (traced) {
    const pcbl::ServiceRegistryStats registry_after = RegistryStats(*client);
    const pcbl::CountingEngineStats engine_after = EngineStats(*d.catalog);
    report.values["api.result_hits"] = static_cast<double>(
        registry_after.result_hits - registry_before.result_hits);
    report.values["api.result_misses"] = static_cast<double>(
        registry_after.result_misses - registry_before.result_misses);
    report.values["engine.full_scans"] =
        static_cast<double>(engine_after.full_scans - engine_before.full_scans);
    report.values["engine.rollups"] =
        static_cast<double>(engine_after.rollups - engine_before.rollups);
    report.values["engine.cache_hits"] =
        static_cast<double>(engine_after.cache_hits - engine_before.cache_hits);
    report.values["core.search_s"] = search_seconds;
    report.values["core.subsets_examined"] = static_cast<double>(subsets);

    // A Stats round trip on the open connection.
    std::vector<double>& roundtrip_us = report.samples["server.roundtrip_us"];
    for (int k = 0; k < 200; ++k) {
      const auto start = Clock::now();
      Tracer::Scope span(tracer, "server.Client::Stats");
      if (!client->Stats().ok()) report.Mismatch("Stats round trip failed");
      roundtrip_us.push_back(1e6 * SecondsSince(start));
    }
    // Connect plus hello on fresh connections.
    std::vector<double>& connect_ms = report.samples["server.connect_ms"];
    for (int k = 0; k < 40; ++k) {
      const auto start = Clock::now();
      Tracer::Scope span(tracer, "server.Client::Connect");
      auto fresh = pcbl::server::Client::Connect(address);
      Tracer::Scope hello(tracer, "server.Client::Hello");
      if (!fresh.ok() || !fresh->Hello("probe").ok()) {
        report.Mismatch("connect/hello failed");
      }
      connect_ms.push_back(1e3 * SecondsSince(start));
    }
    // The first query of a fresh session over a warm dataset: a search
    // at a bound the run has not used, so the result tier cannot answer
    // it and the session syncs its VC and P_A.
    std::vector<double>& first_ms = report.samples["api.session_first_query_ms"];
    for (int i = 0; i < 2; ++i) {
      auto dataset = d.catalog->Lookup(kDatasets[i]);
      for (int k = 0; k < 3 && dataset.ok(); ++k) {
        pcbl::api::SessionOptions options;
        options.num_threads = kThreads;
        const auto start = Clock::now();
        Tracer::Scope span(tracer, "api.Session::Run");
        auto session = pcbl::api::Session::Open(*dataset, options);
        if (!session.ok() ||
            !(*session)->Run(SearchSpec(201 + k, {})).status.ok()) {
          report.Mismatch("fresh-session query failed");
        }
        first_ms.push_back(1e3 * SecondsSince(start));
      }
    }
    // The label-only estimate of each count request's pattern.
    std::vector<double>& estimate_us = report.samples["api.estimate_us"];
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].kind != Kind::kCount || !outcomes[i].ok) continue;
      const pcbl::api::LabelArtifact artifact(*outcomes[i].label);
      const auto start = Clock::now();
      Tracer::Scope span(tracer, "api.LabelArtifact::EstimateCount",
                         static_cast<int64_t>(i));
      if (!artifact.EstimateCount(plan[i].pattern).ok()) {
        report.Mismatch("label-only estimate failed");
      }
      estimate_us.push_back(1e6 * SecondsSince(start));
    }
    const double ingest_s = tracer.TotalSeconds("relation.ReadCsvFile");
    double csv_mb = 0.0;
    for (const std::string& path : d.csv_paths) csv_mb += FileMb(path);
    report.values["relation.ingest_s"] = ingest_s / static_cast<double>(setups);
    report.values["relation.ingest_mb_per_s"] =
        csv_mb * static_cast<double>(setups) / ingest_s;
    report.values["workload.synth_s"] =
        tracer.TotalSeconds("workload.Make") / static_cast<double>(setups);
    for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
      report.values["self." + layer + "_s"] = seconds;
    }
    if (pcbl::Status s = tracer.WriteJson(flags.Get("trace-out")); !s.ok()) {
      std::fprintf(stderr, "serve: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<Oracle> oracle_store[2];
  const Oracle* oracles[2];
  for (int i = 0; i < 2; ++i) {
    auto oracle = Oracle::FromCsvFile(d.csv_paths[i]);
    if (!oracle.ok()) {
      std::fprintf(stderr, "serve oracle: %s\n", oracle.status().ToString().c_str());
      return 1;
    }
    oracle_store[i] = std::make_unique<Oracle>(std::move(*oracle));
    oracles[i] = oracle_store[i].get();
  }
  CheckReplies(plan, outcomes, oracles, &report);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace perfbench
