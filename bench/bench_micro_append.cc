// Micro-benchmark for the multi-appender append path: sustained
// appends/s at 1/2/4 concurrent appender sessions (group commit's merge
// factor is the whole point — N appenders behind one admission should
// cost ~one engine hook per batch, not per row), plus concurrent-search
// latency while a sibling session ingests.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "pattern/counting_service.h"
#include "util/logging.h"
#include "util/str.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

constexpr int64_t kBound = 60;
constexpr int64_t kRowsPerAppender = 64;

const Table& CompasTable() {
  static const Table* table = [] {
    auto t = workload::MakeCompas(20000, 7);
    PCBL_CHECK(t.ok());
    return new Table(std::move(t).value());
  }();
  return *table;
}

api::Dataset PrivateDataset(const Table& table) {
  api::DatasetOptions options;
  options.private_service = true;
  auto dataset = api::Dataset::FromTable(table, options);
  PCBL_CHECK(dataset.ok());
  return *dataset;
}

// Rows appender `k` feeds in: small fresh per-appender domains, so the
// interner and the engine delta both do real work.
std::vector<std::vector<std::string>> AppenderRows(int k, int attrs) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(static_cast<size_t>(kRowsPerAppender));
  for (int64_t r = 0; r < kRowsPerAppender; ++r) {
    std::vector<std::string> row(static_cast<size_t>(attrs));
    for (int a = 0; a < attrs; ++a) {
      row[static_cast<size_t>(a)] = StrCat("a", k, "-v", (r + a) % 4);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// N appender sessions racing single-row appends into one shared
// service; Arg(0) = appender count. Reported rate is total appended rows
// per second.
void BM_ConcurrentAppendRows(benchmark::State& state) {
  const int appenders = static_cast<int>(state.range(0));
  const Table& t = CompasTable();
  for (auto _ : state) {
    state.PauseTiming();
    api::Dataset dataset = PrivateDataset(t);
    std::vector<std::unique_ptr<api::Session>> sessions;
    for (int k = 0; k < appenders; ++k) {
      auto session = api::Session::Open(dataset);
      PCBL_CHECK(session.ok());
      sessions.push_back(std::move(*session));
    }
    // Warm the engine so the per-append hook patches real state.
    PCBL_CHECK(
        sessions[0]->Run(api::QuerySpec::LabelSearch(kBound)).status.ok());
    state.ResumeTiming();
    std::vector<std::thread> threads;
    for (int k = 0; k < appenders; ++k) {
      threads.emplace_back([&sessions, &t, k] {
        const auto rows = AppenderRows(k, t.num_attributes());
        for (const auto& row : rows) {
          PCBL_CHECK(sessions[static_cast<size_t>(k)]->AppendRow(row).ok());
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  state.SetItemsProcessed(state.iterations() * appenders *
                          kRowsPerAppender);
  state.counters["appenders"] = appenders;
}
BENCHMARK(BM_ConcurrentAppendRows)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Search latency of a sibling session while Arg(0) appender sessions
// ingest continuously — the admission-gate tax queries pay under load.
void BM_SearchWhileIngesting(benchmark::State& state) {
  const int appenders = static_cast<int>(state.range(0));
  const Table& t = CompasTable();
  api::Dataset dataset = PrivateDataset(t);
  std::vector<std::unique_ptr<api::Session>> sessions;
  for (int k = 0; k < appenders + 1; ++k) {
    auto session = api::Session::Open(dataset);
    PCBL_CHECK(session.ok());
    sessions.push_back(std::move(*session));
  }
  api::Session& searcher = *sessions.back();
  PCBL_CHECK(searcher.Run(api::QuerySpec::LabelSearch(kBound)).status.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int k = 0; k < appenders; ++k) {
    threads.emplace_back([&sessions, &stop, &t, k] {
      const auto rows = AppenderRows(k, t.num_attributes());
      size_t next = 0;
      while (!stop.load(std::memory_order_acquire)) {
        PCBL_CHECK(
            sessions[static_cast<size_t>(k)]->AppendRow(rows[next]).ok());
        next = (next + 1) % rows.size();
      }
    });
  }
  for (auto _ : state) {
    api::QueryResult r = searcher.Run(api::QuerySpec::LabelSearch(kBound));
    PCBL_CHECK(r.status.ok());
    benchmark::DoNotOptimize(r.search.label.size());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  state.counters["appenders"] = appenders;
}
BENCHMARK(BM_SearchWhileIngesting)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One bulk AppendRows ticket per iteration — the group-commit batch
// path without thread contention, as a baseline for the racing arms.
void BM_BulkAppendTicket(benchmark::State& state) {
  const Table& t = CompasTable();
  for (auto _ : state) {
    state.PauseTiming();
    api::Dataset dataset = PrivateDataset(t);
    auto session = api::Session::Open(dataset);
    PCBL_CHECK(session.ok());
    const auto rows = AppenderRows(0, t.num_attributes());
    state.ResumeTiming();
    PCBL_CHECK((*session)->AppendRows(rows).ok());
  }
  state.SetItemsProcessed(state.iterations() * kRowsPerAppender);
}
BENCHMARK(BM_BulkAppendTicket)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pcbl

BENCHMARK_MAIN();
