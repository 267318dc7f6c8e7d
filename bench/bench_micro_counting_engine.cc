// Micro-benchmark for the CountingEngine: cold serial per-subset scans
// (the seed behaviour) vs batched + parallel sizing, memoized ranking
// reuse, and superset rollup.
//
// The headline comparison is BM_TopDownSizing{NoMemo,Engine*}:
// wall-clock of the candidate-sizing
// phase of Algorithm 1 on the credit-card dataset. Counts are exact and
// byte-identical on every path (differential-tested in
// pattern_counting_engine_test.cc); only wall-clock may differ.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/counting_engine.h"
#include "pattern/lattice.h"
#include "pattern/restriction_codec.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

constexpr int64_t kBound = 50;

const Table& CreditTable() {
  static const Table* table = [] {
    auto t = workload::MakeCreditCard(30000, 7);
    PCBL_CHECK(t.ok());
    return new Table(std::move(t).value());
  }();
  return *table;
}

// All 2- and 3-subsets of the first 14 credit-card attributes — the kind
// of lattice level the search sizes in one wave.
const std::vector<AttrMask>& LevelMasks() {
  static const std::vector<AttrMask>* masks = [] {
    auto* out = new std::vector<AttrMask>;
    ForEachSubsetOfSize(14, 2, [&](AttrMask s) { out->push_back(s); });
    ForEachSubsetOfSize(14, 3, [&](AttrMask s) { out->push_back(s); });
    return out;
  }();
  return *masks;
}

// The paper's duplication-heavy regime (the reduction databases and the
// skewed real datasets): few distinct rows, many copies. Rollup derives
// subset counts from the cached universe's groups instead of rescanning.
const Table& DuplicatedTable() {
  static const Table* table = [] {
    auto t = workload::MakeTwoClique(40000, 7, /*noise=*/0.05);
    PCBL_CHECK(t.ok());
    return new Table(std::move(t).value());
  }();
  return *table;
}

void BM_LevelSizingSerialColdScan(benchmark::State& state) {
  const Table& t = CreditTable();
  for (auto _ : state) {
    int64_t total = 0;
    for (AttrMask s : LevelMasks()) {
      total += CountDistinctPatterns(t, s, kBound);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_LevelSizingSerialColdScan)->Unit(benchmark::kMillisecond);

void BM_LevelSizingEngineBatch(benchmark::State& state) {
  const Table& t = CreditTable();
  CountingEngineOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CountingEngine engine(t, options);
    benchmark::DoNotOptimize(engine.CountPatternsBatch(LevelMasks(), kBound));
  }
}
BENCHMARK(BM_LevelSizingEngineBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The full top-down search, end to end; candidate sizing dominates at
// this bound, and with memoization on the ranking phase additionally
// reuses the cached PC sets (and sizing rolls up from cached
// supersets). LabelSearch keeps the dataset's CountingService warm
// across searches, so the cold benchmarks drop the cache between
// iterations (BM_TopDownSizingWarmService below measures the warm
// regime).
void RunTopDown(benchmark::State& state, int64_t cache_budget,
                int threads) {
  const Table& t = CreditTable();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = kBound;
  if (cache_budget >= 0) options.counting_cache_budget = cache_budget;
  options.num_threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    search.InvalidateCountingCache();
    state.ResumeTiming();
    SearchResult result = search.TopDown(options);
    benchmark::DoNotOptimize(result.stats.subsets_examined);
  }
}

// The no-memoization baseline: serial, cache budget 0.
void BM_TopDownSizingNoMemo(benchmark::State& state) {
  RunTopDown(state, /*cache_budget=*/0, /*threads=*/1);
}
BENCHMARK(BM_TopDownSizingNoMemo)->Unit(benchmark::kMillisecond);

void BM_TopDownSizingEngine(benchmark::State& state) {
  RunTopDown(state, /*cache_budget=*/-1,
             /*threads=*/static_cast<int>(state.range(0)));
}
BENCHMARK(BM_TopDownSizingEngine)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// A repeated query over the dataset-scoped service: the first search
// warms the PC-set cache, every later one sizes its candidates without a
// single full-table scan (asserted in pattern_counting_service_test.cc).
// This is the multi-query / bound-sweep serving regime the
// CountingService exists for.
void BM_TopDownSizingWarmService(benchmark::State& state) {
  const Table& t = CreditTable();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = kBound;
  search.TopDown(options);  // warm the service
  for (auto _ : state) {
    SearchResult result = search.TopDown(options);
    benchmark::DoNotOptimize(result.stats.subsets_examined);
  }
}
BENCHMARK(BM_TopDownSizingWarmService)->Unit(benchmark::kMillisecond);

// Regression guard for the reservation satellite: a budgeted sizing pass
// reserves its code containers from the budget hint and must never
// grow-rehash mid-scan.
void BM_BudgetedSizingReserveNoRehash(benchmark::State& state) {
  const int64_t budget = 100;
  for (auto _ : state) {
    counting::CodeSet seen(counting::SizingReserve(budget, 1 << 20));
    counting::CodeCountMap counts(counting::SizingReserve(budget, 1 << 20));
    for (int64_t code = 0; code <= budget; ++code) {
      seen.Insert(code * 977);
      counts.Increment(code * 977);
    }
    PCBL_CHECK(seen.rehashes() == 0 && counts.rehashes() == 0)
        << "budget-hinted reservation rehashed";
    benchmark::DoNotOptimize(seen.size());
    benchmark::DoNotOptimize(counts.size());
  }
}
BENCHMARK(BM_BudgetedSizingReserveNoRehash);

void BM_SubsetCountsColdRescan(benchmark::State& state) {
  const Table& t = DuplicatedTable();
  const AttrMask universe = AttrMask::All(t.num_attributes());
  for (auto _ : state) {
    int64_t total = 0;
    ForEachSubsetOf(universe, [&](AttrMask s) {
      total += CountDistinctPatterns(t, s);
    });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SubsetCountsColdRescan)->Unit(benchmark::kMillisecond);

void BM_SubsetCountsMemoizedRollup(benchmark::State& state) {
  const Table& t = DuplicatedTable();
  const AttrMask universe = AttrMask::All(t.num_attributes());
  for (auto _ : state) {
    CountingEngine engine(t);
    engine.PatternCounts(universe);  // one scan primes the cache
    int64_t total = 0;
    ForEachSubsetOf(universe, [&](AttrMask s) {
      total += engine.CountPatterns(s);
    });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SubsetCountsMemoizedRollup)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pcbl

BENCHMARK_MAIN();
