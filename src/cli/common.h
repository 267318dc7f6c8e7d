// Helpers shared by the pcbl subcommands.
#ifndef PCBL_CLI_COMMON_H_
#define PCBL_CLI_COMMON_H_

#include <ostream>
#include <string>

#include "api/dataset.h"
#include "api/session.h"
#include "cli/args.h"
#include "core/error.h"
#include "core/portable_label.h"
#include "relation/table.h"
#include "util/status.h"

namespace pcbl {
namespace cli {

/// Exit codes shared by all commands.
inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;
inline constexpr int kExitUsage = 2;

/// Prints `status` as "pcbl <command>: <message>" and returns the exit
/// code for it (usage errors map to kExitUsage).
int FailWith(const Status& status, const std::string& command,
             std::ostream& err);

/// Reads a CSV dataset, reporting row/attribute counts to `out` unless
/// quiet.
Result<Table> LoadCsvTable(const std::string& path);

/// Loads a portable label from a JSON or binary file.
Result<PortableLabel> LoadLabelFile(const std::string& path);

/// Parses "attr=value,attr=value" into (attribute, value) pairs. Values
/// may contain '=' (only the first one per term separates); terms are
/// trimmed.
Result<std::vector<std::pair<std::string, std::string>>> ParseNamedPattern(
    const std::string& text);

/// Parses an OptimizationMetric name (max-abs, mean-abs, max-q, mean-q).
Result<OptimizationMetric> ParseMetric(const std::string& name);

/// The engine/service flag set shared by the data-backed commands —
/// `--threads N` (0 or absent = all hardware threads),
/// `--cache-budget N` (0 = no memoization), `--service-budget N`, `--no-result-cache`,
/// `--result-cache-budget N`, `--kernel NAME`
/// (scalar|avx2|neon|auto — forces the SIMD sizing-kernel ISA,
/// validated centrally by counting::SetKernelIsaByName),
/// `--min-rows-per-morsel N` (0 disables intra-subset parallel scans) —
/// parsed once here instead of per command, and converted into the
/// façade's option structs. Value validation (negative threads,
/// conflicting result-cache flags) is the façade's job:
/// Session::Open / Submit return Status on nonsense.
struct ServiceFlags {
  int64_t threads = 0;          ///< 0 = all hardware threads
  int64_t cache_budget = -1;    ///< meaningful iff has_cache_budget
  bool has_cache_budget = false;
  int64_t service_budget = -1;  ///< registry budget; -1 = flag absent
  bool no_result_cache = false;
  int64_t result_cache_budget = -1;  ///< iff has_result_cache_budget
  bool has_result_cache_budget = false;
  int64_t min_rows_per_morsel = -1;  ///< -1 = engine default
  std::string spill_dir;        ///< warm-start spill directory; "" = off
  bool any = false;             ///< any of the flags was present

  /// Session defaults carrying the per-invocation knobs.
  api::SessionOptions ToSessionOptions() const;
  /// Dataset options carrying the registry budget and the CSV parse
  /// threads.
  api::DatasetOptions ToDatasetOptions() const;
};

/// Parses the shared flag set. Parse errors and a negative
/// `--service-budget` propagate; everything else is validated by the
/// façade when the options are used.
Result<ServiceFlags> ParseServiceFlags(const Args& args);

/// Renders the registry's hit/miss/eviction and resident-bytes counters
/// as one "registry:" summary line.
std::string FormatRegistryStats();

/// Renders the active sizing configuration — kernel ISA dispatch plus
/// the morsel threshold these flags selected — as one "sizing:" line.
std::string FormatSizingConfig(const ServiceFlags& flags);

/// Renders an ErrorReport as aligned "key: value" lines.
std::string FormatErrorReport(const ErrorReport& report, int64_t total_rows);

}  // namespace cli
}  // namespace pcbl

#endif  // PCBL_CLI_COMMON_H_
