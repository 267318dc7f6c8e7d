// Shared pieces of the benchmark driver's subcommands.
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relation/table.h"
#include "util/status.h"

namespace perfbench {

/// Flags of one subcommand: --name value pairs plus bare --name switches.
/// Every flag a subcommand reads is required; run.py passes each one, so
/// the driver has no defaults of its own that could differ from the
/// benchmark's.
class Flags {
 public:
  static pcbl::Result<Flags> Parse(int argc, char** argv);
  /// The flag's value; exits with a usage error when it is missing.
  std::string Get(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  /// Every value given for a repeatable flag, in order.
  std::vector<std::string> GetAll(const std::string& name) const;

 private:
  std::multimap<std::string, std::string> values_;
};

/// What a subcommand prints as its one JSON line: whether every output
/// checked out, the operations attempted and failed, named figures, and
/// named lists of raw samples (run.py takes their medians and tails).
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> facts;

  /// Records a failed correctness check.
  void Mismatch(const std::string& what);
  std::string ToJson() const;
};

/// The generated datasets, by name ("bluenile" or "compas").
pcbl::Result<pcbl::Table> MakeDataset(const std::string& name, int64_t rows,
                                      uint64_t seed);
/// Size of a file in MB (10^6 bytes); 0 when it cannot be read.
double FileMb(const std::string& path);
/// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();
/// Current resident set of this process, in MB (VmRSS).
double RssMb();
/// The sizing kernel the program dispatches to (run.py prints it next to
/// the machine facts it gathers itself).
void AddKernelIsa(Report* report);

int CmdGen(const Flags& flags);
int CmdCheckBuild(const Flags& flags);
int CmdTraceBuild(const Flags& flags);
int CmdServe(const Flags& flags);
int CmdAppend(const Flags& flags);
int CmdSelftest(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
