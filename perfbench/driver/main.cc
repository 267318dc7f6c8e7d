// perfbench_driver: the in-process half of the pcbl benchmark.
//
//   perfbench_driver gen --dataset D --rows N --seed S --out F.csv
//   perfbench_driver check-build --csv F --bound B --label L:MAXABS:P:TOL ...
//   perfbench_driver trace-build --csv F --bound B --threads T --out L
//                                --trace-out SPANS.json
//   perfbench_driver serve  --seed S --requests N --setups K --trace 0|1
//                           --bluenile-rows N --compas-rows N
//                           --socket PATH --work DIR [--trace-out SPANS.json]
//   perfbench_driver append --seed S --rows N --rounds N --setups K
//                           --trace 0|1 [--trace-out SPANS.json]
//   perfbench_driver selftest
//
// Each subcommand prints one JSON object as its last stdout line; run.py
// turns those into the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver.h"
#include "pattern/kernel_dispatch.h"
#include "workload/datasets.h"

namespace perfbench {

pcbl::Result<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return pcbl::InvalidArgumentError("unexpected argument " + arg);
    }
    const std::string name = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_.emplace(name, argv[++i]);
    } else {
      flags.values_.emplace(name, "1");
    }
  }
  return flags;
}

std::string Flags::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "missing flag --%s\n", name.c_str());
    std::exit(2);
  }
  return it->second;
}

int64_t Flags::GetInt(const std::string& name) const {
  return std::stoll(Get(name));
}

std::vector<std::string> Flags::GetAll(const std::string& name) const {
  std::vector<std::string> out;
  auto [lo, hi] = values_.equal_range(name);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(errors[i]);
  }
  out << "], \"values\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << JsonString(name) << ": "
        << (std::isfinite(value) ? value : 0.0);
    first = false;
  }
  out << "}, \"samples\": {";
  first = true;
  for (const auto& [name, list] : samples) {
    out << (first ? "" : ", ") << JsonString(name) << ": [";
    for (size_t i = 0; i < list.size(); ++i) {
      out << (i ? ", " : "") << (std::isfinite(list[i]) ? list[i] : 0.0);
    }
    out << "]";
    first = false;
  }
  out << "}, \"facts\": {";
  first = true;
  for (const auto& [name, value] : facts) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonString(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

pcbl::Result<pcbl::Table> MakeDataset(const std::string& name, int64_t rows,
                                      uint64_t seed) {
  if (name == "bluenile") return pcbl::workload::MakeBlueNile(rows, seed);
  if (name == "compas") return pcbl::workload::MakeCompas(rows, seed);
  return pcbl::InvalidArgumentError("unknown dataset " + name);
}

double FileMb(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<double>(file.tellg()) / 1e6 : 0.0;
}

namespace {

// A "Vm...:" line of /proc/self/status, in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double RssMb() { return StatusMb("VmRSS:"); }

void AddKernelIsa(Report* report) {
  report->facts["kernel_isa"] = pcbl::counting::KernelDispatchDescription();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver <subcommand> [--flag value]...\n");
    return 2;
  }
  auto flags = Flags::Parse(argc - 2, argv + 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(*flags);
  if (cmd == "check-build") return CmdCheckBuild(*flags);
  if (cmd == "trace-build") return CmdTraceBuild(*flags);
  if (cmd == "serve") return CmdServe(*flags);
  if (cmd == "append") return CmdAppend(*flags);
  if (cmd == "selftest") return CmdSelftest(*flags);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
