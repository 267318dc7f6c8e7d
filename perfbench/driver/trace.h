// Spans recorded by the benchmark around its calls into the program.
//
// A span is one timed call: its name ("<layer>.<function>"), start, end,
// the span open when it began (its parent), and the request it served.
// Spans stay in memory and are written out once, when the run ends. A
// disabled tracer records nothing, so untraced runs time the same code
// with no tracing work in it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int Begin(std::string name, int64_t request = -1);
  void End(int id);

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int64_t request = -1)
        : tracer_(tracer), id_(tracer.Begin(std::move(name), request)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Durations, in seconds, of the closed spans named `name`.
  std::vector<double> Durations(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  /// Summed durations of the spans that have no parent.
  double RootSeconds() const;
  /// Per layer (the name up to its first '.'): summed span durations
  /// minus the parts of them their child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as JSON.
  pcbl::Status WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t request = -1;
    int parent = -1;
    double start = 0.0;  // seconds since origin_
    double end = -1.0;   // < start while open
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
