#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int Tracer::Begin(std::string name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  // Spans close innermost first; anything opened inside `id` and left
  // open is closed with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
    spans_[static_cast<size_t>(top)].end = spans_[static_cast<size_t>(id)].end;
  }
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

double Tracer::RootSeconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.end >= s.start) total += s.end - s.start;
  }
  return total;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    self[i] += s.end - s.start;
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

pcbl::Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return pcbl::IOError("cannot write " + path);
  out << "{\"spans\": [\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"request\": %lld}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  out.close();
  if (!out) return pcbl::IOError("cannot write " + path);
  return pcbl::Status::Ok();
}

}  // namespace perfbench
