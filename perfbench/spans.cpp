#include "spans.hpp"

#include <fstream>

#include "harness/json.hpp"

namespace perfbench {

namespace json = nicmcast::harness::json;

SpanLog::Scope::Scope(SpanLog& log, std::string_view name,
                      std::string_view layer, int spec, int pass)
    : log_(log) {
  if (log_.enabled_) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.id = static_cast<int>(log_.spans_.size());
    span.parent = log_.open_.empty() ? -1 : log_.open_.back();
    span.spec = spec;
    span.pass = pass;
    index_ = span.id;
    log_.spans_.push_back(span);
    log_.open_.push_back(index_);
  }
  start_ = Clock::now();
}

double SpanLog::Scope::stop() {
  if (!open_) return seconds_;
  const Clock::time_point end = Clock::now();
  open_ = false;
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    Span& span = log_.spans_[static_cast<std::size_t>(index_)];
    span.start_ns = log_.since_origin(start_);
    span.end_ns = log_.since_origin(end);
    log_.open_.pop_back();
  }
  return seconds_;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[std::string(spans[i].layer)] +=
        static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

bool write_chrome_trace(
    const std::string& path, const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  json::Value events = json::Value::array();
  json::Value process = json::Value::object();
  process["name"] = "process_name";
  process["ph"] = "M";
  process["pid"] = 1;
  process["tid"] = 1;
  process["args"]["name"] = "perfbench";
  events.push_back(std::move(process));
  for (const Span& s : spans) {
    json::Value e = json::Value::object();
    e["name"] = s.name;
    e["cat"] = s.layer;
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns) / 1e3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    e["pid"] = 1;
    e["tid"] = 1;
    e["args"]["id"] = s.id;
    e["args"]["parent"] = s.parent;
    e["args"]["spec"] = s.spec;
    e["args"]["pass"] = s.pass;
    events.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  for (const auto& [key, value] : meta) doc["otherData"][key] = value;

  std::ofstream out(path);
  out << doc.dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
