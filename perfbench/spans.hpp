// Host-time spans recorded around the benchmark's calls into each layer.
//
// Every timed call goes through `timed()`, which always measures the call
// with std::chrono::steady_clock (the untraced run needs the durations for
// setup_s and wall_s) and, when the log is enabled, also keeps a Span in
// memory: name, layer, start/end, the enclosing span and the spec it
// belongs to.  Names and layers are string literals, so recording a span
// never allocates a string.  The spans are turned into per-layer self time
// and a Chrome trace-event file once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string_view name;   // the public call, e.g. "net::Topology::clos"
  std::string_view layer;  // src/ module that owns the call, or "bench"
  std::int64_t start_ns = 0;  // relative to the log's origin
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // enclosing span, -1 at top level
  int spec = -1;    // per-spec id: pass * specs + index; -1 for a pass span
  int pass = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Records [construction, stop()) as one span; the destructor stops it if
  /// the timed call threw.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name, std::string_view layer,
          int spec, int pass);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (once) and returns its duration in seconds.
    double stop();

   private:
    SpanLog& log_;
    Clock::time_point start_;
    double seconds_ = 0.0;
    int index_ = -1;  // position in log_.spans_, -1 when not recorded
    bool open_ = true;
  };

 private:
  std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of recorded, still-open span indices
};

/// Runs `fn` inside a span and returns its host time in seconds.
template <typename F>
double timed(SpanLog& log, std::string_view name, std::string_view layer,
             int spec, int pass, F&& fn) {
  SpanLog::Scope scope(log, name, layer, spec, pass);
  fn();
  return scope.stop();
}

/// Self time per layer (seconds): each span's duration minus the part its
/// child spans cover, summed by layer.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// track) with `meta` under "otherData".  Returns false if the file could
/// not be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::pair<std::string, std::string>>&
                            meta);

}  // namespace perfbench
