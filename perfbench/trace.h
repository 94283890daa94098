#ifndef STREACH_PERFBENCH_TRACE_H_
#define STREACH_PERFBENCH_TRACE_H_

// In-memory span recorder for the pipeline benchmark.
//
// Spans are recorded by the benchmark around its own calls into each
// library layer (the library itself is not instrumented). Each span has a
// name, a start, an end, a parent and a thread lane; the whole set is kept
// in memory and written out once, at the end, as Chrome trace-event JSON
// (open it in Perfetto or chrome://tracing). A span's self time is its
// duration minus the time its direct children cover; children never
// overlap each other because every parent/child pair lives on one thread.
//
// When disabled, `Begin`/`End`/`Record` return after one branch, so the
// untraced end-to-end run pays nothing measurable.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace streach {
namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< Index of the enclosing span; -1 at the root.
    int lane = 0;     ///< Thread lane (Chrome "tid").
  };

  Tracer() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the main lane, nested in the innermost open one.
  /// Returns its id (-1 when disabled).
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Clock::now(), Clock::time_point{}, parent, 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Records an already-timed span as a child of the innermost open
  /// main-lane span; `lane` > 0 marks work done on a helper thread.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, int lane = 0) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, start, end, parent, lane});
  }

  /// Per span name: number of spans, summed duration and summed self time
  /// (seconds).
  struct Totals {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> Summarize() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      // Helper-lane spans run concurrently with their siblings, so they
      // do not subtract from the main-lane parent's self time.
      if (span.parent >= 0 && span.lane == 0) {
        child_s[static_cast<size_t>(span.parent)] += Seconds(span);
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += Seconds(spans_[i]);
      t.self_s += Seconds(spans_[i]) - child_s[i];
    }
    return out;
  }

  /// Writes every span as a Chrome "complete" event. Returns false when
  /// the file cannot be written.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                   s.lane, Micros(origin_, s.start), Micros(s.start, s.end), i,
                   s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double Seconds(const Span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  static double Micros(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
  }

  bool enabled_ = false;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  // Guards spans_ and open_.
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on the main lane.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
}  // namespace streach

#endif  // STREACH_PERFBENCH_TRACE_H_
