// Span recording for the benchmark's traced pass. Spans are taken in
// the benchmark's own code around each call into one of the program's
// modules (never inside the program), kept in per-thread buffers, and
// written out when the run ends. A disabled Trace records nothing; the
// scoped span then costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  uint64_t request = 0;   // spans of one request share it; 0 = none
  int32_t parent = -1;    // index in the same buffer, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// One thread's spans. Only its owning thread appends.
class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name, uint64_t request) {
    Span span;
    span.name = name;
    span.request = request;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the buffer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, uint64_t request = 0)
      : buffer_(buffer != nullptr && buffer->enabled() ? buffer : nullptr) {
    if (buffer_ != nullptr) index_ = buffer_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  int32_t index_ = -1;
};

/// Owns every thread's buffer and answers per-name questions at the
/// end of the run.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// A new buffer for the calling thread (stable address).
  TraceBuffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<TraceBuffer>(enabled_));
    return buffers_.back().get();
  }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> Micros(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const Span& span : buffer->spans()) {
        if (name == span.name) out.push_back(span.micros());
      }
    }
    return out;
  }

  /// Writes one line per span name: count, total and self time (the
  /// span's duration minus what its child spans cover), then up to
  /// `max_spans` raw spans as JSON lines. Call after every recording
  /// thread has finished.
  bool WriteTo(const std::string& path, size_t max_spans) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    struct Totals {
      uint64_t count = 0;
      double total_us = 0;
      double self_us = 0;
    };
    std::map<std::string, Totals> totals;
    size_t written = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      const auto& spans = buffer->spans();
      std::vector<double> child_us(spans.size(), 0.0);
      for (const Span& span : spans) {
        if (span.parent >= 0) {
          child_us[static_cast<size_t>(span.parent)] += span.micros();
        }
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        Totals& t = totals[spans[i].name];
        t.count += 1;
        t.total_us += spans[i].micros();
        t.self_us += spans[i].micros() - child_us[i];
        if (written < max_spans) {
          std::fprintf(out,
                       "{\"span\": \"%s\", \"request\": %llu, \"parent\": %d, "
                       "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                       spans[i].name,
                       static_cast<unsigned long long>(spans[i].request),
                       spans[i].parent, static_cast<long long>(spans[i].start_ns),
                       static_cast<long long>(spans[i].end_ns));
          ++written;
        }
      }
    }
    for (const auto& [name, t] : totals) {
      std::fprintf(out,
                   "{\"summary\": \"%s\", \"count\": %llu, \"total_us\": %.3f, "
                   "\"self_us\": %.3f}\n",
                   name.c_str(), static_cast<unsigned long long>(t.count),
                   t.total_us, t.self_us);
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
