// Span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (name, start, end, parent), kept in memory, and written
// once at exit as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open offline. Each recording thread owns one SpanLog, so
// recording takes no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
std::uint64_t now_ns();

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}

  /// Open a span; returns its handle for end() and as a child's parent.
  std::uint32_t begin(const char* name, std::uint32_t parent = kNoParent);
  void end(std::uint32_t span);
  /// Record an already measured interval.
  std::uint32_t add(const char* name, std::uint64_t begin_ns,
                    std::uint64_t end_ns, std::uint32_t parent = kNoParent);

 private:
  friend class Tracer;
  struct Span {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;
  };
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// A log for one recording thread; valid for the tracer's lifetime.
  SpanLog& thread_log(std::uint32_t thread) {
    return logs_.emplace_back(thread);
  }

  /// Write every span as Chrome trace-event JSON. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::deque<SpanLog> logs_;
};

/// RAII span on an optional log (no-op when the log is null).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name,
         std::uint32_t parent = SpanLog::kNoParent)
      : log_(log), span_(log ? log->begin(name, parent) : 0) {}
  ~Scoped() {
    if (log_ != nullptr) log_->end(span_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::uint32_t id() const {
    return log_ ? span_ : SpanLog::kNoParent;
  }

 private:
  SpanLog* log_;
  std::uint32_t span_;
};

}  // namespace perfbench
