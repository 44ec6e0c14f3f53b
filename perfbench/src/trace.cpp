#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

std::uint64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

std::uint32_t SpanLog::begin(const char* name, std::uint32_t parent) {
  const std::uint64_t t = now_ns();
  spans_.push_back({name, t, t, parent});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::end(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

std::uint32_t SpanLog::add(const char* name, std::uint64_t begin_ns,
                           std::uint64_t end_ns, std::uint32_t parent) {
  spans_.push_back({name, begin_ns, end_ns, parent});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

bool Tracer::write(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f.get());
  bool first = true;
  for (const SpanLog& log : logs_) {
    for (std::size_t i = 0; i < log.spans_.size(); ++i) {
      const SpanLog::Span& s = log.spans_[i];
      // Span ids are (thread, index); the parent lives on the same thread.
      std::fprintf(f.get(),
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%u.%zu\"",
                   first ? "" : ",", s.name, log.thread_,
                   static_cast<double>(s.begin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                   log.thread_, i);
      if (s.parent != SpanLog::kNoParent) {
        std::fprintf(f.get(), ",\"parent\":\"%u.%u\"", log.thread_, s.parent);
      }
      std::fputs("}}", f.get());
      first = false;
    }
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
