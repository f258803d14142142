#include "scope/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "common/check.hpp"
#include "prof/profiler.hpp"
#include "prof/trace_event.hpp"

namespace dcr::scope {

FlightRecorder::FlightRecorder(std::size_t num_shards, std::size_t capacity)
    : capacity_(capacity) {
  DCR_CHECK(capacity >= 1);
  rings_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto ring = std::make_unique<Ring>();
    ring->events.resize(capacity);
    rings_.push_back(std::move(ring));
  }
}

void FlightRecorder::record(std::uint32_t shard, const FlightEvent& e) {
  DCR_CHECK(shard < rings_.size());
  Ring& ring = *rings_[shard];
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.events[head % capacity_] = e;
  // Release so a reader that acquires `head` sees the completed event.
  ring.head.store(head + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::recorded(std::uint32_t shard) const {
  DCR_CHECK(shard < rings_.size());
  return rings_[shard]->head.load(std::memory_order_acquire);
}

namespace {

// Buffered async-signal-safe writer: snprintf into the caller's scratch,
// append here, flush with ::write.  No allocation, no locks, no iostreams.
struct SafeOut {
  int fd;
  char buf[4096];
  std::size_t len = 0;

  explicit SafeOut(int f) : fd(f) {}
  ~SafeOut() { flush(); }

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* s, std::size_t n) {
    if (len + n > sizeof(buf)) flush();
    if (n > sizeof(buf)) {  // oversized chunk: write through
      std::size_t off = 0;
      while (off < n) {
        const ssize_t w = ::write(fd, s + off, n - off);
        if (w <= 0) return;
        off += static_cast<std::size_t>(w);
      }
      return;
    }
    std::memcpy(buf + len, s, n);
    len += n;
  }
  void puts(const char* s) { put(s, std::strlen(s)); }
  void putf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char tmp[512];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(tmp, sizeof(tmp), fmt, ap);
    va_end(ap);
    if (n > 0) put(tmp, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(tmp) - 1));
  }
};

// One ring event through the shared trace_event formatter, on the lane its
// span kind would use in the full export.
std::size_t format_flight(char* buf, std::size_t cap, const FlightEvent& e) {
  using prof::Lane;
  using prof::SpanKind;
  switch (e.kind) {
    case FlightEvent::Kind::Span:
      return prof::format_event(buf, cap, "fine_stage", Lane::Analysis, e.shard, e.start,
                                e.end, {"op", e.op}, {"span", e.aux});
    case FlightEvent::Kind::FenceWait:
      return prof::format_event(buf, cap, prof::name(SpanKind::FenceWait), Lane::Fence,
                                e.shard, e.start, e.end, {"op", e.op});
    case FlightEvent::Kind::FutureWait:
      return prof::format_event(buf, cap, prof::name(SpanKind::FutureWait), Lane::Control,
                                e.shard, e.start, e.end, {"future", e.op},
                                {"releaser", e.aux});
    case FlightEvent::Kind::Launch:
      return prof::format_event(buf, cap, "task_launch", Lane::Analysis, e.shard, e.start,
                                e.end, {"op", e.op}, {"point", e.aux});
  }
  return 0;
}

// Copy `s` into `out`, replacing JSON-hostile bytes so the reason string can
// be embedded without an allocator-backed escaper.
void sanitize(const char* s, char* out, std::size_t cap) {
  std::size_t i = 0;
  for (; s[i] != '\0' && i + 1 < cap; ++i) {
    const char c = s[i];
    out[i] = (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                 ? ' '
                 : c;
  }
  out[i] = '\0';
}

}  // namespace

void FlightRecorder::dump_fd(int fd, const char* reason,
                             const prof::Profiler* prof) const {
  SafeOut out(fd);
  out.puts("{\"traceEvents\":[");
  char buf[prof::kTraceEventMax];
  const char* sep = "\n";
  auto put = [&](std::size_t n) {
    out.puts(sep);
    out.put(buf, n);
    sep = ",\n";
  };
  for (std::size_t s = 0; s < rings_.size(); ++s) {
    put(prof::format_tracks(buf, sizeof(buf), static_cast<std::uint32_t>(s)));
  }
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = head < capacity_ ? head : capacity_;
    // Oldest retained event first.
    for (std::uint64_t k = 0; k < n; ++k) {
      put(format_flight(buf, sizeof(buf), ring->events[(head - n + k) % capacity_]));
    }
  }
  char safe_reason[256];
  sanitize(reason != nullptr ? reason : "", safe_reason, sizeof(safe_reason));
  out.putf("\n],\n\"metadata\":{\"reason\":\"%s\"", safe_reason);
  out.puts(",\"flight_recorded\":[");
  for (std::size_t s = 0; s < rings_.size(); ++s) {
    out.putf("%s%llu", s == 0 ? "" : ",",
             static_cast<unsigned long long>(
                 rings_[s]->head.load(std::memory_order_acquire)));
  }
  out.puts("]");
  if (prof != nullptr) {
    out.puts(",\"shard_fence_wait_ns\":[");
    for (std::uint32_t s = 0; s < prof->num_shards(); ++s) {
      out.putf("%s%llu", s == 0 ? "" : ",",
               static_cast<unsigned long long>(
                   prof->shard(s).get(prof::Counter::FenceWaitNs)));
    }
    out.puts("]");
  }
  out.puts("}}\n");
  out.flush();
}

bool FlightRecorder::dump(const std::string& path, const char* reason,
                          const prof::Profiler* prof) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  dump_fd(fd, reason, prof);
  ::close(fd);
  return true;
}

// ------------------------------------------------------------ signal hook

namespace {
std::atomic<FlightRecorder*> g_armed{nullptr};
const prof::Profiler* g_armed_prof = nullptr;
char g_armed_path[512] = {0};

void flight_signal_handler(int sig) {
  FlightRecorder* fr = g_armed.exchange(nullptr, std::memory_order_acq_rel);
  if (fr != nullptr) {
    const int fd = ::open(g_armed_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      char reason[64];
      std::snprintf(reason, sizeof(reason), "fatal signal %d", sig);
      fr->dump_fd(fd, reason, g_armed_prof);
      ::close(fd);
    }
  }
  // SA_RESETHAND restored the default disposition; re-raise to die with it.
  ::raise(sig);
}

void set_handler(int sig, void (*fn)(int)) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = fn;
  sa.sa_flags = fn != nullptr ? SA_RESETHAND : 0;
  if (fn == nullptr) sa.sa_handler = SIG_DFL;
  sigemptyset(&sa.sa_mask);
  ::sigaction(sig, &sa, nullptr);
}
}  // namespace

void FlightRecorder::arm_signal_dump(FlightRecorder* fr, std::string path,
                                     const prof::Profiler* prof) {
  constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
  if (fr == nullptr) {
    g_armed.store(nullptr, std::memory_order_release);
    for (int sig : kSignals) set_handler(sig, nullptr);
    return;
  }
  std::snprintf(g_armed_path, sizeof(g_armed_path), "%s", path.c_str());
  g_armed_prof = prof;
  g_armed.store(fr, std::memory_order_release);
  for (int sig : kSignals) set_handler(sig, &flight_signal_handler);
}

}  // namespace dcr::scope
