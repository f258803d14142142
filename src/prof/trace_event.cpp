#include "prof/trace_event.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace dcr::prof {

namespace {

using ull = unsigned long long;

// Append to buf[len..cap) and return the new length, clamped like snprintf.
template <typename... Args>
std::size_t append(char* buf, std::size_t cap, std::size_t len, const char* fmt,
                   Args... args) {
  if (len + 1 >= cap) return len;
  const int n = std::snprintf(buf + len, cap - len, fmt, args...);
  return n < 0 ? len : std::min(cap - 1, len + static_cast<std::size_t>(n));
}

}  // namespace

std::size_t format_event(char* buf, std::size_t cap, const char* name, Lane lane,
                         std::uint32_t shard, SimTime start, SimTime end, TraceArg a,
                         TraceArg b) {
  const SimTime dur = end > start ? end - start : 0;
  std::size_t len = append(
      buf, cap, 0,
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu.%03u,\"dur\":%llu.%03u,"
      "\"pid\":%u,\"tid\":%u,\"args\":{",
      name, prof::name(lane), static_cast<ull>(start / 1000),
      static_cast<unsigned>(start % 1000), static_cast<ull>(dur / 1000),
      static_cast<unsigned>(dur % 1000), static_cast<unsigned>(shard),
      static_cast<unsigned>(lane));
  const char* sep = "";
  for (const TraceArg& arg : {a, b}) {
    if (arg.value == kNoId) continue;
    len = append(buf, cap, len, "%s\"%s\":%llu", sep, arg.key, static_cast<ull>(arg.value));
    sep = ",";
  }
  return append(buf, cap, len, "}}");
}

std::size_t format_span(char* buf, std::size_t cap, const Span& s) {
  return format_event(buf, cap, name(s.kind), s.lane, s.shard, s.start, s.end,
                      {"op", s.op}, {"iter", s.iter});
}

std::size_t format_tracks(char* buf, std::size_t cap, std::uint32_t shard) {
  const auto pid = static_cast<unsigned>(shard);
  std::size_t len = append(buf, cap, 0,
                           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                           "\"args\":{\"name\":\"shard %u\"}}",
                           pid, pid);
  for (unsigned l = 0; l < static_cast<unsigned>(Lane::kCount); ++l) {
    len = append(buf, cap, len,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 pid, l, name(static_cast<Lane>(l)));
  }
  return len;
}

void write_chrome_trace(std::ostream& os, std::size_t num_shards,
                        const std::vector<Span>& spans) {
  char buf[kTraceEventMax];
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const char* sep = "\n";
  auto put = [&](std::size_t n) {
    os << sep;
    os.write(buf, static_cast<std::streamsize>(n));
    sep = ",\n";
  };
  for (std::size_t s = 0; s < num_shards; ++s) {
    put(format_tracks(buf, sizeof(buf), static_cast<std::uint32_t>(s)));
  }
  for (const Span& sp : spans) put(format_span(buf, sizeof(buf), sp));
  os << "\n]}\n";
}

}  // namespace dcr::prof
