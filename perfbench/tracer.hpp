// Context-boundary tracer owned by the benchmark.
//
// Nothing here reaches inside the runtime.  The tracer sees the program from
// two boundaries the benchmark already owns:
//
//  * TracingContext, a forwarding core::Context decorator that wraps each
//    shard's ApplicationMain and times every API call it forwards;
//  * wrap_functions, which re-registers the app's TaskFunctions with a
//    duration callback that times and counts each point-task cost-model call.
//
// Spans go into per-thread single-writer buffers (one per shard control
// thread, plus one for any other thread that runs a task callback, such as
// the simulator's calendar thread).  The buffers are only read after execute
// returns and the runtime is destroyed, so no span write ever takes a lock.
//
// Clocks: on the simulator every API call yields to the calendar, so the wall
// time inside a call includes other shards' work.  There a span's start/end
// use the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID); on the threads
// backend they use the monotonic wall clock.  Every span also keeps its wall
// start, which places it on the Perfetto timeline.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "dcr/api.hpp"

namespace perfbench {

using namespace dcr;

inline std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
inline std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// The API-call kinds reported per layer.  Other calls are traced as spans but
// not aggregated.
enum class CallKind : std::uint8_t {
  IndexLaunch,
  GetFuture,
  ExecutionFence,
  TraceWindow,  // begin_trace + end_trace
  Create,       // field spaces, fields, regions, partitions
  Other,
  Task,         // a wrapped TaskFunction::duration callback
  Root,         // a shard's whole control program / the execute call
  kCount
};

inline const char* kind_name(CallKind k) {
  switch (k) {
    case CallKind::IndexLaunch: return "index_launch";
    case CallKind::GetFuture: return "get_future";
    case CallKind::ExecutionFence: return "execution_fence";
    case CallKind::TraceWindow: return "trace_window";
    case CallKind::Create: return "create";
    case CallKind::Other: return "other";
    case CallKind::Task: return "task";
    case CallKind::Root: return "root";
    case CallKind::kCount: break;
  }
  return "?";
}

inline constexpr std::uint32_t kNoParent = ~0u;
inline constexpr std::uint64_t kNoStep = ~0ull;

struct Span {
  const char* name = "";  // a string literal or a name interned in the Tracer
  CallKind kind = CallKind::Other;
  std::uint64_t start = 0;  // boundary clock (thread CPU on sim, wall on threads)
  std::uint64_t end = 0;
  std::uint64_t wall_start = 0;
  std::uint32_t parent = kNoParent;  // index of the enclosing span in the same buffer
  std::uint64_t step = kNoStep;      // timestep id: spans of one timestep share it
  std::uint64_t modeled_ns = 0;      // task spans: the cost model's result
};

// One thread's spans.  Written only by its owning thread.
struct SpanBuffer {
  std::string track;
  std::vector<Span> spans;
  std::uint32_t open = kNoParent;  // innermost open span
  std::uint64_t step = kNoStep;    // current timestep of this thread's control program
};

class Tracer {
 public:
  explicit Tracer(bool cpu_clock) : cpu_clock_(cpu_clock), generation_(next_generation()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t now() const { return cpu_clock_ ? thread_cpu_ns() : wall_ns(); }

  // The calling thread's buffer, registered on first use.
  SpanBuffer& buffer() {
    thread_local Slot slot;
    if (slot.generation != generation_) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<SpanBuffer>());
      buffers_.back()->track = "thread " + std::to_string(buffers_.size() - 1);
      slot = {generation_, buffers_.back().get()};
    }
    return *slot.buffer;
  }

  std::uint32_t open(SpanBuffer& b, const char* name, CallKind kind) {
    Span s;
    s.name = name;
    s.kind = kind;
    s.wall_start = wall_ns();
    s.parent = b.open;
    s.step = b.step;
    s.start = now();
    b.spans.push_back(s);
    b.open = static_cast<std::uint32_t>(b.spans.size() - 1);
    return b.open;
  }

  void close(SpanBuffer& b, std::uint32_t idx) {
    Span& s = b.spans[idx];
    s.end = now();
    b.open = s.parent;
  }

  // A span name that lives as long as the tracer (task names are owned by a
  // FunctionRegistry that is gone before the spans are written).
  const char* intern(std::string name) {
    std::lock_guard<std::mutex> lk(mu_);
    return names_.emplace_back(std::move(name)).c_str();
  }

  // Readers: only after every writing thread has finished.
  const std::deque<std::unique_ptr<SpanBuffer>>& buffers() const { return buffers_; }

  // Chrome trace_event JSON (Perfetto-loadable): one track per buffer,
  // ts = wall start, dur = boundary-clock duration.
  void write_chrome_trace(std::ostream& os) const {
    std::uint64_t t0 = ~0ull;
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans) t0 = std::min(t0, s.wall_start);
    }
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dur_clock\":\""
       << (cpu_clock_ ? "thread_cpu" : "wall") << "\"},\"traceEvents\":[";
    bool first = true;
    for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
      const SpanBuffer& b = *buffers_[tid];
      os << (first ? "" : ",") << "\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << b.track << "\"}}";
      first = false;
      for (std::size_t i = 0; i < b.spans.size(); ++i) {
        const Span& s = b.spans[i];
        os << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"name\":\"" << s.name
           << "\",\"cat\":\"" << kind_name(s.kind) << "\",\"ts\":"
           << static_cast<double>(s.wall_start - t0) / 1e3
           << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
           << ",\"args\":{\"id\":" << i;
        if (s.parent != kNoParent) os << ",\"parent\":" << s.parent;
        if (s.step != kNoStep) os << ",\"step\":" << s.step;
        if (s.kind == CallKind::Task) os << ",\"modeled_ns\":" << s.modeled_ns;
        os << "}}";
      }
    }
    os << "\n]}\n";
  }

 private:
  struct Slot {
    std::uint64_t generation = 0;
    SpanBuffer* buffer = nullptr;
  };
  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> g{0};
    return ++g;
  }

  bool cpu_clock_;
  std::uint64_t generation_;
  std::mutex mu_;  // guards registration in buffers_ and names_
  std::deque<std::unique_ptr<SpanBuffer>> buffers_;
  std::deque<std::string> names_;
};

// RAII span on the calling thread's buffer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, SpanBuffer& b, const char* name, CallKind kind)
      : t_(t), b_(b), idx_(t.open(b, name, kind)) {}
  ~ScopedSpan() { t_.close(b_, idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Span& span() { return b_.spans[idx_]; }

 private:
  Tracer& t_;
  SpanBuffer& b_;
  std::uint32_t idx_;
};

// Forwarding Context decorator.  A timestep begins at each index launch of
// `step_head` (the first task of the app's time loop), so every span of one
// timestep on one shard carries the same step id.
class TracingContext final : public core::Context {
 public:
  TracingContext(core::Context& inner, Tracer& tracer, FunctionId step_head)
      : in_(inner), t_(tracer), b_(tracer.buffer()), step_head_(step_head) {
    b_.track = "shard " + std::to_string(inner.shard_id().value);
  }

 private:
  // Defined before the overrides that use it: its return type is deduced.
  template <typename F>
  auto timed(const char* name, CallKind kind, F&& f) {
    ScopedSpan s(t_, b_, name, kind);
    return f();
  }

 public:
  FieldSpaceId create_field_space() override {
    return timed("create_field_space", CallKind::Create,
                 [&] { return in_.create_field_space(); });
  }
  FieldId allocate_field(FieldSpaceId fs, std::size_t bytes, std::string name) override {
    return timed("allocate_field", CallKind::Create,
                 [&] { return in_.allocate_field(fs, bytes, std::move(name)); });
  }
  RegionTreeId create_region(const rt::Rect& bounds, FieldSpaceId fs) override {
    return timed("create_region", CallKind::Create,
                 [&] { return in_.create_region(bounds, fs); });
  }
  IndexSpaceId root(RegionTreeId tree) override { return in_.root(tree); }
  PartitionId partition_equal(IndexSpaceId parent, std::size_t pieces, int axis) override {
    return timed("partition_equal", CallKind::Create,
                 [&] { return in_.partition_equal(parent, pieces, axis); });
  }
  PartitionId partition_with_halo(IndexSpaceId parent, std::size_t pieces, std::int64_t halo,
                                  int axis) override {
    return timed("partition_with_halo", CallKind::Create,
                 [&] { return in_.partition_with_halo(parent, pieces, halo, axis); });
  }
  PartitionId create_partition(IndexSpaceId parent, std::vector<rt::Rect> pieces,
                               bool disjoint) override {
    return timed("create_partition", CallKind::Create, [&] {
      return in_.create_partition(parent, std::move(pieces), disjoint);
    });
  }
  PartitionId partition_grid(IndexSpaceId parent, std::size_t tiles_x, std::size_t tiles_y,
                             std::int64_t halo) override {
    return timed("partition_grid", CallKind::Create,
                 [&] { return in_.partition_grid(parent, tiles_x, tiles_y, halo); });
  }
  void destroy_region(RegionTreeId tree) override {
    timed("destroy_region", CallKind::Other, [&] { in_.destroy_region(tree); });
  }
  void destroy_region_deferred(RegionTreeId tree) override {
    timed("destroy_region_deferred", CallKind::Other,
          [&] { in_.destroy_region_deferred(tree); });
  }
  const rt::RegionForest& forest() const override { return in_.forest(); }

  void fill(IndexSpaceId region, std::vector<FieldId> fields) override {
    timed("fill", CallKind::Other, [&] { in_.fill(region, std::move(fields)); });
  }
  core::Future launch(const core::TaskLaunch& launch) override {
    return timed("launch", CallKind::Other, [&] { return in_.launch(launch); });
  }
  core::FutureMap index_launch(const core::IndexLaunch& launch) override {
    if (launch.fn == step_head_) b_.step = b_.step == kNoStep ? 0 : b_.step + 1;
    return timed("index_launch", CallKind::IndexLaunch,
                 [&] { return in_.index_launch(launch); });
  }
  core::Future reduce_future_map(const core::FutureMap& fm, core::ReduceOp op) override {
    return timed("reduce_future_map", CallKind::Other,
                 [&] { return in_.reduce_future_map(fm, op); });
  }
  double get_future(const core::Future& f) override {
    return timed("get_future", CallKind::GetFuture, [&] { return in_.get_future(f); });
  }
  bool future_is_ready(const core::Future& f) override {
    return timed("future_is_ready", CallKind::Other, [&] { return in_.future_is_ready(f); });
  }
  void execution_fence() override {
    timed("execution_fence", CallKind::ExecutionFence, [&] { in_.execution_fence(); });
  }

  void attach_file(IndexSpaceId region, std::vector<FieldId> fields,
                   std::string file) override {
    timed("attach_file", CallKind::Other,
          [&] { in_.attach_file(region, std::move(fields), std::move(file)); });
  }
  void detach_file(IndexSpaceId region, std::vector<FieldId> fields) override {
    timed("detach_file", CallKind::Other,
          [&] { in_.detach_file(region, std::move(fields)); });
  }
  void attach_file_group(PartitionId partition, std::vector<FieldId> fields,
                         std::string file_basename) override {
    timed("attach_file_group", CallKind::Other, [&] {
      in_.attach_file_group(partition, std::move(fields), std::move(file_basename));
    });
  }
  void detach_file_group(PartitionId partition, std::vector<FieldId> fields) override {
    timed("detach_file_group", CallKind::Other,
          [&] { in_.detach_file_group(partition, std::move(fields)); });
  }

  void begin_trace(TraceId id) override {
    timed("begin_trace", CallKind::TraceWindow, [&] { in_.begin_trace(id); });
  }
  void end_trace(TraceId id) override {
    timed("end_trace", CallKind::TraceWindow, [&] { in_.end_trace(id); });
  }

  std::size_t num_shards() const override { return in_.num_shards(); }
  ShardId shard_id() const override { return in_.shard_id(); }
  Philox4x32& rng() override { return in_.rng(); }
  SimTime now() const override { return in_.now(); }

 private:
  core::Context& in_;
  Tracer& t_;
  SpanBuffer& b_;
  FunctionId step_head_;
};

// Wraps `main` so each shard's control program runs behind a TracingContext,
// inside one root span per shard.
inline core::ApplicationMain traced_main(Tracer& tracer, core::ApplicationMain main,
                                         FunctionId step_head) {
  return [&tracer, main = std::move(main), step_head](core::Context& ctx) {
    TracingContext tc(ctx, tracer, step_head);
    SpanBuffer& b = tracer.buffer();
    ScopedSpan root(tracer, b, "control_program", CallKind::Root);
    main(tc);
  };
}

// Copies every function of `src` into `dst` (same ids, same order), with a
// duration callback that records a Task span on the calling thread's buffer.
// With `tracer` null the functions are copied unchanged.
inline void wrap_functions(core::FunctionRegistry& dst, const core::FunctionRegistry& src,
                           Tracer* tracer) {
  for (std::uint32_t i = 0; i < src.size(); ++i) {
    core::TaskFunction fn = src.at(FunctionId(i));
    if (tracer != nullptr) {
      auto inner = std::move(fn.duration);
      fn.duration = [tracer, inner = std::move(inner), name = tracer->intern(fn.name)](
                        const core::PointTaskInfo& info) {
        SpanBuffer& b = tracer->buffer();
        ScopedSpan s(*tracer, b, name, CallKind::Task);
        const SimTime d = inner(info);
        s.span().modeled_ns = static_cast<std::uint64_t>(d);
        return d;
      };
    }
    dst.register_function(std::move(fn));
  }
}

// Per-kind aggregates over every buffer of one traced run.
struct TraceSummary {
  std::array<std::uint64_t, static_cast<std::size_t>(CallKind::kCount)> calls{};
  std::array<std::uint64_t, static_cast<std::size_t>(CallKind::kCount)> total_ns{};
  std::vector<std::uint64_t> index_launch_ns;  // one sample per call
  std::uint64_t task_modeled_ns = 0;
  std::uint64_t spans = 0;
};

inline TraceSummary summarize(const Tracer& t) {
  TraceSummary s;
  for (const auto& b : t.buffers()) {
    for (const Span& sp : b->spans) {
      const auto k = static_cast<std::size_t>(sp.kind);
      const std::uint64_t d = sp.end - sp.start;
      s.calls[k]++;
      s.total_ns[k] += d;
      if (sp.kind == CallKind::IndexLaunch) s.index_launch_ns.push_back(d);
      if (sp.kind == CallKind::Task) s.task_modeled_ns += sp.modeled_ns;
      s.spans++;
    }
  }
  return s;
}

}  // namespace perfbench
