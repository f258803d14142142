// The repository benchmark: host-time throughput of the simulator backend
// (core::DcrRuntime on a sim::Machine) and of the real-threads backend
// (exec::ThreadRuntime) on four fixed-batch DCR workloads.
//
//   dcr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR] [--shards N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the verification
// pass, untraced and traced runs, the transparency check, writes the span
// file to DIR and prints the per-layer metrics.  The last stdout line is one
// JSON object {correct, attempted, failed, metrics}.  Progress goes to stderr.
// See perfbench/README.md for the workloads and metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/circuit.hpp"
#include "apps/stencil.hpp"
#include "dcr/runtime.hpp"
#include "exec/thread_runtime.hpp"
#include "sim/machine.hpp"
#include "spy/verify.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

enum class Backend { Sim, Threads };
enum class App { Stencil, Circuit };

struct Workload {
  std::string name;
  Backend backend = Backend::Sim;
  App app = App::Stencil;
  std::size_t shards = 1;
  apps::StencilConfig stencil;
  apps::CircuitConfig circuit;
  double ns_per_cell = 10.0;
  std::uint32_t compute_slots = 0;  // threads backend; also sizes the reference machine
  double work_scale = 0.0;
  bool work_sleep = false;
  std::size_t verify_steps = 2;  // reduced step count for the verification pass
};

std::size_t& steps(Workload& w) {
  return w.app == App::Stencil ? w.stencil.steps : w.circuit.steps;
}

// Point tasks one execute must complete, from the workload's shape alone.
std::uint64_t expected_points(const Workload& w) {
  if (w.app == App::Circuit) return 3 * w.circuit.pieces * w.circuit.steps;
  const apps::StencilConfig& s = w.stencil;
  const std::uint64_t residuals = s.residual_every > 0 ? s.steps / s.residual_every : 0;
  return s.tiles * (3 * s.steps + residuals);
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                      std::size_t shards_override) {
  Workload w;
  w.name = name;
  // The seed perturbs the problem size by a few cells (wires) per tile: it
  // moves the modeled task costs, so virtual makespans differ between seeds,
  // but not the number of point tasks or the analysis the runtime does.  The
  // circuit also draws its random ghost spans from the seed.
  const auto jitter = static_cast<std::int64_t>(seed % 17) - 8;
  if (name == "sim_stencil_1k") {
    w.shards = 1024;
    w.stencil.tiles = w.shards;
    w.stencil.cells_per_tile = 1000 + jitter;
    w.stencil.steps = 4;
  } else if (name == "sim_circuit_replay") {
    w.app = App::Circuit;
    w.shards = 256;
    w.circuit = {.nodes_per_piece = 20000, .wires_per_piece = 80000 + jitter,
                 .pieces = w.shards,
                 .steps = 20, .seed = seed, .use_trace = true};
    w.ns_per_cell = 5.0;
    w.verify_steps = 4;
  } else if (name == "threads_stencil_overhead") {
    w.backend = Backend::Threads;
    w.shards = 4;
    w.stencil.tiles = 64;
    w.stencil.cells_per_tile = 1000 + jitter;
    w.stencil.steps = 50;
    w.stencil.use_trace = true;
    w.stencil.residual_every = 1;
    w.verify_steps = 8;
  } else if (name == "threads_stencil_offload") {
    w.backend = Backend::Threads;
    w.shards = 4;
    w.stencil.tiles = 64;
    w.stencil.cells_per_tile = 20000 + jitter;  // ~200 us modeled tasks
    w.stencil.steps = 10;
    w.stencil.use_trace = true;
    w.compute_slots = 16;
    w.work_scale = 1.0;
    w.work_sleep = true;
    w.verify_steps = 4;
  } else {
    return std::nullopt;
  }
  if (shards_override > 0) {
    w.shards = shards_override;
    w.stencil.tiles = w.app == App::Stencil && w.backend == Backend::Sim ? shards_override
                                                                         : w.stencil.tiles;
    w.circuit.pieces = shards_override;
  }
  return w;
}

// ------------------------------------------------------------------ one run

struct Program {
  core::FunctionRegistry functions;
  core::ApplicationMain main;
  FunctionId step_head;
};

std::unique_ptr<Program> build_program(const Workload& w, Tracer* tracer) {
  auto p = std::make_unique<Program>();
  core::FunctionRegistry plain;
  if (w.app == App::Stencil) {
    const apps::StencilFunctions fns = apps::register_stencil_functions(plain, w.ns_per_cell);
    p->main = apps::make_stencil_app(w.stencil, fns);
    p->step_head = fns.add_one;
  } else {
    const apps::CircuitFunctions fns = apps::register_circuit_functions(plain, w.ns_per_cell);
    p->main = apps::make_circuit_app(w.circuit, fns);
    p->step_head = fns.calc_new_currents;
  }
  wrap_functions(p->functions, plain, tracer);
  if (tracer != nullptr) p->main = traced_main(*tracer, std::move(p->main), p->step_head);
  return p;
}

// The cluster model of the paper-figure benches: 1 us wire latency, 10 GB/s
// NICs.  A threads workload's reference machine gets its compute slots.
sim::MachineConfig machine_config(const Workload& w) {
  const std::size_t procs = std::max<std::size_t>(1, w.compute_slots / w.shards);
  return {.num_nodes = w.shards,
          .compute_procs_per_node = procs,
          .network = {.alpha = us(1), .ns_per_byte = 0.1, .local_latency = ns(50)}};
}

exec::ThreadConfig thread_config(const Workload& w, bool record_trace) {
  exec::ThreadConfig cfg;
  cfg.num_shards = w.shards;
  cfg.compute_slots = w.compute_slots;
  cfg.work_scale = w.work_scale;
  cfg.work_sleep = w.work_sleep;
  cfg.record_trace = record_trace;
  return cfg;
}

struct Usage {
  double user_s = 0, sys_s = 0, nvcsw = 0, calendar_cpu_s = 0, wall_s = 0;
  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    u.nvcsw = static_cast<double>(ru.ru_nvcsw);
    u.calendar_cpu_s = 1e-9 * static_cast<double>(thread_cpu_ns());
    u.wall_s = 1e-9 * static_cast<double>(wall_ns());
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, nvcsw - o.nvcsw,
            calendar_cpu_s - o.calendar_cpu_s, wall_s - o.wall_s};
  }
};

struct Run {
  double setup_s = 0;  // start of the workload -> execute call
  Usage usage;         // around execute only
  core::DcrStats stats;
  std::uint64_t events = 0;  // simulator calendar events (sim backend)
  std::uint64_t profile_tasks = 0;
  std::uint64_t modeled_ns = 0;  // summed cost-model durations
  std::uint64_t coarse_ops = 0, template_hits = 0, fine_points = 0;
  std::uint64_t fence_wait_ns = 0, future_wait_ns = 0;  // virtual on sim, wall on threads
  std::uint64_t compute_slots = 0;
  std::optional<spy::Trace> trace;
};

template <typename Runtime>
void collect(Run& r, Runtime& rt) {
  for (const auto& [fn, fp] : rt.profile()) {
    r.profile_tasks += fp.tasks;
    r.modeled_ns += static_cast<std::uint64_t>(fp.total_time);
  }
  const prof::Profiler& p = rt.profiler();
  r.coarse_ops = p.total(prof::Counter::CoarseOps);
  r.template_hits = p.total(prof::Counter::TemplateWindowHits);
  r.fine_points = p.total(prof::Counter::FinePoints);
  r.fence_wait_ns = p.total(prof::Counter::FenceWaitNs);
  r.future_wait_ns = p.total(prof::Counter::FutureWaitNs);
  if (rt.trace() != nullptr) r.trace = *rt.trace();
}

// One execute of the workload's batch program on `backend`.  Set-up runs
// from the start of the workload (function registration, the app, the
// machine or runtime) to the execute call; process usage is measured around
// the execute call.
Run run_once(const Workload& w, Backend backend, bool record_trace, Tracer* tracer) {
  Run r;
  const std::uint64_t t0 = wall_ns();
  std::unique_ptr<Program> prog = build_program(w, tracer);
  std::optional<ScopedSpan> root;
  const auto start_execute = [&] {
    r.setup_s = 1e-9 * static_cast<double>(wall_ns() - t0);
    if (tracer != nullptr) root.emplace(*tracer, tracer->buffer(), "execute", CallKind::Root);
    r.usage = Usage::now();
  };
  const auto end_execute = [&] {
    r.usage = Usage::now() - r.usage;
    root.reset();
  };
  if (backend == Backend::Sim) {
    sim::Machine machine(machine_config(w));
    core::DcrConfig cfg;
    cfg.record_trace = record_trace;
    core::DcrRuntime rt(machine, prog->functions, cfg);
    start_execute();
    r.stats = rt.execute(prog->main);
    end_execute();
    r.events = machine.sim().events_processed();
    r.compute_slots = machine.total_compute_procs();
    collect(r, rt);
  } else {
    exec::ThreadRuntime rt(prog->functions, thread_config(w, record_trace));
    start_execute();
    r.stats = rt.execute(prog->main);
    end_execute();
    r.compute_slots = w.compute_slots;
    collect(r, rt);
  }
  return r;
}

// ------------------------------------------------------------ output checks

// Empty when the run is correct; otherwise why it is not.
std::string check_run(const Workload& w, const Run& r) {
  const core::DcrStats& s = r.stats;
  if (s.aborted) return "aborted: " + s.abort_message;
  if (s.determinism_violation) return "determinism violation: " + s.violation_message;
  if (!s.completed) return "did not complete";
  const std::uint64_t want = expected_points(w);
  if (s.point_tasks_launched != want) {
    return "point_tasks_launched " + std::to_string(s.point_tasks_launched) + " != " +
           std::to_string(want);
  }
  if (r.profile_tasks != want) {
    return "profiled tasks " + std::to_string(r.profile_tasks) + " != " + std::to_string(want);
  }
  if (s.determinism_checks == 0) return "no determinism checks ran";
  return {};
}

// The structural counts a wrapped run must reproduce exactly.
std::vector<std::pair<const char*, std::uint64_t>> structure(const Run& r) {
  const core::DcrStats& s = r.stats;
  return {{"ops_issued", s.ops_issued},
          {"point_tasks_launched", s.point_tasks_launched},
          {"fences_inserted", s.fences_inserted},
          {"fences_elided", s.fences_elided},
          {"coarse_deps", s.coarse_deps},
          {"determinism_checks", s.determinism_checks},
          {"traced_ops", s.traced_ops},
          {"templates_captured", s.templates_captured},
          {"template_replays", s.template_replays},
          {"statics_resolved_ops", s.statics_resolved_ops},
          {"statics_skipped_points", s.statics_skipped_points},
          {"messages", s.messages},
          {"bytes_moved", s.bytes_moved}};
}

std::string check_transparent(const Workload& w, const Run& plain, const Run& wrapped) {
  const auto a = structure(plain);
  const auto b = structure(wrapped);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      return std::string("wrapped run changed ") + a[i].first + ": " +
             std::to_string(a[i].second) + " -> " + std::to_string(b[i].second);
    }
  }
  if (w.backend == Backend::Sim && plain.stats.makespan != wrapped.stats.makespan) {
    return "wrapped run changed the virtual makespan";
  }
  return {};
}

// ------------------------------------------------------------------ report

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
    std::fprintf(stderr, "  %-34s %18.6f %s\n", name.c_str(), value, unit);
  }
  void attempt(const std::string& failure) {
    attempted_++;
    if (!failure.empty()) {
      failed_++;
      std::fprintf(stderr, "  FAILED: %s\n", failure.c_str());
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                failed_ == 0 ? "true" : "false", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Peak resident set of this process image.  VmHWM, unlike getrusage's
// ru_maxrss, does not inherit the high-water mark of the launcher that
// exec'd us.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

double points(const Run& r) { return static_cast<double>(r.stats.point_tasks_launched); }

// Medians of a per-run quantity.
double med(const std::vector<Run>& runs, const std::function<double(const Run&)>& f) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const Run& r : runs) v.push_back(f(r));
  return median(v);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = "perfbench/out";
  std::size_t shards = 0;
};

class Bench {
 public:
  Bench(const Options& o, Workload w) : o_(o), w_(std::move(w)) {}

  // Runs `n_min` executes, then more until `budget_s` seconds have passed.
  // Traced executes keep their span summaries, and the first one its spans.
  std::vector<Run> measure(std::size_t n_min, double budget_s, bool traced = false) {
    std::vector<Run> runs;
    const double t0 = 1e-9 * static_cast<double>(wall_ns());
    while (runs.size() < n_min || 1e-9 * static_cast<double>(wall_ns()) - t0 < budget_s) {
      std::unique_ptr<Tracer> tracer;
      if (traced) tracer = std::make_unique<Tracer>(w_.backend == Backend::Sim);
      Run r = run_once(w_, w_.backend, false, tracer.get());
      std::string why = checked(r);
      if (tracer != nullptr) {
        sums_.push_back(summarize(*tracer));
        const auto calls = sums_.back().calls[static_cast<std::size_t>(CallKind::Task)];
        if (why.empty() && calls != expected_points(w_)) {
          why = "wrapped task calls " + std::to_string(calls) + " != expected";
        }
        if (spans_ == nullptr) spans_ = std::move(tracer);
      }
      report_.attempt(why);
      runs.push_back(std::move(r));
    }
    return runs;
  }

  Report& report() { return report_; }

  // Output check plus, on the simulator, bit-identical makespans across runs.
  std::string checked(const Run& r) {
    std::string why = check_run(w_, r);
    if (why.empty() && w_.backend == Backend::Sim) {
      if (!makespan_) makespan_ = r.stats.makespan;
      if (*makespan_ != r.stats.makespan) why = "virtual makespan differs between runs";
    }
    return why;
  }

  void end_to_end() {
    std::fprintf(stderr, "[perfbench] %s seed=%llu: end-to-end, %.0f s\n", w_.name.c_str(),
            static_cast<unsigned long long>(o_.seed), o_.seconds);
    // Warm-up execute: checked and counted, not timed.  The peak resident
    // set is read after it: later executes only add allocator fragmentation,
    // which would tie the figure to how many executes fit in the run.
    Run warm = run_once(w_, w_.backend, false, nullptr);
    report_.attempt(checked(warm));
    const double peak_rss_mb = peak_rss_kb() / 1024.0;
    const std::vector<Run> runs = measure(3, o_.seconds);

    // Each timed execute times its own set-up, so the samples spread over
    // the whole run rather than one moment of it.
    report_.add("setup_s", med(runs, [](const Run& r) { return r.setup_s; }), "s");
    report_.add("points_per_s", med(runs, [](const Run& r) { return points(r) / r.usage.wall_s; }),
                "1/s");
    report_.add("host_cpu_us_per_point", med(runs, [](const Run& r) {
                  return 1e6 * (r.usage.user_s + r.usage.sys_s) / points(r);
                }),
                "us");
    report_.add("sim_makespan_us", sim_makespan_us(runs.front()), "us");
    report_.add("peak_rss_mb", peak_rss_mb, "MB");
    std::fprintf(stderr, "  (%zu timed runs; error_rate %.3f)\n", runs.size(),
                 static_cast<double>(report_.failed()) / static_cast<double>(report_.attempted()));
  }

  // Virtual makespan of the batch program.  A threads workload runs it once
  // on a simulated machine of its shape (one node per shard, its compute
  // slots spread over the nodes).
  double sim_makespan_us(const Run& measured) {
    if (w_.backend == Backend::Sim) return 1e-3 * static_cast<double>(measured.stats.makespan);
    Run ref = run_once(w_, Backend::Sim, false, nullptr);
    report_.attempt(check_run(w_, ref));
    return 1e-3 * static_cast<double>(ref.stats.makespan);
  }

  void verification() {
    Workload small = w_;
    steps(small) = w_.verify_steps;
    Run sim_run = run_once(small, Backend::Sim, true, nullptr);
    std::string why = check_run(small, sim_run);
    if (why.empty()) {
      const spy::VerifyReport rep = spy::verify(*sim_run.trace);
      if (!rep.ok()) why = "spy::verify: " + rep.summary();
    }
    if (why.empty() && w_.backend == Backend::Threads) {
      Run thr = run_once(small, Backend::Threads, true, nullptr);
      why = check_run(small, thr);
      std::string diff;
      if (why.empty() && !spy::graph_equivalent(*sim_run.trace, *thr.trace, &diff)) {
        why = "threads graph differs from the simulator's: " + diff;
      }
    }
    std::fprintf(stderr, "  verification (%zu steps): %s\n", w_.verify_steps,
                 why.empty() ? "clean" : why.c_str());
    report_.attempt(why);
  }

  void per_layer() {
    std::fprintf(stderr, "[perfbench] %s seed=%llu: traced, %.0f s\n", w_.name.c_str(),
            static_cast<unsigned long long>(o_.seed), o_.seconds);
    verification();
    Run warm = run_once(w_, w_.backend, false, nullptr);
    report_.attempt(checked(warm));
    const std::vector<Run> plain = measure(3, 0.4 * o_.seconds);
    const std::vector<Run> traced = measure(2, 0.4 * o_.seconds, /*traced=*/true);
    for (const Run& r : traced) report_.attempt(check_transparent(w_, plain.front(), r));

    const bool sim = w_.backend == Backend::Sim;
    const Run& p0 = plain.front();
    const double pts = points(p0);

    // sim: calendar and process handoff, measured around execute.
    report_.add("sim.events_per_point", static_cast<double>(p0.events) / pts, "count");
    report_.add("sim.host_ns_per_event",
                sim ? med(plain, [](const Run& r) {
                  return 1e9 * r.usage.wall_s / static_cast<double>(r.events);
                })
                    : 0.0,
                "ns");
    report_.add("host.vol_ctx_switches_per_point",
                med(plain, [](const Run& r) { return r.usage.nvcsw / points(r); }), "count");
    report_.add("host.sys_cpu_frac", med(plain, [](const Run& r) {
                  return r.usage.sys_s / (r.usage.user_s + r.usage.sys_s);
                }),
                "ratio");
    report_.add("host.calendar_thread_cpu_s",
                med(plain, [](const Run& r) { return r.usage.calendar_cpu_s; }), "s");
    report_.add("host.other_threads_cpu_s", med(plain, [](const Run& r) {
                  return r.usage.user_s + r.usage.sys_s - r.usage.calendar_cpu_s;
                }),
                "s");

    // dcr front end at the Context boundary (traced runs).
    const std::vector<TraceSummary>& sums = sums_;
    const CallKind kinds[] = {CallKind::IndexLaunch, CallKind::GetFuture,
                              CallKind::ExecutionFence, CallKind::TraceWindow,
                              CallKind::Create};
    std::vector<std::uint64_t> launch_ns;
    for (const TraceSummary& s : sums) {
      launch_ns.insert(launch_ns.end(), s.index_launch_ns.begin(), s.index_launch_ns.end());
    }
    for (CallKind k : kinds) {
      const auto ki = static_cast<std::size_t>(k);
      const std::string base = std::string("api.") + kind_name(k);
      report_.add(base + ".calls", static_cast<double>(sums.front().calls[ki]), "count");
      std::vector<double> totals;
      for (const TraceSummary& s : sums) totals.push_back(1e-3 * static_cast<double>(s.total_ns[ki]));
      report_.add(base + ".us_total", median(totals), "us");
    }
    report_.add("api.index_launch.us_p50", 1e-3 * percentile(launch_ns, 0.50), "us");
    report_.add("api.index_launch.us_p99", 1e-3 * percentile(launch_ns, 0.99), "us");
    report_.add("api.index_launch.samples", static_cast<double>(launch_ns.size()), "count");

    // dcr analysis counts, program-reported.
    const core::DcrStats& s = p0.stats;
    report_.add("dcr.coarse_ops", static_cast<double>(p0.coarse_ops), "count");
    report_.add("dcr.traced_ops", static_cast<double>(s.traced_ops), "count");
    report_.add("dcr.template_hits", static_cast<double>(p0.template_hits), "count");
    report_.add("dcr.fine_points", static_cast<double>(p0.fine_points), "count");
    report_.add("dcr.fences_inserted", static_cast<double>(s.fences_inserted), "count");
    report_.add("dcr.fences_elided", static_cast<double>(s.fences_elided), "count");
    report_.add("dcr.determinism_checks", static_cast<double>(s.determinism_checks), "count");
    report_.add("statics.resolved_ops", static_cast<double>(s.statics_resolved_ops), "count");
    report_.add("statics.skipped_points", static_cast<double>(s.statics_skipped_points), "count");

    // sim network/collectives (virtual) and exec waits (wall).
    report_.add("sim.messages", static_cast<double>(s.messages), "count");
    report_.add("sim.bytes_moved", static_cast<double>(s.bytes_moved), "B");
    report_.add("dcr.fence_wait_us", sim ? 1e-3 * static_cast<double>(p0.fence_wait_ns) : 0.0,
                "us");
    report_.add("exec.fence_wait_ms",
                sim ? 0.0 : med(plain, [](const Run& r) { return 1e-6 * static_cast<double>(r.fence_wait_ns); }),
                "ms");
    report_.add("exec.future_wait_ms",
                sim ? 0.0 : med(plain, [](const Run& r) { return 1e-6 * static_cast<double>(r.future_wait_ns); }),
                "ms");

    // apps tasks, via the wrapped duration callbacks; makespan is virtual on
    // the simulator and wall on the threads backend.
    const TraceSummary& t0 = sums.front();
    const double modeled_ms = 1e-6 * static_cast<double>(t0.task_modeled_ns);
    report_.add("task.calls", static_cast<double>(t0.calls[static_cast<std::size_t>(CallKind::Task)]),
                "count");
    report_.add("task.modeled_ms", modeled_ms, "ms");
    report_.add("exec.task_overlap", med(plain, [](const Run& r) {
                  return static_cast<double>(r.modeled_ns) / static_cast<double>(r.stats.makespan);
                }),
                "ratio");
    // Share of a task's modeled duration that holds a slot: all of it in the
    // simulator, work_scale of it on the threads backend.
    const double held = sim ? 1.0 : w_.work_scale;
    report_.add("slot_efficiency", med(plain, [held](const Run& r) {
                  return r.compute_slots == 0
                             ? 0.0
                             : held * static_cast<double>(r.modeled_ns) /
                                   (static_cast<double>(r.compute_slots) *
                                    static_cast<double>(r.stats.makespan));
                }),
                "ratio");
    const double plain_wall = med(plain, [](const Run& r) { return r.usage.wall_s; });
    report_.add("trace.overhead_frac",
                med(traced, [](const Run& r) { return r.usage.wall_s; }) / plain_wall - 1.0,
                "ratio");
    report_.add("error_rate",
                static_cast<double>(report_.failed()) / static_cast<double>(report_.attempted()),
                "ratio");

    write_spans();
  }

  void write_spans() const {
    std::filesystem::create_directories(o_.out);
    const std::string path = o_.out + "/" + w_.name + ".seed" + std::to_string(o_.seed) +
                             ".trace.json";
    std::ofstream os(path);
    spans_->write_chrome_trace(os);
    std::fprintf(stderr, "  spans: %llu -> %s\n",
                 static_cast<unsigned long long>(sums_.front().spans), path.c_str());
  }

 private:
  Options o_;
  Workload w_;
  Report report_;
  std::optional<SimTime> makespan_;
  std::vector<TraceSummary> sums_;  // one per traced execute
  std::unique_ptr<Tracer> spans_;   // the first traced execute, written out
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--out") {
      o.out = v;
    } else if (k == "--shards") {
      o.shards = std::stoul(v);
    } else {
      std::fprintf(stderr, "unknown option %s\n", k.c_str());
      return 2;
    }
  }
  std::optional<Workload> w = make_workload(o.workload, o.seed, o.shards);
  if (!w) {
    std::fprintf(stderr,
                 "unknown workload '%s' (sim_stencil_1k sim_circuit_replay "
                 "threads_stencil_overhead threads_stencil_offload)\n",
                 o.workload.c_str());
    return 2;
  }
  Bench bench(o, *w);
  if (o.trace) {
    bench.per_layer();
  } else {
    bench.end_to_end();
  }
  bench.report().print();
  return bench.report().failed() == 0 ? 0 : 1;
}
