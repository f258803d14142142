#include "scope/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "prof/profiler.hpp"
#include "scope/recorder.hpp"
#include "sim/machine.hpp"
#include "sim/simulator.hpp"

namespace dcr::scope {

// ------------------------------------------------------------ registry

MetricsRegistry::Metric& MetricsRegistry::metric(const std::string& name,
                                                 const std::string& help,
                                                 Type type, bool is_volatile) {
  auto [it, inserted] = index_.try_emplace(name, metrics_.size());
  if (inserted) {
    metrics_.push_back(Metric{name, help, type, is_volatile, {}, {}});
  }
  Metric& m = metrics_[it->second];
  DCR_CHECK(m.type == type) << "metric " << name << " re-registered with a new type";
  return m;
}

void MetricsRegistry::set(const std::string& name, const std::string& help,
                          Type type, double value, const std::string& labels,
                          bool is_volatile) {
  DCR_CHECK(type != Type::Histogram) << "use set_histogram for " << name;
  Metric& m = metric(name, help, type, is_volatile);
  for (Sample& s : m.samples) {
    if (s.labels == labels) {
      s.value = value;
      return;
    }
  }
  m.samples.push_back(Sample{labels, value});
}

void MetricsRegistry::set_histogram(const std::string& name,
                                    const std::string& help,
                                    const prof::Histogram& h,
                                    const std::string& labels,
                                    bool is_volatile) {
  std::vector<std::uint64_t> buckets(prof::Histogram::kBuckets, 0);
  for (std::size_t k = 0; k < prof::Histogram::kBuckets; ++k) {
    buckets[k] = h.bucket(k);
  }
  set_histogram(name, help, buckets, h.count(), h.sum(), labels, is_volatile);
}

void MetricsRegistry::set_histogram(const std::string& name,
                                    const std::string& help,
                                    const std::vector<std::uint64_t>& pow2_buckets,
                                    std::uint64_t count, std::uint64_t sum,
                                    const std::string& labels,
                                    bool is_volatile) {
  Metric& m = metric(name, help, Type::Histogram, is_volatile);
  HistSample hs;
  hs.labels = labels;
  hs.count = count;
  hs.sum = sum;
  // Cumulative `le` buckets at power-of-two upper bounds; trailing empty
  // buckets are trimmed (the +Inf bucket always renders).
  std::uint64_t cum = 0;
  std::size_t top = 0;
  for (std::size_t k = 0; k < pow2_buckets.size(); ++k) {
    if (pow2_buckets[k] != 0) top = k;
  }
  for (std::size_t k = 0; k <= top && k < pow2_buckets.size(); ++k) {
    cum += pow2_buckets[k];
    hs.buckets.emplace_back(k == 0 ? 1 : (std::uint64_t{1} << k), cum);
  }
  for (HistSample& existing : m.hist_samples) {
    if (existing.labels == hs.labels) {
      existing = std::move(hs);
      return;
    }
  }
  m.hist_samples.push_back(std::move(hs));
}

const MetricsRegistry::Metric* MetricsRegistry::find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

void MetricsRegistry::clear() {
  metrics_.clear();
  index_.clear();
}

namespace {
// Render a double the way Prometheus clients expect: integral values without
// a fractional part, everything else with enough digits to round-trip.
std::string num(double v) {
  const auto as_int = static_cast<long long>(v);
  if (static_cast<double>(as_int) == v) return std::to_string(as_int);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string braced(const std::string& labels) {
  return labels.empty() ? "" : "{" + labels + "}";
}

std::string with_extra(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  return "{" + labels + "," + extra + "}";
}
}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os, bool zero_volatile) const {
  for (const Metric& m : metrics_) {
    const bool zero = zero_volatile && m.is_volatile;
    os << "# HELP " << m.name << " " << m.help << "\n";
    os << "# TYPE " << m.name << " ";
    switch (m.type) {
      case Type::Gauge: os << "gauge"; break;
      case Type::Counter: os << "counter"; break;
      case Type::Histogram: os << "histogram"; break;
    }
    os << "\n";
    for (const Sample& s : m.samples) {
      os << m.name << braced(s.labels) << " " << (zero ? "0" : num(s.value))
         << "\n";
    }
    for (const HistSample& hs : m.hist_samples) {
      if (!zero) {
        for (const auto& [le, cum] : hs.buckets) {
          os << m.name << "_bucket"
             << with_extra(hs.labels, "le=\"" + std::to_string(le) + "\"") << " "
             << cum << "\n";
        }
      }
      os << m.name << "_bucket" << with_extra(hs.labels, "le=\"+Inf\"") << " "
         << (zero ? 0 : hs.count) << "\n";
      os << m.name << "_sum" << braced(hs.labels) << " " << (zero ? 0 : hs.sum)
         << "\n";
      os << m.name << "_count" << braced(hs.labels) << " "
         << (zero ? 0 : hs.count) << "\n";
    }
  }
}

std::string MetricsRegistry::prometheus_text(bool zero_volatile) const {
  std::ostringstream os;
  write_prometheus(os, zero_volatile);
  return os.str();
}

// ------------------------------------------------------------ collection

void collect_metrics(MetricsRegistry& reg, const CollectInputs& in) {
  using Type = MetricsRegistry::Type;
  const prof::Profiler* p = in.prof;
  DCR_CHECK(p != nullptr) << "collect_metrics needs a profiler";
  const prof::Counters& g = p->global();

  const auto dec = static_cast<double>(g.get(prof::GlobalCounter::FenceDecisions));
  const auto eli = static_cast<double>(g.get(prof::GlobalCounter::FencesElided));
  reg.set("dcr_fence_decisions_total", "Coarse fence-or-elide choices examined",
          Type::Counter, dec);
  reg.set("dcr_fences_issued_total", "Cross-shard fences issued", Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::FencesIssued)));
  reg.set("dcr_fences_elided_total", "Dependences proven shard-local",
          Type::Counter, eli);
  reg.set("dcr_fence_elision_rate", "Fences elided / fence decisions",
          Type::Gauge, dec > 0 ? eli / dec : 0.0);

  const auto hits = static_cast<double>(p->total(prof::Counter::TemplateWindowHits));
  const auto misses =
      static_cast<double>(p->total(prof::Counter::TemplateWindowMisses));
  reg.set("dcr_template_window_hits_total",
          "Trace windows replayed from a validated template", Type::Counter, hits);
  reg.set("dcr_template_window_misses_total",
          "Trace windows that ran fresh analysis", Type::Counter, misses);
  reg.set("dcr_template_hit_rate", "Window hits / windows seen", Type::Gauge,
          hits + misses > 0 ? hits / (hits + misses) : 0.0);

  reg.set("dcr_recovery_epochs", "Runtime-wide template-invalidation epoch",
          Type::Gauge,
          static_cast<double>(g.get(prof::GlobalCounter::RecoveryEpochs)));
  reg.set("dcr_recoveries_total", "Replacement shards spawned", Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::Recoveries)));
  reg.set("dcr_failures_detected_total",
          "Shards declared dead by the lease monitor", Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::FailuresDetected)));
  reg.set("dcr_retransmits_total", "Reliable-transport resends", Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::Retransmits)));
  reg.set("dcr_messages_dropped_total", "Fault-plan drops and blackout losses",
          Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::MessagesDropped)));

  reg.set("dcr_collective_rounds_total", "Collective operations started",
          Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::CollectiveRounds)),
          /*labels=*/"", /*is_volatile=*/true);
  reg.set("dcr_collective_latency_ns_total",
          "Summed fence latency, first arrival to completion", Type::Counter,
          static_cast<double>(g.get(prof::GlobalCounter::CollectiveLatencyNs)),
          /*labels=*/"", /*is_volatile=*/true);

  // Merged fence/future wait histograms (summed across shards).
  for (const prof::Hist h : {prof::Hist::FenceWaitNs, prof::Hist::FutureWaitNs}) {
    std::vector<std::uint64_t> buckets(prof::Histogram::kBuckets, 0);
    std::uint64_t count = 0, sum = 0;
    for (std::uint32_t s = 0; s < p->num_shards(); ++s) {
      const prof::Histogram& sh = p->shard(s).hist(h);
      for (std::size_t k = 0; k < prof::Histogram::kBuckets; ++k) {
        buckets[k] += sh.bucket(k);
      }
      count += sh.count();
      sum += sh.sum();
    }
    const std::string nm = h == prof::Hist::FenceWaitNs
                               ? "dcr_fence_wait_ns"
                               : "dcr_future_wait_ns";
    reg.set_histogram(nm, "Per-shard wait, merged across shards", buckets,
                      count, sum);
  }

  // Per-shard analysis-queue depth: how far ahead of `now` the shard's
  // analysis processor is already committed.
  if (in.machine != nullptr && p->num_shards() > 0) {
    sim::Machine& mach = *in.machine;
    const std::size_t spn =
        std::max<std::size_t>(1, p->num_shards() / mach.num_nodes());
    for (std::uint32_t s = 0; s < p->num_shards(); ++s) {
      const auto node = NodeId(static_cast<std::uint32_t>(s / spn));
      const SimTime busy_until = mach.analysis_proc(node).busy_until();
      const SimTime depth = busy_until > in.now ? busy_until - in.now : 0;
      reg.set("dcr_shard_queue_depth_ns",
              "Committed analysis work ahead of now, per shard", Type::Gauge,
              static_cast<double>(depth), "shard=\"" + std::to_string(s) + "\"",
              /*is_volatile=*/true);
    }
    reg.set("dcr_traced_messages_total",
            "Logical sends carrying a causal context", Type::Counter,
            static_cast<double>(mach.network().stats().traced_messages));
  }

  if (in.recorder != nullptr) {
    // Atomic live counters, NOT the merged ledger views: collect_metrics may
    // run concurrently with shard threads (the wall-clock refresher), and the
    // merged views are only legal once the shards have quiesced.  After
    // quiesce the counts equal the merged sizes exactly.
    const Recorder& rec = *in.recorder;
    reg.set("dcr_scope_spans_total", "Completed fine-stage spans recorded",
            Type::Counter, static_cast<double>(rec.fine_spans_recorded()));
    reg.set("dcr_scope_fences_recorded", "Fences harvested into the blame ledger",
            Type::Counter, static_cast<double>(rec.fences_recorded()));
    reg.set("dcr_scope_task_launches_total", "Point-task launches recorded",
            Type::Counter, static_cast<double>(rec.launches_recorded()));
  }

  if (in.makespan > 0) {
    reg.set("dcr_makespan_ns", "Virtual makespan of the completed run",
            Type::Gauge, static_cast<double>(in.makespan), /*labels=*/"",
            /*is_volatile=*/true);
  }
}

// ------------------------------------------------------------ exposer

MetricsExposer::MetricsExposer(sim::Simulator& sim, Options opts,
                               std::function<void(MetricsRegistry&)> collect)
    : sim_(sim), opts_(std::move(opts)), collect_(std::move(collect)) {
  DCR_CHECK(opts_.interval > 0);
  DCR_CHECK(collect_ != nullptr);
}

WallMetricsRefresher::WallMetricsRefresher(
    Options opts, std::function<void(MetricsRegistry&)> collect)
    : opts_(std::move(opts)), collect_(std::move(collect)) {
  DCR_CHECK(opts_.interval_ns > 0);
  DCR_CHECK(collect_ != nullptr);
}

WallMetricsRefresher::~WallMetricsRefresher() { stop(); }

void WallMetricsRefresher::tick() {
  reg_.clear();
  collect_(reg_);
  std::string text = reg_.prometheus_text();
  if (!opts_.out_path.empty()) {
    std::ofstream out(opts_.out_path, std::ios::trunc);
    out << text;
  }
  if (opts_.sink) opts_.sink(text);
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_ = std::move(text);
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

void WallMetricsRefresher::start() {
  DCR_CHECK(!thread_.joinable()) << "refresher already started";
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
      lk.unlock();
      tick();
      lk.lock();
      cv_.wait_for(lk, std::chrono::nanoseconds(opts_.interval_ns),
                   [this] { return stopping_; });
    }
  });
}

void WallMetricsRefresher::stop() {
  bool was_running = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    was_running = thread_.joinable();
    stopping_ = true;
  }
  cv_.notify_all();
  if (was_running) {
    thread_.join();
    // Final collection after the fleet quiesced, so the last served snapshot
    // covers the whole run.
    tick();
  }
}

std::string WallMetricsRefresher::last_text() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_;
}

void MetricsExposer::start() {
  sim_.spawn("scope-exposer", [this](sim::ProcessContext& pctx) {
    for (;;) {
      pctx.delay(opts_.interval);
      reg_.clear();
      collect_(reg_);
      last_ = reg_.prometheus_text();
      if (!opts_.out_path.empty()) {
        std::ofstream out(opts_.out_path, std::ios::trunc);
        out << last_;
      }
      if (opts_.sink) opts_.sink(last_);
      ++ticks_;
      if (opts_.done && opts_.done()) return;
    }
  });
}

}  // namespace dcr::scope
