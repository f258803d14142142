// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary regenerates one figure of the paper's evaluation (§5): it
// sweeps the same x-axis (nodes/GPUs), runs each system configuration on the
// simulated machine, and prints the series as an aligned table.  Absolute
// numbers live in virtual time and are not expected to match the authors'
// testbeds; EXPERIMENTS.md records the shape comparison.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dcr/runtime.hpp"
#include "scope/baseline.hpp"
#include "sim/machine.hpp"

namespace dcr::bench {

// CLI flags shared by every figure bench.  --profile records dcr-prof spans
// in the DCR runs; --scope additionally turns on dcr-scope causal tracing
// (which needs the prof ledger, so it implies --profile).  Both are
// host-side only: neither perturbs virtual time, so flagged runs report the
// same makespans as bare ones.  --backend=sim|threads selects the execution
// backend for the DCR series where the bench supports it: `sim` (default)
// runs the discrete-event simulator in virtual time; `threads` runs each
// shard as a real OS thread (exec::ThreadRuntime) and reports wall-clock
// nanoseconds instead of modeled time.
struct Flags {
  bool profile = false;
  bool scope = false;
  std::string backend = "sim";
};

inline Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      f.profile = true;
    } else if (std::strcmp(argv[i], "--scope") == 0) {
      f.scope = true;
      f.profile = true;
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      f.backend = argv[i] + 10;
      if (f.backend != "sim" && f.backend != "threads") {
        std::fprintf(stderr, "%s: unknown backend '%s' (supported: sim threads)\n",
                     argv[0], f.backend.c_str());
        f.backend = "sim";
      }
    } else {
      std::fprintf(stderr,
                   "%s: unknown flag %s (supported: --profile --scope"
                   " --backend=sim|threads)\n",
                   argv[0], argv[i]);
    }
  }
  return f;
}

inline void apply_flags(const Flags& f, core::DcrConfig& cfg) {
  cfg.profile = cfg.profile || f.profile;
  cfg.scope = cfg.scope || f.scope;
}

// The cluster model used by all figures: 1 us wire latency, 10 GB/s NIC
// bandwidth (Infiniband EDR-class), 50 ns intra-node hops.
inline sim::MachineConfig cluster(std::size_t nodes, std::size_t procs_per_node = 1) {
  return {.num_nodes = nodes,
          .compute_procs_per_node = procs_per_node,
          .network = {.alpha = us(1), .ns_per_byte = 0.1, .local_latency = ns(50)}};
}

class Table {
 public:
  explicit Table(std::string x_label) { columns_.push_back(std::move(x_label)); }

  void add_series(std::string name) { columns_.push_back(std::move(name)); }

  void add_row(double x, const std::vector<double>& values) {
    rows_.push_back({x, values});
  }

  void print(const char* value_format = "%14.4g") const {
    std::printf("%-12s", columns_[0].c_str());
    for (std::size_t c = 1; c < columns_.size(); ++c) {
      std::printf("%14s", columns_[c].c_str());
    }
    std::printf("\n");
    for (const auto& [x, values] : rows_) {
      std::printf("%-12.0f", x);
      for (double v : values) std::printf(value_format, v);
      std::printf("\n");
    }
  }

 private:
  struct Row {
    double x;
    std::vector<double> values;
  };
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

inline void header(const char* figure, const char* title, const char* expectation) {
  std::printf("\n=== %s: %s ===\n", figure, title);
  std::printf("--- expected shape: %s\n", expectation);
}

// iterations (or other work units) per second of virtual time.
inline double per_second(double units, SimTime makespan) {
  return units / (static_cast<double>(makespan) * 1e-9);
}

// Fastest of a bench's repetitions (host wall time is noisy upward only).
inline double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Minimal JSON array-of-objects writer for the BENCH_*.json baselines; every
// record is flat numerics.  close() finishes the file early (before a
// --check-baseline diff reads it back); otherwise the destructor does.
class JsonDump {
 public:
  explicit JsonDump(const char* path) : f_(std::fopen(path, "w")) {
    if (f_) std::fprintf(f_, "[\n");
  }
  ~JsonDump() { close(); }
  JsonDump(const JsonDump&) = delete;
  JsonDump& operator=(const JsonDump&) = delete;

  void close() {
    if (f_) {
      std::fprintf(f_, "\n]\n");
      std::fclose(f_);
      f_ = nullptr;
    }
  }
  void record(const std::string& sweep,
              const std::vector<std::pair<std::string, double>>& fields) {
    if (!f_) return;
    std::fprintf(f_, "%s  {\"sweep\": \"%s\"", first_ ? "" : ",\n", sweep.c_str());
    for (const auto& [k, v] : fields) {
      std::fprintf(f_, ", \"%s\": %.6g", k.c_str(), v);
    }
    std::fprintf(f_, "}");
    first_ = false;
  }

 private:
  std::FILE* f_;
  bool first_ = true;
};

// --check-baseline FILE [--threshold PCT]: the regression watchdog of the
// BENCH_*.json benches.  Every other argument is kept in `rest` (after
// argv[0]) for parse_flags.
struct BaselineCheck {
  std::string path;  // "" = no check requested
  double threshold_pct = 5.0;
  std::vector<char*> rest;

  // Diff the freshly written `fresh` file against the baseline and print the
  // report.  True when no check was requested or nothing regressed.
  bool passes(const char* fresh) const {
    if (path.empty()) return true;
    const scope::BaselineDiff d = scope::check_baseline_files(path, fresh, threshold_pct);
    scope::render_baseline_diff(std::cout, d, threshold_pct);
    return d.ok();
  }
};

inline BaselineCheck parse_baseline_flags(int argc, char** argv) {
  BaselineCheck b;
  b.rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      b.path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      b.threshold_pct = std::stod(argv[++i]);
    } else {
      b.rest.push_back(argv[i]);
    }
  }
  return b;
}

}  // namespace dcr::bench
