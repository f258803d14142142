// dcr-prof: profiling CLI over the always-on metrics layer (src/prof).
// Subcommands:
//
//   dcr-prof report <stencil|circuit|pennant> [--shards N] [--steps N]
//                   [--top K] [--snapshot FILE] [--zero-volatile]
//       Run the named app with profiling on, print the counter catalog,
//       top-k span kinds and critical path, and cross-check the profiler's
//       fence/elision ledger against the spy trace recorded in the same run.
//       Exit 0 iff the run completed and the ledgers agree.
//   dcr-prof trace <stencil|circuit|pennant> [--shards N] [--steps N]
//                  [--out FILE]
//       Run with span recording on and write the Chrome trace_event JSON
//       (default: <app>.prof.json).  Open in Perfetto (ui.perfetto.dev) or
//       chrome://tracing.  The file is schema-validated before writing.
//   dcr-prof diff <a.json> <b.json>
//       Compare two counter snapshots written by `report --snapshot`.
//       Prints every global/merged counter that changed, plus added/removed
//       sections for keys present on only one side (schema drift); exit 1 if
//       anything differed.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/circuit.hpp"
#include "apps/pennant.hpp"
#include "apps/stencil.hpp"
#include "dcr/runtime.hpp"
#include "prof/diff.hpp"
#include "prof/json.hpp"
#include "prof/report.hpp"
#include "prof/trace_event.hpp"
#include "prof/validate.hpp"

namespace {

using namespace dcr;

int usage() {
  std::cerr << "usage:\n"
            << "  dcr-prof report <stencil|circuit|pennant> [--shards N] [--steps N]"
               " [--top K] [--snapshot FILE] [--zero-volatile]\n"
            << "  dcr-prof trace <stencil|circuit|pennant> [--shards N] [--steps N]"
               " [--out FILE]\n"
            << "  dcr-prof diff <a.json> <b.json>\n";
  return 2;
}

struct RunOptions {
  std::string app;
  std::size_t shards = 4;
  std::size_t steps = 5;
  std::size_t top_k = 8;
  std::string out_path;
  std::string snapshot_path;
  bool zero_volatile = false;
};

bool parse_run_options(int argc, char** argv, RunOptions* opt) {
  if (argc < 1) return false;
  opt->app = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      opt->shards = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      opt->steps = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      opt->top_k = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt->out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      opt->snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--zero-volatile") == 0) {
      opt->zero_volatile = true;
    } else {
      return false;
    }
  }
  return true;
}

core::ApplicationMain make_app(const RunOptions& opt, core::FunctionRegistry& functions) {
  if (opt.app == "stencil") {
    const auto fns = apps::register_stencil_functions(functions, 1.0);
    return apps::make_stencil_app(
        {.cells_per_tile = 128, .tiles = 2 * opt.shards, .steps = opt.steps}, fns);
  }
  if (opt.app == "circuit") {
    const auto fns = apps::register_circuit_functions(functions, 1.0);
    return apps::make_circuit_app({.nodes_per_piece = 100,
                                   .wires_per_piece = 200,
                                   .pieces = 2 * opt.shards,
                                   .steps = opt.steps},
                                  fns);
  }
  if (opt.app == "pennant") {
    const auto fns = apps::register_pennant_functions(functions, 1.0);
    return apps::make_pennant_app(
        {.zones_per_piece = 200, .pieces = 2 * opt.shards, .cycles = opt.steps}, fns);
  }
  return nullptr;
}

// The acceptance cross-check: the profiler's online fence/elision ledger must
// reproduce exactly what the spy trace (ground truth for the offline
// verifier) says happened, dependence by dependence.
bool cross_check(const core::DcrRuntime& rt, std::ostream& os) {
  const spy::Trace* trace = rt.trace();
  if (!trace) {
    os << "cross-check: no spy trace recorded\n";
    return false;
  }
  std::uint64_t spy_issued = 0, spy_elided = 0;
  for (const spy::CoarseDepRecord& d : trace->coarse_deps) {
    (d.elided ? spy_elided : spy_issued)++;
  }
  const prof::Counters& g = rt.profiler().global();
  // Corruption healing re-issues a traced op's cached fence decisions into
  // the prof ledger (the re-replayed tail re-decides them) without appending
  // spy records — the spy trace stays the ground-truth *task graph*, which a
  // heal by design does not change.  Subtract the re-issued share before
  // comparing, and surface it so a reconciliation under SDC is auditable.
  const std::uint64_t reissued_f = g.get(prof::GlobalCounter::SdcReissuedFences);
  const std::uint64_t reissued_e = g.get(prof::GlobalCounter::SdcReissuedElisions);
  const std::uint64_t reissued_d = g.get(prof::GlobalCounter::SdcReissuedDecisions);
  const std::uint64_t issued = g.get(prof::GlobalCounter::FencesIssued) - reissued_f;
  const std::uint64_t elided = g.get(prof::GlobalCounter::FencesElided) - reissued_e;
  const std::uint64_t decisions = g.get(prof::GlobalCounter::FenceDecisions) - reissued_d;
  const bool ok = issued == spy_issued && elided == spy_elided &&
                  decisions == spy_issued + spy_elided;
  os << "cross-check vs dcr-spy trace: prof issued=" << issued << " elided=" << elided
     << " decisions=" << decisions << " | spy issued=" << spy_issued
     << " elided=" << spy_elided << " -> " << (ok ? "OK" : "MISMATCH") << "\n";
  if (reissued_d > 0) {
    os << "  (excluded " << reissued_d << " decisions re-issued by SDC healing: "
       << reissued_f << " fences, " << reissued_e << " elisions)\n";
  }
  return ok;
}

int cmd_report(int argc, char** argv) {
  RunOptions opt;
  if (!parse_run_options(argc, argv, &opt)) return usage();

  sim::Machine machine({.num_nodes = opt.shards,
                        .compute_procs_per_node = 1,
                        .network = {.alpha = us(1), .ns_per_byte = 0.1}});
  core::FunctionRegistry functions;
  const core::ApplicationMain main_fn = make_app(opt, functions);
  if (!main_fn) return usage();
  core::DcrConfig cfg;
  cfg.profile = true;
  cfg.record_trace = true;  // ground truth for the fence/elision cross-check
  core::DcrRuntime rt(machine, functions, cfg);
  const core::DcrStats stats = rt.execute(main_fn);

  const prof::Report report = prof::build_report(rt.ledger()->spans());
  prof::render_report(std::cout, rt.profiler(), report, opt.top_k);
  std::cout << "\nmakespan: " << static_cast<double>(stats.makespan) / 1e6 << " ms ("
            << opt.app << ", " << opt.shards << " shards, " << opt.steps << " steps)\n";
  const bool checked = cross_check(rt, std::cout);

  if (!opt.snapshot_path.empty()) {
    std::ofstream out(opt.snapshot_path);
    if (!out) {
      std::cerr << "dcr-prof: cannot write " << opt.snapshot_path << "\n";
      return 2;
    }
    rt.profiler().write_snapshot_json(out, opt.zero_volatile);
    std::cout << "wrote counter snapshot -> " << opt.snapshot_path << "\n";
  }
  if (!stats.completed) {
    std::cerr << "dcr-prof: execution did not complete\n";
    return 1;
  }
  return checked ? 0 : 1;
}

int cmd_trace(int argc, char** argv) {
  RunOptions opt;
  if (!parse_run_options(argc, argv, &opt)) return usage();
  if (opt.out_path.empty()) opt.out_path = opt.app + ".prof.json";

  sim::Machine machine({.num_nodes = opt.shards,
                        .compute_procs_per_node = 1,
                        .network = {.alpha = us(1), .ns_per_byte = 0.1}});
  core::FunctionRegistry functions;
  const core::ApplicationMain main_fn = make_app(opt, functions);
  if (!main_fn) return usage();
  core::DcrConfig cfg;
  cfg.profile = true;
  core::DcrRuntime rt(machine, functions, cfg);
  const core::DcrStats stats = rt.execute(main_fn);

  std::ostringstream buf;
  prof::write_chrome_trace(buf, rt.ledger()->num_shards(), rt.ledger()->spans());
  const std::vector<std::string> errors = prof::validate_chrome_trace(buf.str());
  for (const std::string& e : errors) std::cerr << "dcr-prof: schema: " << e << "\n";
  if (!errors.empty()) return 1;

  std::ofstream out(opt.out_path);
  if (!out) {
    std::cerr << "dcr-prof: cannot write " << opt.out_path << "\n";
    return 2;
  }
  out << buf.str();
  std::cout << "recorded " << rt.ledger()->spans().size() << " spans over "
            << opt.shards << " shards -> " << opt.out_path
            << "\nopen in Perfetto: https://ui.perfetto.dev (Open trace file)"
            << (stats.completed ? "" : "\n(execution did not complete)") << "\n";
  return stats.completed ? 0 : 1;
}

int cmd_diff(const char* path_a, const char* path_b) {
  auto load = [](const char* path, prof::JsonValue* out) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "dcr-prof: cannot open " << path << "\n";
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    prof::JsonParseResult res = prof::parse_json(ss.str());
    if (!res.ok()) {
      std::cerr << "dcr-prof: " << path << ": " << res.error << "\n";
      return false;
    }
    *out = std::move(*res.value);
    return true;
  };
  prof::JsonValue a, b;
  if (!load(path_a, &a) || !load(path_b, &b)) return 2;
  const prof::SnapshotDiff d = prof::diff_snapshots(a, b);
  std::cout << "counter diff " << path_a << " -> " << path_b << ":\n";
  for (const auto& c : d.changed) {
    std::cout << "  " << c.key << ": " << c.a << " -> " << c.b << " ("
              << (c.b >= c.a ? "+" : "") << c.b - c.a << ")\n";
  }
  if (!d.added.empty()) {
    std::cout << "added in " << path_b << ":\n";
    for (const auto& k : d.added) std::cout << "  " << k << "\n";
  }
  if (!d.removed.empty()) {
    std::cout << "removed in " << path_b << ":\n";
    for (const auto& k : d.removed) std::cout << "  " << k << "\n";
  }
  if (!d.any()) {
    std::cout << "  (identical)\n";
    return 0;
  }
  std::cout << d.changed.size() << " changed, " << d.added.size() << " added, "
            << d.removed.size() << " removed\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "report") return cmd_report(argc - 2, argv + 2);
  if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
  if (cmd == "diff") {
    if (argc < 4) return usage();
    return cmd_diff(argv[2], argv[3]);
  }
  return usage();
}
