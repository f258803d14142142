#include "scope/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace dcr::scope {

namespace {

std::string read_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string sweep_name(const prof::JsonValue& record) {
  const prof::JsonValue* s = record.find("sweep");
  if (s && s->is_string()) return s->string;
  return {};
}

const prof::JsonValue* find_sweep(const prof::JsonValue& arr,
                                  const std::string& name) {
  for (const auto& rec : arr.array) {
    if (rec.is_object() && sweep_name(rec) == name) return &rec;
  }
  return nullptr;
}

double rel_delta_pct(double base, double live) {
  if (base == live) return 0;
  const double denom = std::max(std::abs(base), 1e-12);
  return (live - base) / denom * 100.0;
}

}  // namespace

bool machine_dependent_field(const std::string& key) {
  return key.find("wall") != std::string::npos ||
         key.find("overhead") != std::string::npos;
}

BaselineDiff check_baseline(const prof::JsonValue& baseline,
                            const prof::JsonValue& live, double threshold_pct,
                            bool include_wall) {
  BaselineDiff d;
  if (!baseline.is_array()) {
    d.error = "baseline is not a JSON array of sweep records";
    return d;
  }
  if (!live.is_array()) {
    d.error = "live snapshot is not a JSON array of sweep records";
    return d;
  }

  for (const auto& brec : baseline.array) {
    if (!brec.is_object()) continue;
    const std::string name = sweep_name(brec);
    const prof::JsonValue* lrec = find_sweep(live, name);
    if (!lrec) {
      d.removed.push_back(name + ".*");
      continue;
    }
    ++d.matched_sweeps;
    for (const auto& [key, bval] : brec.object) {
      if (key == "sweep") continue;
      const prof::JsonValue* lval = lrec->find(key);
      if (!lval) {
        d.removed.push_back(name + "." + key);
        continue;
      }
      if (!bval.is_number() || !lval->is_number()) continue;
      if (!include_wall && machine_dependent_field(key)) {
        d.skipped.push_back(name + "." + key);
        continue;
      }
      ++d.compared;
      const double delta = rel_delta_pct(bval.number, lval->number);
      if (std::abs(delta) > threshold_pct) {
        d.breaches.push_back({name, key, bval.number, lval->number, delta});
      }
    }
    // Fields the live snapshot has that the baseline lacks.
    for (const auto& [key, lval] : lrec->object) {
      if (key == "sweep") continue;
      if (!brec.find(key)) d.added.push_back(name + "." + key);
    }
  }
  // Sweeps the live snapshot has that the baseline lacks.
  for (const auto& lrec : live.array) {
    if (!lrec.is_object()) continue;
    const std::string name = sweep_name(lrec);
    if (!find_sweep(baseline, name)) d.added.push_back(name + ".*");
  }
  return d;
}

BaselineDiff check_baseline_files(const std::string& baseline_path,
                                  const std::string& live_path,
                                  double threshold_pct, bool include_wall) {
  return check_baseline_loaded(load_baseline(baseline_path), live_path, threshold_pct,
                               include_wall);
}

LoadedBaseline load_baseline(const std::string& path) {
  LoadedBaseline b;
  b.path = path;
  b.text = read_file(path, &b.error);
  return b;
}

BaselineDiff check_baseline_loaded(const LoadedBaseline& baseline,
                                   const std::string& live_path,
                                   double threshold_pct, bool include_wall) {
  BaselineDiff d;
  if (!baseline.error.empty()) {
    d.error = baseline.error;
    return d;
  }
  std::string err;
  const std::string ltext = read_file(live_path, &err);
  if (!err.empty()) {
    d.error = err;
    return d;
  }
  const prof::JsonParseResult bp = prof::parse_json(baseline.text);
  if (!bp.ok()) {
    d.error = baseline.path + ": " + bp.error;
    return d;
  }
  const prof::JsonParseResult lp = prof::parse_json(ltext);
  if (!lp.ok()) {
    d.error = live_path + ": " + lp.error;
    return d;
  }
  return check_baseline(*bp.value, *lp.value, threshold_pct, include_wall);
}

void render_baseline_diff(std::ostream& os, const BaselineDiff& d,
                          double threshold_pct) {
  if (!d.error.empty()) {
    os << "baseline check FAILED: " << d.error << "\n";
    return;
  }
  os << "baseline check: " << d.matched_sweeps << " sweep(s) matched, "
     << d.compared << " field(s) compared, threshold " << threshold_pct
     << "%\n";
  if (d.matched_sweeps == 0) {
    os << "  FAIL: no sweep records matched the baseline\n";
    return;
  }
  for (const auto& b : d.breaches) {
    os << "  BREACH " << b.sweep << "." << b.key << ": " << b.base << " -> "
       << b.live << " (" << (b.delta_pct >= 0 ? "+" : "") << b.delta_pct
       << "%)\n";
  }
  if (!d.added.empty()) {
    os << "  added (live only):";
    for (const auto& k : d.added) os << " " << k;
    os << "\n";
  }
  if (!d.removed.empty()) {
    os << "  removed (baseline only):";
    for (const auto& k : d.removed) os << " " << k;
    os << "\n";
  }
  if (!d.skipped.empty()) {
    os << "  skipped " << d.skipped.size()
       << " machine-dependent field(s) (wall/overhead)\n";
  }
  os << (d.ok() ? "  OK: within threshold\n" : "  FAIL\n");
}

}  // namespace dcr::scope
