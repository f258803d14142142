// Regression watchdog: diff a live BENCH-style snapshot against a committed
// baseline and flag threshold breaches.
//
// BENCH_*.json files are arrays of sweep records ({"sweep": "name", ...
// numeric fields ...}).  The watchdog matches records by sweep name and
// compares every numeric field shared by both sides; a field whose relative
// change exceeds the threshold is a breach.  Machine-dependent fields —
// wall-clock times and overhead ratios derived from them — are skipped by
// default, so the deterministic virtual-time fields (makespans, counter
// totals) carry the regression signal.  Schema drift between versions is
// tolerated: fields or sweeps present on only one side are reported as
// added/removed, not errors.
//
// Used by `dcr-scope watch --check-baseline` and wired into bench_prof /
// bench_scope so a perf regression fails the bench run loudly.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "prof/json.hpp"

namespace dcr::scope {

struct BaselineDiff {
  struct Breach {
    std::string sweep;
    std::string key;
    double base = 0;
    double live = 0;
    double delta_pct = 0;
  };
  std::vector<Breach> breaches;
  std::vector<std::string> added;    // "sweep.key" present only in live
  std::vector<std::string> removed;  // "sweep.key" present only in baseline
  std::vector<std::string> skipped;  // machine-dependent fields not compared
  std::size_t compared = 0;          // numeric fields actually checked
  std::size_t matched_sweeps = 0;
  std::string error;                 // non-empty on malformed input

  bool ok() const { return error.empty() && breaches.empty() && matched_sweeps > 0; }
};

// Is this field machine-dependent (wall-clock derived)?
bool machine_dependent_field(const std::string& key);

// Compare two parsed BENCH-style arrays.  `threshold_pct` is the allowed
// relative change in percent; `include_wall` also compares wall-clock fields.
BaselineDiff check_baseline(const prof::JsonValue& baseline,
                            const prof::JsonValue& live, double threshold_pct,
                            bool include_wall = false);

// File-loading convenience: parses both files, returns a diff whose `error`
// is set if either fails to load or parse.
BaselineDiff check_baseline_files(const std::string& baseline_path,
                                  const std::string& live_path,
                                  double threshold_pct,
                                  bool include_wall = false);

// A baseline file read into memory once.  A bench loads its baseline before
// it writes the fresh BENCH_*.json, which may be the very same file.
struct LoadedBaseline {
  std::string path;
  std::string text;
  std::string error;  // non-empty if the file could not be read
};

LoadedBaseline load_baseline(const std::string& path);

// check_baseline_files against a baseline loaded earlier.
BaselineDiff check_baseline_loaded(const LoadedBaseline& baseline,
                                   const std::string& live_path,
                                   double threshold_pct,
                                   bool include_wall = false);

void render_baseline_diff(std::ostream& os, const BaselineDiff& d,
                          double threshold_pct);

}  // namespace dcr::scope
