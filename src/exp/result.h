// Machine-readable bench results (`BENCH_<id>.json`).
//
// Every bench binary can write its full result grid as a versioned JSON
// document via `--json=<path>`. The document is deterministic: two runs with
// the same scale and seed produce byte-identical files except for the `meta`
// block (git revision and any other host-specific labels). Layout:
//
//   {
//     "schema": "eo-bench-result",
//     "schema_version": 1,
//     "bench": "fig09_vb_blocking",
//     "scale": 1.0,
//     "seed": 7,
//     "meta": { "git_rev": "...", ... },          // volatile, host-specific
//     "sweeps": [
//       {
//         "name": "blocking",
//         "axes": [ { "name": "benchmark", "values": ["hist", ...] }, ... ],
//         "cells": [                              // row-major, axis 0 slowest
//           {
//             "coords": ["hist", "32T(opt)"],
//             "completed": true, "attempts": 1,
//             "exec_ms": ..., "utilization_percent": ..., "spin_busy_ms": ...,
//             "context_switches": ..., "migrations_in_node": ...,
//             "migrations_cross_node": ..., "vb_parks": ...,
//             "wakeup_p50_ns": ..., "wakeup_p95_ns": ..., "wakeup_p99_ns": ...,
//             "wakeup_count": ...,
//             "bwd": { "windows": ..., "tp": ..., "fp": ..., "fn": ..., "tn": ... },
//             "extra": { "tput_ops_s": ..., ... } // bench-specific derived values
//           },
//           { "coords": [...], "na": true },      // grid point not applicable
//           { "coords": [...], "skipped": true }  // excluded by --filter
//         ]
//       }
//     ]
//   }
//
// `validate_result_json` structurally checks a document against this schema
// (the `json_check` tool and the bench_json_smoke ctest use it).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"

namespace eo::exp {

inline constexpr int kResultSchemaVersion = 1;
inline constexpr const char* kResultSchemaName = "eo-bench-result";

class ResultDoc {
 public:
  ResultDoc(std::string bench_id, double scale, std::uint64_t seed)
      : bench_id_(std::move(bench_id)), scale_(scale), seed_(seed) {}

  /// Appends one sweep's grid. The outcomes must come from a runner built on
  /// this sweep (cell count = product of axis sizes).
  void add_sweep(const Sweep& sweep, const Outcomes& outcomes);

  /// Volatile host metadata (excluded from determinism guarantees). The git
  /// revision is added automatically at render time unless already set.
  void set_meta(const std::string& key, const std::string& value);

  /// Renders the document; output is deterministic given the same inputs.
  std::string render() const;

  /// Validates and writes the document; returns false (with `err`) on an
  /// invalid document or an I/O failure.
  bool write(const std::string& path, std::string* err) const;

 private:
  struct SweepBlock {
    std::string name;
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    std::vector<CellOutcome> cells;
  };

  std::string bench_id_;
  double scale_;
  std::uint64_t seed_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<SweepBlock> sweeps_;
};

/// Structural validation of a rendered result document.
bool validate_result_json(const std::string& text, std::string* err);

/// `git rev-parse HEAD` of the source tree this library was built from
/// (whatever the working directory), or "unknown".
std::string current_git_rev();

}  // namespace eo::exp
