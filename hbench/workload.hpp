// The benchmark's workloads: one BEM cylinder operator each, taken through
// its whole life by public hcham calls. A run is
//
//   set-up    mesh, RHS pool, one untimed assemble -> factorize -> solve
//   measured  assemble -> factorize -> solve repetitions on kLuWorkers
//             engine workers, then save_factors of the last repetition,
//             cold starts (Session::restore + one solve) and a closed loop
//             of single-column requests through a SolverService on a
//             kServeWorkers session. Traced runs of a workload with an
//             open loop run it after the closed loop.
//
// The workloads differ in the operator and in how the run's time is split
// between the write-heavy repetitions and the read-only serving phases.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace hbench {

/// Settings shared by every workload. The serving session leaves one of
/// the reference host's 4 cores to the batching thread and the client.
constexpr int kLuWorkers = 4;
constexpr int kServeWorkers = 3;
constexpr int kColdStarts = 5;
constexpr int kClients = 8;  ///< closed-loop requests per wave

/// Fixed parameters of a workload. Only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  bool complex = false;  ///< Helmholtz exp(ikd)/d, else Coulomb 1/d
  long n = 0;            ///< unknowns on the cylinder
  long nb = 0;           ///< tile size NB
  /// Share of --seconds given to the measured repetitions (at least one
  /// runs; a traced run does at least one untraced and one traced).
  double lu_share = 0.0;
  /// Closed loop: waves of kClients single-column requests until
  /// closed_requests have been sent (>= 1000, so the p99 has ten samples
  /// beyond it).
  long closed_requests = 1000;
  /// Open loop of single-column requests with Poisson arrivals, run in
  /// traced runs only; none when open_requests is 0.
  double open_rate = 0.0;  ///< arrivals per second
  long open_requests = 0;
};

struct RunArgs {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;  ///< factor file and Chrome trace go here
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< sizes and facts printed with the run
};

template <typename T>
RunResult run_workload(const WorkloadSpec& spec, const RunArgs& args);

}  // namespace hbench
