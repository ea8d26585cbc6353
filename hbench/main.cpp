// hbench: the end-to-end benchmark of hcham. Normally started through
// run.py, which builds it first:
//
//   hbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--out-dir <dir>] [--rev <id>]
//
// Prints the run's notes and provenance, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any answer fails its check, 2 on bad arguments or an error.
#include <unistd.h>

#include <complex>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using hbench::WorkloadSpec;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// The bem_* workloads spend most of a run on assemble -> factorize -> solve
// repetitions; solve_stream factorizes once and spends the run serving.
// Its open-loop rate is a fixed number, so every commit sees the same
// offered load: a third or less of the single-column solve rate this host
// sustains, so the queue stays stable when the host runs slower.
std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> w(3);
  w[0].name = "bem_complex";
  w[0].complex = true;
  w[0].n = 6000;
  w[0].nb = 512;
  w[0].lu_share = 0.75;

  w[1].name = "bem_real_fine";
  w[1].n = 12000;
  w[1].nb = 256;
  w[1].lu_share = 0.75;

  w[2].name = "solve_stream";
  w[2].n = 6000;
  w[2].nb = 512;
  w[2].lu_share = 0.2;
  w[2].closed_requests = 5000;
  w[2].open_rate = 75.0;
  w[2].open_requests = 1000;
  return w;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hbench: %s\nusage: hbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--rev <id>]\n",
               why.c_str());
  std::exit(2);
}

std::string json_str(const std::string& s) {
  return "\"" + hbench::SpanRecorder::escape(s) + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string rev = "unknown";
  hbench::RunArgs args;
  args.out_dir = ".bench_out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
        have_seconds = args.seconds > 0.0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        args.trace = val == "1";
        have_trace = true;
      } else if (key == "--out-dir") {
        args.out_dir = val;
      } else if (key == "--rev") {
        rev = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds (> 0) and --trace are required");

  const std::vector<WorkloadSpec> specs = workloads();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : specs)
    if (s.name == workload) spec = &s;
  if (spec == nullptr) usage("unknown workload '" + workload + "'");

  hbench::RunResult r;
  try {
    r = spec->complex
            ? hbench::run_workload<std::complex<double>>(*spec, args)
            : hbench::run_workload<double>(*spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 2;
  }

  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::string provenance =
      "{\"workload\": " + json_str(workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"rev\": " + json_str(rev) +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"llc_bytes\": " + std::to_string(llc) + "}";
  for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
  std::printf("provenance: %s\n", provenance.c_str());
  for (const hbench::Metric& m : r.metrics)
    std::printf("%-28s %14.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);

  const bool correct = r.failed == 0;
  const std::string result =
      hbench::result_json(correct, r.attempted, r.failed, r.metrics);
  const std::string record_path = args.out_dir + "/result-" + workload + "-" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << "{\"provenance\": " << provenance
                             << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
