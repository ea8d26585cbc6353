#include "workload_impl.hpp"

template hbench::RunResult hbench::run_workload<std::complex<double>>(
    const WorkloadSpec&, const RunArgs&);
