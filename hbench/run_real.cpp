#include "workload_impl.hpp"

template hbench::RunResult hbench::run_workload<double>(
    const WorkloadSpec&, const RunArgs&);
