/**
 * @file
 * The one source behind every build/bench/ binary.  bench/CMakeLists.txt
 * compiles it once per bench with MSGSIM_BENCH_EXPERIMENTS set to the
 * comma-separated lab experiments that bench prints, so each paper
 * table and sweep has exactly one implementation: its registered
 * experiment in src/lab/experiments.cc.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "lab/registry.hh"
#include "lab/reporter.hh"
#include "lab/runner.hh"

namespace
{

using namespace msgsim;
using namespace msgsim::lab;

/**
 * Run the comma-separated registered experiments @p names
 * sequentially and print their markdown tables.  Returns a process
 * exit status.
 */
int
labBenchMain(const std::string &names)
{
    ExperimentRegistry &reg = builtinRegistry();
    std::vector<const Experiment *> selection;
    std::istringstream list(names);
    for (std::string name; std::getline(list, name, ',');) {
        const Experiment *e = reg.find(name);
        if (!e) {
            std::fprintf(stderr,
                         "error: experiment '%s' is not registered\n",
                         name.c_str());
            return 1;
        }
        selection.push_back(e);
    }

    SweepOptions opts; // sequential: benches are for reading, not racing
    SweepRunner runner(opts);
    const auto tables = runner.run(selection);
    std::fputs(Reporter::markdown(tables).c_str(), stdout);
    return 0;
}

} // namespace

int
main()
{
    return labBenchMain(MSGSIM_BENCH_EXPERIMENTS);
}
