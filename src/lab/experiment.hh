/**
 * @file
 * The experiment abstraction: a named, described, point-gridded unit
 * of measurement whose execution yields rows of a ResultTable.
 *
 * Every entry of the EXPERIMENTS.md E-index (T1, T2a/b, T3, F6, F8,
 * D1, D2, A1, X1–X10, ...) is registered as one Experiment.  Points
 * of the parameter grid are independent seeded simulations, so the
 * SweepRunner may execute them concurrently; their rows are merged
 * back in grid order, which keeps the assembled table
 * byte-deterministic regardless of parallelism.
 */

#ifndef MSGSIM_LAB_EXPERIMENT_HH
#define MSGSIM_LAB_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "lab/result_table.hh"

namespace msgsim::lab
{

/**
 * One registered experiment.
 */
struct Experiment
{
    std::string name;  ///< E-index key, e.g. "T2a" (unique)
    std::string title; ///< one-line description
    /// True for experiments that gate themselves (W1's
    /// predicted-vs-measured status column): the byte-identity
    /// guarantee still applies, but there is no golden file, because
    /// the analytic model is the reference.
    bool goldenExempt = false;
    std::vector<std::string> columns;
    /// Labels of the parameter-grid points (size = number of points).
    std::vector<std::string> points;
    /// Run one grid point; returns the rows it contributes.  Must be
    /// self-contained (build its own stacks) and safe to call from a
    /// worker thread concurrently with other points.
    std::function<std::vector<Row>(std::size_t pointIndex)> runPoint;
    std::vector<std::string> notes;

    /** Assemble the table shell (no rows) for this experiment. */
    ResultTable
    shell() const
    {
        ResultTable t;
        t.name = name;
        t.title = title;
        t.columns = columns;
        t.notes = notes;
        return t;
    }
};

} // namespace msgsim::lab

#endif // MSGSIM_LAB_EXPERIMENT_HH
