/**
 * @file
 * The paper's four tables as lab rows: Table 1's cost rows, Table 2's
 * feature breakdown, Table 3's reg/mem/dev split and Appendix A's
 * cycle weighting, each built from the counts one run charged.
 *
 * The lab's T1, T2a/T2b, T3 and A1 experiments and the examples build
 * their tables here and nowhere else.  This unit needs only the
 * accounting core and ResultTable, not the experiment registry, so an
 * example links it without the lab's protocol sweeps.
 *
 * Every builder puts @p label in the first cell of each row, so one
 * table can hold several runs (T1's substrates, T2's message sizes).
 */

#ifndef MSGSIM_LAB_PAPER_TABLES_HH
#define MSGSIM_LAB_PAPER_TABLES_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hh"
#include "core/counter.hh"
#include "core/row.hh"
#include "lab/result_table.hh"

namespace msgsim::lab
{

// Cell shorthands shared by the row builders and the experiments.
inline Cell I(std::uint64_t v) { return Cell::integer(v); }
inline Cell R(double v) { return Cell::real(v); }
inline Cell T(std::string v) { return Cell::text(std::move(v)); }

/** Paper cell convention: zero renders (and pins) as null ("-"). */
inline Cell
paperCount(std::uint64_t v)
{
    return v == 0 ? Cell::null() : Cell::integer(v);
}

inline Cell okCell(bool ok) { return T(ok ? "ok" : "FAILED"); }

/** Per-row instruction totals of one role (Accounting::rowTotals()). */
using CostRowTotals = std::array<std::uint64_t, numCostRows>;

/** Table 1: label, row, src, dst. */
std::vector<std::string> costColumns(const std::string &label);

/**
 * Table 1's rows: one per cost row (Other only when charged), then
 * the Total of each role.
 */
std::vector<Row> costRows(const std::string &label,
                          const CostRowTotals &src,
                          const CostRowTotals &dst);

/** Table 2: label, feature, src, dst, total. */
std::vector<std::string> featureColumns(const std::string &label);

/** Table 2's rows: the four paper features, then Total. */
std::vector<Row> featureRows(const std::string &label,
                             const BreakdownCounter &bd);

/** Table 3: label, feature, then reg/mem/dev of src and of dst. */
std::vector<std::string> categoryColumns(const std::string &label);

/** Table 3's rows: the four paper features, then Total. */
std::vector<Row> categoryRows(const std::string &label,
                              const BreakdownCounter &bd);

/**
 * Appendix A: label, model, the four paper features' cycles, total
 * and overhead.
 */
std::vector<std::string> cycleColumns(const std::string &label);

/**
 * Appendix A's row for one cost model: each paper feature's modeled
 * cycles (source plus destination), the total, and the overhead
 * fraction (everything but the base cost).
 */
Row cycleRow(const std::string &label, const BreakdownCounter &bd,
             const CostModel &model);

} // namespace msgsim::lab

#endif // MSGSIM_LAB_PAPER_TABLES_HH
