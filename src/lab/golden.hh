/**
 * @file
 * Golden-cell regression gating: compare a ResultTable against the
 * checked-in `lab/golden/<name>.json` document that pins every
 * recovered paper cell, and report mismatches precisely enough to
 * act on ("which cell, expected what, got what").
 *
 * The title and every note must match exactly, so a stale caption
 * fails like a stale cell.  Integer cells (instruction counts,
 * packet counts) must match exactly; real cells (overhead fractions, ratios) match within a
 * small relative tolerance so golden files stay robust to printf
 * round-tripping; text and null cells must match exactly.
 */

#ifndef MSGSIM_LAB_GOLDEN_HH
#define MSGSIM_LAB_GOLDEN_HH

#include <string>
#include <vector>

#include "lab/result_table.hh"

namespace msgsim::lab
{

/** Outcome of checking one table. */
struct GoldenReport
{
    bool ok = false;
    bool missing = false; ///< no golden file for this experiment
    std::vector<std::string> mismatches;
};

/**
 * Loads golden documents from a directory and diffs tables against
 * them.
 */
class GoldenChecker
{
  public:
    /** Relative tolerance for real-valued cells. */
    static constexpr double realTolerance = 1e-9;

    explicit GoldenChecker(std::string goldenDir)
        : dir_(std::move(goldenDir))
    {
    }

    /** Check @p table against `<dir>/<table.name>.json`. */
    GoldenReport check(const ResultTable &table) const;

    /**
     * Diff @p table against an already-parsed golden document
     * (exposed separately for tests of the mismatch reporting).
     */
    static GoldenReport compare(const Json &golden,
                                const ResultTable &table);

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

} // namespace msgsim::lab

#endif // MSGSIM_LAB_GOLDEN_HH
