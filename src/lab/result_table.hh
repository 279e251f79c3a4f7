/**
 * @file
 * The structured result of one experiment: a titled table of typed
 * cells, renderable as markdown, CSV, or JSON.
 *
 * Cells are typed so the JSON artifact preserves exactness:
 * instruction counts stay integers (golden-compared exactly), derived
 * ratios are reals (golden-compared with a tiny relative tolerance),
 * labels are text, and absent paper cells ("–") are nulls.
 */

#ifndef MSGSIM_LAB_RESULT_TABLE_HH
#define MSGSIM_LAB_RESULT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hh"

namespace msgsim::lab
{

// The JSON document model moved down to core (core/json.hh) so
// lower layers (src/check) can use it; these aliases keep the lab's
// historical spelling working.
using msgsim::Json;
using msgsim::jsonEscape;
using msgsim::jsonReal;

/** One typed table cell. */
struct Cell
{
    enum class Kind
    {
        Null,
        Int,
        Real,
        Text,
    };

    Kind kind = Kind::Null;
    std::int64_t i = 0;
    double r = 0.0;
    std::string s;

    Cell() = default;

    static Cell
    integer(std::uint64_t v)
    {
        Cell c;
        c.kind = Kind::Int;
        c.i = static_cast<std::int64_t>(v);
        return c;
    }

    static Cell
    real(double v)
    {
        Cell c;
        c.kind = Kind::Real;
        c.r = v;
        return c;
    }

    static Cell
    text(std::string v)
    {
        Cell c;
        c.kind = Kind::Text;
        c.s = std::move(v);
        return c;
    }

    static Cell null() { return Cell(); }

    /** Human-readable rendering (markdown / CSV). */
    std::string str() const;

    /** JSON value of this cell. */
    Json toJson() const;

    /** Rebuild a cell from its JSON value. */
    static Cell fromJson(const Json &j);
};

/** One row of cells. */
using Row = std::vector<Cell>;

/**
 * A titled, column-named table of results — what every experiment
 * returns and what golden files pin.
 */
struct ResultTable
{
    std::string name;  ///< experiment name (e.g. "T2a")
    std::string title; ///< one-line description
    std::vector<std::string> columns;
    std::vector<Row> rows;
    std::vector<std::string> notes{}; ///< free-text caveats / context

    /** Append a row; it must match the column count. */
    void addRow(Row row);

    /** Render as a GitHub-flavored markdown table (plus notes). */
    std::string markdown() const;

    /** Render as CSV (notes omitted). */
    std::string csv() const;

    /** Structured JSON document. */
    Json toJson() const;

    /** Pretty-printed, byte-deterministic JSON text. */
    std::string jsonText() const;
};

} // namespace msgsim::lab

#endif // MSGSIM_LAB_RESULT_TABLE_HH
