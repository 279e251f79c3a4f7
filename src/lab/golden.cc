#include "lab/golden.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace msgsim::lab
{

namespace
{

/** Render one cell for a mismatch message. */
std::string
show(const Cell &c)
{
    switch (c.kind) {
      case Cell::Kind::Null:
        return "null";
      case Cell::Kind::Text:
        return "\"" + c.s + "\"";
      default:
        return c.str();
    }
}

bool
cellsEqual(const Cell &want, const Cell &got)
{
    if (want.kind != got.kind)
        return false;
    switch (want.kind) {
      case Cell::Kind::Null:
        return true;
      case Cell::Kind::Int:
        return want.i == got.i;
      case Cell::Kind::Real: {
        const double scale =
            std::max(std::abs(want.r), std::abs(got.r));
        return std::abs(want.r - got.r) <=
               GoldenChecker::realTolerance * std::max(scale, 1.0);
      }
      case Cell::Kind::Text:
        return want.s == got.s;
    }
    return false;
}

} // namespace

GoldenReport
GoldenChecker::compare(const Json &golden, const ResultTable &table)
{
    GoldenReport rep;
    auto mismatch = [&](const std::string &msg) {
        rep.mismatches.push_back(table.name + ": " + msg);
    };

    const Json *title = golden.find("title");
    const Json *notes = golden.find("notes");
    const Json *cols = golden.find("columns");
    const Json *rows = golden.find("rows");
    if (!title || !notes || !cols || !rows) {
        mismatch("golden document lacks 'title'/'notes'/'columns'/"
                 "'rows'");
        return rep;
    }

    if (title->asString() != table.title)
        mismatch("title: golden '" + title->asString() + "', got '" +
                 table.title + "'");
    if (notes->size() != table.notes.size())
        mismatch("note count: golden " + std::to_string(notes->size()) +
                 ", got " + std::to_string(table.notes.size()));
    for (std::size_t i = 0;
         i < std::min<std::size_t>(notes->size(), table.notes.size());
         ++i)
        if (notes->at(i).asString() != table.notes[i])
            mismatch("note " + std::to_string(i) + ": golden '" +
                     notes->at(i).asString() + "', got '" +
                     table.notes[i] + "'");

    if (cols->size() != table.columns.size()) {
        mismatch("column count: golden " +
                 std::to_string(cols->size()) + ", got " +
                 std::to_string(table.columns.size()));
    } else {
        for (std::size_t c = 0; c < table.columns.size(); ++c) {
            if (cols->at(c).asString() != table.columns[c])
                mismatch("column " + std::to_string(c) +
                         ": golden '" + cols->at(c).asString() +
                         "', got '" + table.columns[c] + "'");
        }
    }

    if (rows->size() != table.rows.size())
        mismatch("row count: golden " + std::to_string(rows->size()) +
                 ", got " + std::to_string(table.rows.size()));

    const std::size_t nrows =
        std::min(static_cast<std::size_t>(rows->size()),
                 table.rows.size());
    for (std::size_t r = 0; r < nrows; ++r) {
        const Json &grow = rows->at(r);
        const Row &trow = table.rows[r];
        if (grow.size() != trow.size()) {
            mismatch("row " + std::to_string(r) +
                     ": cell count golden " +
                     std::to_string(grow.size()) + ", got " +
                     std::to_string(trow.size()));
            continue;
        }
        // A leading text cell is the row's label; use it to make
        // mismatch messages self-locating.
        std::string label;
        if (!trow.empty() && trow[0].kind == Cell::Kind::Text)
            label = " ('" + trow[0].s + "')";
        for (std::size_t c = 0; c < trow.size(); ++c) {
            const Cell want = Cell::fromJson(grow.at(c));
            if (cellsEqual(want, trow[c]))
                continue;
            const std::string colName =
                c < table.columns.size() ? table.columns[c]
                                         : std::to_string(c);
            mismatch("row " + std::to_string(r) + label +
                     ", column '" + colName + "': golden " +
                     show(want) + ", got " + show(trow[c]));
        }
    }

    rep.ok = rep.mismatches.empty();
    return rep;
}

GoldenReport
GoldenChecker::check(const ResultTable &table) const
{
    GoldenReport rep;
    const std::string path = dir_ + "/" + table.name + ".json";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        rep.missing = true;
        rep.mismatches.push_back(table.name +
                                 ": no golden file at " + path);
        return rep;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    Json golden;
    std::string err;
    if (!Json::parse(ss.str(), golden, &err)) {
        rep.mismatches.push_back(table.name + ": unparseable golden " +
                                 path + " (" + err + ")");
        return rep;
    }
    return compare(golden, table);
}

} // namespace msgsim::lab
