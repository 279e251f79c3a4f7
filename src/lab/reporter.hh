/**
 * @file
 * Rendering and artifact emission for sweep results: markdown to a
 * stream, CSV / JSON files per experiment into an output directory.
 */

#ifndef MSGSIM_LAB_REPORTER_HH
#define MSGSIM_LAB_REPORTER_HH

#include <string>
#include <vector>

#include "lab/result_table.hh"

namespace msgsim::lab
{

/**
 * Renders ResultTables and writes per-experiment artifacts.
 */
class Reporter
{
  public:
    /** Markdown rendering of every table, separated by blank lines. */
    static std::string markdown(const std::vector<ResultTable> &tables);

    /**
     * Write `<dir>/<name>.json` for each table (creating @p dir).
     * Returns the paths written; fatal on I/O failure.
     */
    static std::vector<std::string>
    writeJson(const std::string &dir,
              const std::vector<ResultTable> &tables);

    /** Write `<dir>/<name>.csv` for each table (creating @p dir). */
    static std::vector<std::string>
    writeCsv(const std::string &dir,
             const std::vector<ResultTable> &tables);

    /** Write one file; fatal on failure. */
    static void writeFile(const std::string &path,
                          const std::string &content);
};

} // namespace msgsim::lab

#endif // MSGSIM_LAB_REPORTER_HH
