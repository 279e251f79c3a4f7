#include "lab/reporter.hh"

#include <filesystem>

#include "sim/flag_table.hh"
#include "sim/log.hh"

namespace msgsim::lab
{

std::string
Reporter::markdown(const std::vector<ResultTable> &tables)
{
    std::string out;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        if (i)
            out += "\n";
        out += tables[i].markdown();
    }
    return out;
}

namespace
{

std::vector<std::string>
writeAll(const std::string &dir,
         const std::vector<ResultTable> &tables, const char *ext,
         std::string (ResultTable::*render)() const)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        msgsim_fatal("cannot create directory ", dir, ": ",
                     ec.message());
    std::vector<std::string> paths;
    paths.reserve(tables.size());
    for (const auto &t : tables) {
        const std::string path = dir + "/" + t.name + ext;
        if (!cli::writeFile("msgsim-lab", path, (t.*render)()))
            msgsim_fatal("write failed: ", path);
        paths.push_back(path);
    }
    return paths;
}

} // namespace

std::vector<std::string>
Reporter::writeJson(const std::string &dir,
                    const std::vector<ResultTable> &tables)
{
    return writeAll(dir, tables, ".json", &ResultTable::jsonText);
}

std::vector<std::string>
Reporter::writeCsv(const std::string &dir,
                   const std::vector<ResultTable> &tables)
{
    return writeAll(dir, tables, ".csv", &ResultTable::csv);
}

} // namespace msgsim::lab
