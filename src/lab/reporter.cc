#include "lab/reporter.hh"

#include <filesystem>
#include <fstream>

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

void
Reporter::writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        msgsim_fatal("cannot open for writing: ", path);
    out << content;
    if (!out)
        msgsim_fatal("write failed: ", path);
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
        Reporter::writeFile(path, (t.*render)());
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
